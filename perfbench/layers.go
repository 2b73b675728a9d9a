package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/packet"
)

// Isolated per-layer replays. Each replays one layer's public function
// over this run's own inputs — the packets sent in the paced phase and
// the base trace's flows — to separate costs that cannot be separated
// inside the serve run.

// layerSample bounds the per-packet replays (frame decode, flow-ID hash,
// CDB ops) to the first packets of the run.
const layerSample = 200_000

// frameDecodeNs replays FrameReader.Next over the run's frames.
func frameDecodeNs(in *input, npkts int) (float64, error) {
	var wire []byte
	for i := 0; i < npkts; i++ {
		p := in.packet(i)
		var err error
		if wire, err = ingest.AppendFrame(wire, &p); err != nil {
			return 0, err
		}
	}
	fr := ingest.NewFrameReader(bytes.NewReader(wire), 0, nil)
	got := 0
	t := time.Now()
	for {
		if _, err := fr.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, err
		}
		got++
	}
	el := time.Since(t)
	if got != npkts || fr.Quarantined() != 0 {
		return 0, fmt.Errorf("frame replay decoded %d of %d frames, %d quarantined", got, npkts, fr.Quarantined())
	}
	return float64(el) / float64(npkts), nil
}

var sinkID flow.ID

// idHashNs replays flow.IDOf over the run's tuples.
func idHashNs(in *input, npkts int) float64 {
	tuples := make([]packet.FiveTuple, npkts)
	for i := range tuples {
		tuples[i] = in.packet(i).Tuple
	}
	t := time.Now()
	for _, tp := range tuples {
		sinkID = flow.IDOf(tp)
	}
	return float64(time.Since(t)) / float64(npkts)
}

// cdbNsPerOp replays the CDB operations of the engine's packet path
// (Close on FIN/RST, Lookup otherwise, Insert on a data packet's miss)
// over the run's flow-ID and time sequence, on a CDB configured as the
// node's.
func cdbNsPerOp(in *input, npkts int, cfg flow.CDBConfig) float64 {
	ids := make([]flow.ID, npkts)
	pkts := make([]packet.Packet, npkts)
	for i := range pkts {
		pkts[i] = in.packet(i)
		ids[i] = flow.IDOf(pkts[i].Tuple)
	}
	db := flow.NewCDB(cfg)
	ops := 0
	t := time.Now()
	for i := range pkts {
		p := &pkts[i]
		ops++
		if p.Flags.Has(packet.FlagFIN) || p.Flags.Has(packet.FlagRST) {
			db.Close(ids[i])
			continue
		}
		if _, ok := db.Lookup(ids[i], p.Time); !ok && p.IsData() {
			db.Insert(ids[i], corpus.Class(i%corpus.NumClasses), p.Time)
			ops++
		}
	}
	return float64(time.Since(t)) / float64(ops)
}

// flowBuffers returns up to limit base flows' classified buffers: the
// first b payload bytes, as the engine buffers them, with the packet
// boundaries they arrived in.
func flowBuffers(in *input, b, limit int) [][][]byte {
	chunks := make([][][]byte, len(in.flows))
	have := make([]int, len(in.flows))
	for i := range in.base {
		p := &in.base[i]
		f := in.flowOf[i]
		if int(f) >= limit || !p.IsData() || have[f] >= b {
			continue
		}
		c := p.Payload[:min(len(p.Payload), b-have[f])]
		chunks[f] = append(chunks[f], c)
		have[f] += len(c)
	}
	return chunks[:min(limit, len(chunks))]
}

// classifyLayers replays core.Classifier.Features and ClassifyVector over
// the flows' buffers; it reports µs per Features call and ns per
// ClassifyVector call.
func classifyLayers(n *node, bufs [][][]byte) (featuresUs, predictNs float64, err error) {
	flat := make([][]byte, 0, len(bufs))
	for _, cs := range bufs {
		flat = append(flat, bytes.Join(cs, nil))
	}
	vecs := make([][]float64, 0, len(flat))
	t := time.Now()
	for _, buf := range flat {
		v, err := n.clf.Features(buf)
		if err != nil {
			continue // shorter than the widest feature: the engine falls back too
		}
		vecs = append(vecs, v)
	}
	featuresUs = float64(time.Since(t)) / 1e3 / float64(len(flat))
	t = time.Now()
	for _, v := range vecs {
		if _, err := n.clf.ClassifyVector(v); err != nil {
			return 0, 0, err
		}
	}
	predictNs = float64(time.Since(t)) / float64(len(vecs))
	return featuresUs, predictNs, nil
}

// sketchWriteNsPerByte replays StreamVector.Write, in the packet-sized
// chunks the engine writes, over the flows' buffers with the stream-cc
// node's sketch configuration at the workload's b.
func sketchWriteNsPerByte(n *node, b int, bufs [][][]byte) (float64, error) {
	cfg := entest.StreamConfig{
		Epsilon: serveEpsilon, Delta: serveDelta, Widths: n.clf.FeatureWidths(),
		ExpectedLen: b, Kind: entest.SketchCC,
	}
	var el time.Duration
	written := 0
	for _, cs := range bufs {
		sv, err := entest.NewStreamVectorConfig(cfg)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for _, c := range cs {
			sv.Write(c)
			written += len(c)
		}
		el += time.Since(t)
	}
	return float64(el) / float64(written), nil
}

// replayCost is the flow replay's per-packet cost split by span.
type replayCost struct {
	process, self, features, predict float64 // ns per packet
}

// flowReplay replays ParallelEngine.ProcessBatch in batches of 64 over the
// paced phase's packets on a fresh engine configured as the node's, with
// every batch a span whose children are the classifier calls it made.
func flowReplay(n *node, in *input, npkts int, seed maphash.Seed, tr *tracer) (replayCost, error) {
	var parent uint64
	wraps, clfs, err := shardClassifiers(n.clf, seed, tr.base, tr)
	if err != nil {
		return replayCost{}, err
	}
	for _, w := range wraps {
		w.parent = &parent
	}
	eng, err := flow.NewParallelEngine(n.cfg, serveShards, clfs)
	if err != nil {
		return replayCost{}, err
	}
	pkts := make([]packet.Packet, npkts)
	for i := range pkts {
		pkts[i] = in.packet(i)
	}
	var before [numLayers]int64
	for l := range before {
		before[l] = tr.ns[l].Load()
	}
	batch := make([]*packet.Packet, 0, ingest.DefaultBatch)
	for i := 0; i < npkts; i += ingest.DefaultBatch {
		batch = batch[:0]
		for j := i; j < min(i+ingest.DefaultBatch, npkts); j++ {
			batch = append(batch, &pkts[j])
		}
		parent = uint64(i/ingest.DefaultBatch) + 1
		t0 := tr.now()
		if _, err := eng.ProcessBatch(batch); err != nil {
			return replayCost{}, err
		}
		tr.record(spanProcessBatch, parent, 0, t0, tr.now())
	}
	per := func(l layer) float64 { return float64(tr.ns[l].Load()-before[l]) / float64(npkts) }
	return replayCost{
		process:  per(spanProcessBatch),
		self:     float64(tr.selfNs(spanProcessBatch)) / float64(npkts),
		features: per(spanFeatures),
		predict:  per(spanClassifyVec),
	}, nil
}

// exactAgreement is the share of served verdicts over the paced phase's
// flows that equal an exact buffered replay at the same b.
func exactAgreement(n *node, in *input, pacedN int) (float64, error) {
	cfg := n.cfg
	cfg.Stream = nil
	eng, err := flow.NewParallelEngine(cfg, serveShards, nil)
	if err != nil {
		return 0, err
	}
	var maxT time.Duration
	for i := 0; i < pacedN; i++ {
		p := in.packet(i)
		if _, err := eng.Process(&p); err != nil {
			return 0, err
		}
		maxT = max(maxT, p.Time)
	}
	if _, err := eng.FlushAll(maxT + time.Minute); err != nil {
		return 0, err
	}
	agree, total := 0, 0
	for lap := 0; lap < pacedN/len(in.base); lap++ {
		for f := range in.flows {
			t := in.lapTuple(f, lap)
			sl, ok := n.eng.RecordedLabel(t)
			if !ok {
				continue
			}
			total++
			if el, ok := eng.RecordedLabel(t); ok && el == sl {
				agree++
			}
		}
	}
	if total == 0 {
		return 0, errors.New("no served verdicts in the paced phase")
	}
	return float64(agree) / float64(total), nil
}
