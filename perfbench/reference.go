package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
)

// refRun is the in-process reference replay of the packets the node was
// sent: same model, same engine configuration, same shard count. Each
// serve shard is fed by exactly one ingest worker (both route on the same
// top-64-bit word of the flow ID, and the worker count divides the shard
// count), so every shard sees its packets in send order on both sides and
// the replay is exact. It replays packet by packet, which attributes each
// classify call to the packet that triggered it, on one goroutine per
// worker, each owning the shards that worker feeds.
type refRun struct {
	eng        *flow.ParallelEngine
	logs       [][]call // per shard, in call order
	ckpt       []byte   // node checkpoint payload at the served checkpoint's cut
	ckptExport time.Duration
	flushed    int
	errors     int
}

func reference(n *node, in *input, sent, ckptAt int, seed maphash.Seed, base time.Time) (*refRun, error) {
	cur := make([]int64, serveWorkers)
	wraps, clfs, err := shardClassifiers(n.clf, seed, base, nil)
	if err != nil {
		return nil, err
	}
	for s, w := range wraps {
		w.cur = &cur[s%serveWorkers]
	}
	eng, err := flow.NewParallelEngine(n.cfg, serveShards, clfs)
	if err != nil {
		return nil, err
	}
	owner := make([]uint8, sent)
	var maxT time.Duration
	for i := range owner {
		p := in.packet(i)
		id := flow.IDOf(p.Tuple)
		owner[i] = uint8(binary.BigEndian.Uint64(id[:8]) % serveWorkers)
		maxT = max(maxT, p.Time)
	}
	errs := make([]int, serveWorkers)
	replay := func(lo, hi int) {
		var wg sync.WaitGroup
		for g := 0; g < serveWorkers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if int(owner[i]) != g {
						continue
					}
					cur[g] = int64(i)
					p := in.packet(i)
					if _, err := eng.Process(&p); err != nil {
						errs[g]++
					}
				}
			}(g)
		}
		wg.Wait()
	}
	r := &refRun{eng: eng}
	replay(0, ckptAt)
	t := time.Now()
	r.ckpt = ingest.EncodeNodeCheckpoint(0, eng.ExportCheckpoint(), eng.ExportPending())
	r.ckptExport = time.Since(t)
	replay(ckptAt, sent)
	// The server's drain flushes at a virtual time one minute past the
	// last packet it saw; so does the replay.
	for g := range cur {
		cur[g] = -1
	}
	if r.flushed, err = eng.FlushAll(maxT + time.Minute); err != nil {
		return nil, fmt.Errorf("reference flush: %w", err)
	}
	for g := range errs {
		r.errors += errs[g]
	}
	for _, w := range wraps {
		r.logs = append(r.logs, w.log)
	}
	return r, nil
}

// verdictCheck compares every served classify call with the reference.
// Calls made while packets were processed happen in the same order on
// both sides and must match position by position; drain flushes walk a
// map, so those are compared as multisets.
func verdictCheck(served, ref [][]call) error {
	for s := range ref {
		sv, rv := served[s], ref[s]
		if len(sv) != len(rv) {
			return fmt.Errorf("shard %d: %d classify calls served, %d in the reference", s, len(sv), len(rv))
		}
		inline := 0
		for inline < len(rv) && rv[inline].at >= 0 {
			inline++
		}
		for k := 0; k < inline; k++ {
			if sv[k].key != rv[k].key || sv[k].class != rv[k].class {
				return fmt.Errorf("shard %d call %d (packet %d): served (key %x, class %d), reference (key %x, class %d)",
					s, k, rv[k].at, sv[k].key, sv[k].class, rv[k].key, rv[k].class)
			}
		}
		type kc struct {
			key   uint64
			class int8
		}
		rest := map[kc]int{}
		for _, c := range rv[inline:] {
			rest[kc{c.key, c.class}]++
		}
		for _, c := range sv[inline:] {
			rest[kc{c.key, c.class}]--
		}
		for k, v := range rest {
			if v != 0 {
				return fmt.Errorf("shard %d: drain flush verdict (key %x, class %d) off by %d", s, k.key, k.class, v)
			}
		}
	}
	return nil
}

// flowLabels walks every flow of every lap the run touched and compares
// the served engine's recorded verdict with the reference's and with the
// ground truth. It returns the flows with a served verdict and how many
// of those match the ground truth.
func flowLabels(in *input, sent int, served, ref *flow.ParallelEngine) (labelled, correct int, err error) {
	laps := (sent + len(in.base) - 1) / len(in.base)
	for lap := 0; lap < laps; lap++ {
		for f := range in.flows {
			t := in.lapTuple(f, lap)
			sl, sok := served.RecordedLabel(t)
			rl, rok := ref.RecordedLabel(t)
			if sok != rok || sl != rl {
				return 0, 0, fmt.Errorf("flow %v: served verdict (%v, %v), reference (%v, %v)", t, sl, sok, rl, rok)
			}
			if sok {
				labelled++
				if sl == corpus.Class(in.classes[f]) {
					correct++
				}
			}
		}
	}
	return labelled, correct, nil
}

// gates checks every correctness condition of one run and returns the
// failures; an empty result means the run's outputs are correct.
func gates(sr *serveRun, n *node, ref *refRun) []string {
	var fails []string
	fail := func(format string, a ...any) { fails = append(fails, fmt.Sprintf(format, a...)) }

	if sr.client.Sent != sr.sent || sr.srv.Received != sr.client.Sent {
		fail("delivery: generator sent %d, client counted %d, server received %d", sr.sent, sr.client.Sent, sr.srv.Received)
	}
	if st := sr.srv; st.Received != st.Admitted+st.Quarantined+st.Shed {
		fail("transport conservation: received %d != admitted %d + quarantined %d + shed %d",
			st.Received, st.Admitted, st.Quarantined, st.Shed)
	}
	if es := sr.eng; es.Pending != 0 || es.Admitted != es.Classified+es.Fallback+es.Dropped+es.Pending {
		fail("engine conservation after drain: admitted %d != classified %d + fallback %d + dropped %d + pending %d",
			es.Admitted, es.Classified, es.Fallback, es.Dropped, es.Pending)
	}
	served := make([][]call, len(n.wraps))
	for i, w := range n.wraps {
		served[i] = w.log
	}
	if err := verdictCheck(served, ref.logs); err != nil {
		fail("verdicts: %v", err)
	}
	if rs := ref.eng.Stats(); sr.eng != rs {
		fail("engine state: served %+v, reference %+v", sr.eng, rs)
	}
	if sr.srv.EngineErrors != ref.errors {
		fail("engine errors: served %d, reference %d", sr.srv.EngineErrors, ref.errors)
	}

	if sr.ckpt == nil {
		fail("checkpoint: the flood phase took none")
	} else if err := checkCheckpoint(sr.ckpt, n.cfg, ref.ckpt); err != nil {
		fail("checkpoint: %v", err)
	}
	return fails
}

// checkCheckpoint requires the last flood checkpoint to equal the
// reference's state at the same cut, to decode, and to import into a
// fresh engine with conserved counters.
func checkCheckpoint(payload []byte, cfg flow.EngineConfig, want []byte) error {
	if !bytes.Equal(payload, want) {
		return fmt.Errorf("payload (%d bytes) differs from the reference state at the same cut (%d bytes)", len(payload), len(want))
	}
	_, engineCkpt, pending, err := ingest.DecodeNodeCheckpoint(payload)
	if err != nil {
		return err
	}
	eng, err := flow.NewParallelEngine(cfg, serveShards, nil)
	if err != nil {
		return err
	}
	if err := eng.ImportCheckpoint(engineCkpt); err != nil {
		return err
	}
	if _, err := eng.ImportPending(pending); err != nil {
		return err
	}
	if st := eng.Stats(); st.Admitted != st.Classified+st.Fallback+st.Dropped+st.Pending {
		return fmt.Errorf("imported engine breaks conservation: %+v", st)
	}
	return nil
}
