package main

import (
	"fmt"
	"hash/maphash"
	"runtime"

	"iustitia/internal/packet"
)

type namedValue struct {
	name  string
	value float64
	unit  string
}

// featureFlows bounds the flows the entropy, model and sketch replays run
// over: at b = 4096 one Features call costs ~0.3 ms.
func featureFlows(b int) int {
	if b > 1024 {
		return 1000
	}
	return defaultFlows
}

// perLayer gathers the traced run's per-layer metrics from its spans, the
// serve and reference runs' counters, and the isolated layer replays.
func perLayer(cfg runConfig, in *input, n *node, sr *serveRun, ref *refRun, tr *tracer,
	seed maphash.Seed, dispatch *logHist, verdictP50, verdictP99 float64) ([]namedValue, []string, error) {
	w := cfg.workload
	sample := min(sr.sent, layerSample)
	decodeNs, err := frameDecodeNs(in, sample)
	if err != nil {
		return nil, nil, err
	}
	cost, err := flowReplay(n, in, sr.pacedHi, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	bufs := flowBuffers(in, w.b, featureFlows(w.b))
	featuresUs, predictNs, err := classifyLayers(n, bufs)
	if err != nil {
		return nil, nil, err
	}
	sketchNs, err := sketchWriteNsPerByte(n, w.b, bufs)
	if err != nil {
		return nil, nil, err
	}
	// The buffered node is the exact path: its agreement with the exact
	// replay is the per-flow verdict gate, which passed or failed the run.
	agreement := 1.0
	if w.stream {
		if agreement, err = exactAgreement(n, in, sr.pacedHi); err != nil {
			return nil, nil, err
		}
	}

	hashNs := idHashNs(in, sample)
	es := sr.eng
	lookups := 0
	for i := 0; i < sr.sent; i++ {
		p := &in.base[i%len(in.base)]
		if !p.Flags.Has(packet.FlagFIN) && !p.Flags.Has(packet.FlagRST) {
			lookups++
		}
	}
	routed := 0
	for _, q := range es.QueueCounts {
		routed += q
	}
	hits := routed - es.Classified - es.Fallback - es.Shed
	pauseMax := 0.0
	for _, p := range sr.ckptPauses {
		pauseMax = max(pauseMax, p)
	}
	flood := float64(max(sr.floodPkts, 1))
	// Tracing is on in the odd flood windows. The flood rate drifts down
	// as state accumulates, so each traced window is compared with the
	// mean of the untraced windows on either side of it.
	var slow []float64
	for k := 1; k < len(sr.floodWin); k += 2 {
		ref := []float64{sr.floodWin[k-1]}
		if k+1 < len(sr.floodWin) {
			ref = append(ref, sr.floodWin[k+1])
		}
		slow = append(slow, 1-sr.floodWin[k]/mean(ref))
	}
	overhead := mean(slow) * 100

	return []namedValue{
		{"serve.verdict_p50_ms", verdictP50, "ms"},
		{"serve.verdict_p99_ms", verdictP99, "ms"},
		{"ingest.send_ns_per_pkt", tr.meanNs(spanSend), "ns"},
		{"ingest.frame_decode_ns", decodeNs, "ns"},
		{"ingest.dispatch_wait_p50_us", dispatch.quantile(0.5) / 1e3, "us"},
		{"ingest.dispatch_wait_p99_us", dispatch.quantile(0.99) / 1e3, "us"},
		{"ingest.queue_depth_p50", median(sr.qdPaced), "count"},
		{"ingest.queue_depth_max", float64(sr.qdFloodMax), "count"},
		{"ingest.shed", float64(sr.srv.Shed), "count"},
		{"ingest.quarantined", float64(sr.srv.Quarantined), "count"},
		{"ingest.engine_errors", float64(sr.srv.EngineErrors), "count"},
		{"ingest.ckpt_pause_p50_ms", median(append([]float64(nil), sr.ckptPauses...)), "ms"},
		{"ingest.ckpt_pause_max_ms", pauseMax, "ms"},
		{"ingest.drain_s", sr.drain.Seconds(), "s"},
		{"flow.process_ns_per_pkt", cost.process, "ns"},
		{"flow.self_ns_per_pkt", cost.self, "ns"},
		{"flow.id_hash_ns", hashNs, "ns"},
		{"flow.cdb_ns_per_op", cdbNsPerOp(in, sample, n.cfg.CDB), "ns"},
		{"flow.cdb_hit_ratio", float64(hits) / float64(max(lookups, 1)), "ratio"},
		{"flow.classified", float64(es.Classified), "count"},
		{"flow.dropped", float64(es.Dropped), "count"},
		{"flow.fallback", float64(es.Fallback), "count"},
		{"flow.pending_peak", float64(sr.pendingPeak), "count"},
		{"flow.cdb_records_peak", float64(sr.cdbPeak), "count"},
		{"flow.flushed_at_drain", float64(ref.flushed), "count"},
		{"flow.ckpt_bytes", float64(len(sr.ckpt)), "bytes"},
		{"flow.ckpt_export_ms", float64(ref.ckptExport) / 1e6, "ms"},
		{"entropy.features_us_per_flow", featuresUs, "us"},
		{"core.predict_ns_per_flow", predictNs, "ns"},
		{"entest.sketch_write_ns_per_byte", sketchNs, "ns"},
		{"entest.exact_agreement", agreement, "ratio"},
		{"go.alloc_bytes_per_pkt", sr.allocBytes / flood, "bytes"},
		{"go.allocs_per_pkt", sr.allocs / flood, "count"},
		{"go.gc_cpu_share", sr.gcCPU / sr.cpuTotal, "ratio"},
		{"proc.cpu_s_per_mpkt", sr.procCPU / (flood / 1e6), "s"},
		{"proc.cpu_util", sr.procCPU / (sr.floodWall.Seconds() * float64(runtime.NumCPU())), "ratio"},
		{"gen.late_p99_ms", sr.lateP99, "ms"},
		{"trace.overhead_pct", overhead, "%"},
	}, layerShares(w, in, sr, cost, decodeNs, hashNs, sketchNs), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerShares estimates how the flood phase's process CPU per packet
// splits across layers: each layer's unit cost from its isolated replay
// times how often the serve path pays it, over the measured CPU per
// packet. The remainder is the in-process client, loopback TCP, the
// scheduler and GC. NOTES.md records these shares per workload.
func layerShares(w workload, in *input, sr *serveRun, cost replayCost, decodeNs, hashNs, sketchNsPerByte float64) []string {
	cpuNs := sr.procCPU * 1e9 / float64(max(sr.floodPkts, 1))
	// Bytes a flow's state consumes per packet: the first b payload bytes.
	have := make([]int, len(in.flows))
	sketched := 0
	for i := range in.base {
		f := in.flowOf[i]
		c := min(len(in.base[i].Payload), w.b-have[f])
		have[f] += c
		sketched += c
	}
	shares := []namedValue{
		{name: "ingest.frame_decode", value: decodeNs},
		{name: "ingest.route_hash", value: hashNs},
		{name: "flow.self", value: cost.self},
		{name: "entropy.features", value: cost.features},
		{name: "core.predict", value: cost.predict},
	}
	if w.stream {
		shares = append(shares, namedValue{name: "entest.sketch_write (in flow.self)",
			value: sketchNsPerByte * float64(sketched) / float64(len(in.base))})
	}
	line := fmt.Sprintf("cpu_share of %.0f ns/pkt (flood):", cpuNs)
	for _, s := range shares {
		line += fmt.Sprintf(" %s=%.3f", s.name, s.value/cpuNs)
	}
	return []string{line}
}
