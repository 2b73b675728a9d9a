// Command perfbench is the serving benchmark: it drives the real serve
// path of one node in one process — core model → core.NewReplicaSet →
// flow.NewParallelEngine → ingest.NewServer on 127.0.0.1 — with load from
// one ingest.Client connection, then checks every verdict against an
// in-process reference replay.
//
//	perfbench --workload gateway-b4096 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Any failed
// correctness gate prints the object with "correct": false and exits 1.
// See NOTES.md for the workloads, metrics and measured layer shares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iustitia/internal/packet"
)

// workload is one traffic mix. All use the same gateway trace shape; they
// differ in the buffer size b, buffered versus stream-cc state, and the
// paced phase's offered rate.
type workload struct {
	name      string
	b         int
	stream    bool
	rate      float64 // paced offered rate, packets/s
	floodRate float64 // nominal flood rate on a 2-vCPU host; sizes the flood's fixed work
	ckptEvery int     // flood packets between node checkpoints
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json lists the
// two b = 4096 ones; gateway-b32 is run by hand (paired runs), because on
// a shared 2-vCPU host its syscall- and wake-up-bound flood rate spreads
// beyond any usable bound across seeds (see NOTES.md).
var workloads = []workload{
	// The per-packet path dominates: frame codec, SHA-1 flow IDs, CDB
	// lookups and batch partition.
	{name: "gateway-b32", b: 32, rate: 75_000, floodRate: 360_000, ckptEvery: 250_000},
	// Entropy extraction dominates; pending buffers make checkpoints and
	// the heap large.
	{name: "gateway-b4096", b: 4096, rate: 15_000, floodRate: 70_000, ckptEvery: 50_000},
	// The same engine holding per-flow state as a compressed-counting
	// sketch: sketch writes replace entropy extraction.
	{name: "stream-cc-b4096", b: 4096, stream: true, rate: 15_000, floodRate: 50_000, ckptEvery: 75_000},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Run shape defaults. A run measures for --seconds: the paced phase gets
// pacedShare of it, the flood phase the rest.
const (
	defaultFlows    = 4000
	defaultPerClass = 150
	defaultSetups   = 3
	pacedShare      = 0.4
	// maxLateP99Ms is the generator-lateness bound of a valid paced
	// attempt: beyond it the rate was not offered, and the attempt is
	// discarded instead of measured.
	maxLateP99Ms = 20
)

// faults injects one defect per run so the benchmark's tests can show
// that each correctness gate trips.
type faults struct {
	dropFrame    int  // 1-based client write to discard silently
	flipVerdict  bool // change one reference verdict
	truncateCkpt bool // cut the last byte off the flood checkpoint
}

type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	flows    int
	perClass int
	setups   int
	spanDir  string
	faults   faults
	base     time.Time
}

func (c runConfig) pacedSeconds() float64 { return c.seconds * pacedShare }
func (c runConfig) floodSeconds() float64 { return c.seconds * (1 - pacedShare) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	fails []string
	notes []string // human-readable lines printed before the JSON
}

var nan = math.NaN()

func main() {
	var (
		name    = flag.String("workload", "gateway-b4096", "workload name")
		seed    = flag.Int64("seed", 1, "trace seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per run (paced + flood)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spanDir = flag.String("span-dir", filepath.Join(".bench_build", "perfbench-spans"), "where a traced run writes its spans")
	)
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		flows: defaultFlows, perClass: defaultPerClass, setups: defaultSetups,
		spanDir: *spanDir, base: time.Now(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.notes {
		fmt.Println(l)
	}
	for _, f := range res.fails {
		fmt.Fprintln(os.Stderr, "perfbench: GATE FAILED:", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run: set-up (repeated, median reported), the
// paced and flood phases, the reference replay and the gates, and with
// tracing the isolated layer replays.
func run(cfg runConfig) (*result, error) {
	w := cfg.workload
	var timing []string
	lap := time.Now()
	phaseDone := func(name string) {
		timing = append(timing, fmt.Sprintf("%s %.1fs", name, time.Since(lap).Seconds()))
		lap = time.Now()
	}
	in, err := newInput(cfg.flows, cfg.seed)
	if err != nil {
		return nil, err
	}
	phaseDone("input")
	seed := maphash.MakeSeed()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.base)
	}
	n := len(in.base)
	pc := &pacing{scale: float64(n) / w.rate * 1e9 / float64(in.lapSpan)}
	dispatch := &logHist{}
	var pre func(p *packet.Packet)
	if tr != nil {
		pre = func(p *packet.Packet) {
			if !tr.enabled() {
				return
			}
			t := tr.now()
			if pc.current(p.Time) {
				dispatch.observe(t - pc.due(p.Time))
			}
			tr.record(spanPreProcess, uint64(p.Time), 0, t, tr.now())
		}
	}

	// Set-up: train, replicate, build engine and server, listen. Every
	// set-up but the last is torn down unused.
	var setups []float64
	var nd *node
	for k := 0; k < cfg.setups; k++ {
		t := time.Now()
		if nd, err = startNode(w, cfg.perClass, seed, cfg.base, tr, pre); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < cfg.setups-1 {
			if err := nd.shutdown(); err != nil {
				return nil, err
			}
		}
	}

	phaseDone("setup")
	sr, err := serve(cfg, in, nd, pc, tr)
	if err != nil {
		return nil, err
	}
	phaseDone("serve")
	ref, err := reference(nd, in, sr.sent, sr.ckptAt, seed, cfg.base)
	if err != nil {
		return nil, err
	}
	phaseDone("reference")
	if cfg.faults.flipVerdict {
		flipOne(ref.logs)
	}
	if cfg.faults.truncateCkpt && len(sr.ckpt) > 0 {
		sr.ckpt = sr.ckpt[:len(sr.ckpt)-1]
	}
	res := &result{Metrics: map[string]metric{}}
	res.fails = gates(sr, nd, ref)
	labelled, correct, err := flowLabels(in, sr.sent, nd.eng, ref.eng)
	if err != nil {
		res.fails = append(res.fails, "flow verdicts: "+err.Error())
	}
	res.Correct = len(res.fails) == 0
	res.Attempted = sr.sent
	res.Failed = sr.srv.Shed + sr.srv.Quarantined + sr.srv.EngineErrors + (sr.sent - sr.srv.Received)

	phaseDone("gates")
	lat := verdictLatencies(nd, ref, in, pc, sr.pacedLo, sr.pacedHi)
	res.notes = append(res.notes, fmt.Sprintf(
		"workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s paced_pkts=%d paced_attempts=%d flood_pkts=%d verdict_samples=%d classified_flows=%d ckpts=%d gen.late_p99_ms=%.3f",
		w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		sr.pacedHi-sr.pacedLo, sr.pacedDiscarded+1, sr.floodPkts, len(lat), labelled, len(sr.ckptPauses), sr.lateP99))

	floodS := sr.floodWall.Seconds()
	// Every end-to-end metric is printed; the gated ones, which
	// BENCHMARK.json bounds, go into the result. Verdict latency, the
	// checkpoint pause and failed_ratio are not gated (see NOTES.md): the
	// traced run reports the first two without a bound, and failures
	// travel as failed / attempted.
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	e2e := []struct {
		name  string
		value float64
		unit  string
		gated bool
	}{
		{"setup_s", median(setups), "s", true},
		{"flood_pps", float64(sr.floodPkts) / floodS, "1/s", true},
		{"flood_payload_mbps", float64(sr.floodBytes) / floodS / 1e6, "MB/s", true},
		{"verdict_p50_ms", p50, "ms", false},
		{"verdict_p99_ms", p99, "ms", false},
		{"verdict_accuracy", float64(correct) / float64(max(labelled, 1)), "ratio", true},
		{"live_heap_peak_mb", float64(sr.heapPeak) / 1e6, "MB", true},
		{"ckpt_pause_p50_ms", median(sr.ckptPauses), "ms", false},
		{"failed_ratio", float64(res.Failed) / float64(res.Attempted), "ratio", false},
	}
	res.notes = append(res.notes, fmt.Sprintf("flood window pps %.4g; flood cpu_us_per_pkt %.3f",
		sr.floodWin, sr.procCPU*1e6/float64(sr.floodPkts)))
	for _, m := range e2e {
		res.notes = append(res.notes, fmt.Sprintf("%-20s %14.4f %s", m.name, m.value, m.unit))
		if !cfg.trace && m.gated {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	if !cfg.trace {
		res.notes = append(res.notes, "timing: "+strings.Join(timing, ", "))
		return res, nil
	}
	layers, shares, err := perLayer(cfg, in, nd, sr, ref, tr, seed, dispatch, p50, p99)
	if err != nil {
		return nil, err
	}
	for _, m := range layers {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	phaseDone("layers")
	res.notes = append(res.notes, shares...)
	res.notes = append(res.notes, "timing: "+strings.Join(timing, ", "))
	return res, nil
}

// flipOne changes the class of the first reference call.
func flipOne(logs [][]call) {
	for _, l := range logs {
		if len(l) > 0 {
			l[0].class = (l[0].class + 1) % 3
			return
		}
	}
}

// verdictLatencies returns, for every flow classified during the paced
// phase by the packet that completed its b bytes, the time from that
// packet's due time to the return of the flow's classify call, in ms. A
// call that failed counts as +Inf.
func verdictLatencies(n *node, ref *refRun, in *input, pc *pacing, lo, hi int) []float64 {
	var lat []float64
	for s, w := range n.wraps {
		for k, c := range ref.logs[s] {
			if c.at < int64(lo) || c.at >= int64(hi) || k >= len(w.log) {
				continue
			}
			ms := math.Inf(1)
			if w.log[k].class >= 0 {
				ms = float64(w.log[k].at-pc.due(in.packet(int(c.at)).Time)) / 1e6
			}
			lat = append(lat, ms)
		}
	}
	return lat
}
