package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shrunk is a workload cut down to run in about a second: a small trace,
// a small training corpus, one set-up, a low paced rate (so the run stays
// valid under the race detector) and frequent flood checkpoints.
func shrunk(w workload, trace bool) runConfig {
	w.rate = 4000
	w.floodRate = 8000
	w.ckptEvery = 3000
	return runConfig{
		workload: w, seed: 3, seconds: 1.5, trace: trace,
		flows: 200, perClass: 20, setups: 1,
		spanDir: "", base: time.Now(),
	}
}

type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsEmitEveryMetric runs every workload, shrunk, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, each with its unit, and passes every gate.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			name := w.name + "/untraced"
			if traced {
				want, name = c.PerLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := shrunk(w, traced)
				cfg.spanDir = t.TempDir()
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d fails=%v", res.Correct, res.Attempted, res.Failed, res.fails)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not encode (NaN metric?): %v", err)
				}
			})
		}
	}
}

// TestGatesTrip injects one fault per run and checks that the matching
// correctness gate fails the run.
func TestGatesTrip(t *testing.T) {
	cases := []struct {
		name   string
		faults faults
		gate   string
	}{
		{"dropped packet", faults{dropFrame: 10}, "delivery:"},
		{"flipped reference verdict", faults{flipVerdict: true}, "verdicts:"},
		{"truncated checkpoint", faults{truncateCkpt: true}, "checkpoint:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shrunk(workloads[0], false)
			cfg.faults = tc.faults
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("run reported correct despite the injected fault")
			}
			found := false
			for _, f := range res.fails {
				found = found || strings.HasPrefix(f, tc.gate)
			}
			if !found {
				t.Errorf("no %q gate failure among %q", tc.gate, res.fails)
			}
		})
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h logHist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); got < want || got > want*(1+1.0/16) {
			t.Errorf("q%.2f = %v, want within 1/16 above %v", q, got, want)
		}
	}
}
