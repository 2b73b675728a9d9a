package flow

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iustitia/internal/entest"
	"iustitia/internal/packet"
)

// exportShards and exportWidths are the serve shape of the pending-export
// tests and benchmarks: four shards, the CART feature set φ′_CART.
const exportShards = 4

var exportWidths = []int{1, 3, 4, 5}

// newExportEngine builds a 4-shard engine at buffer size b — stream mode
// with the cc sketch when stream is set — with one classifier per shard so
// concurrent shards share no classifier state. FIN purges a flow's CDB
// record, as in serve, so a closed flow's tuple can open a new flow.
func newExportEngine(tb testing.TB, b int, stream bool) *ParallelEngine {
	tb.Helper()
	clfs := make([]Classifier, exportShards)
	for i := range clfs {
		clfs[i] = &entropyVecClassifier{widths: exportWidths}
	}
	cfg := EngineConfig{BufferSize: b, CDB: CDBConfig{PurgeOnClose: true}}
	if stream {
		cfg.Stream = &StreamConfig{Epsilon: 0.25, Delta: 0.25, Sketch: entest.SketchCC, Seed: 3}
	}
	pe, err := NewParallelEngine(cfg, exportShards, clfs)
	if err != nil {
		tb.Fatal(err)
	}
	return pe
}

// fillPending leaves flows pending flows on pe, each holding fill payload
// bytes (fill must be below the engine's b).
func fillPending(tb testing.TB, pe *ParallelEngine, flows, fill int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(flows)))
	payload := make([]byte, fill)
	for i := 0; i < flows; i++ {
		rng.Read(payload)
		tp := tuple(uint16(i), packet.TCP)
		tp.SrcIP[2] = byte(i >> 16)
		p := &packet.Packet{Tuple: tp, Time: time.Duration(i) * time.Microsecond, Flags: packet.FlagACK, Payload: payload}
		if _, err := pe.Process(p); err != nil {
			tb.Fatal(err)
		}
	}
	if got := pe.Stats().Pending; got != flows {
		tb.Fatalf("%d flows pending, want %d", got, flows)
	}
}

// TestExportPendingAllocs is the alloc gate for node checkpoints: the
// pending export writes every flow's state straight into one buffer, so
// its allocations do not grow with the number of pending flows.
func TestExportPendingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	counts := map[int]float64{}
	for _, flows := range []int{100, 1000} {
		pe := newExportEngine(t, 4096, true)
		fillPending(t, pe, flows, 64)
		counts[flows] = testing.AllocsPerRun(5, func() { _ = pe.ExportPending() })
		if counts[flows] > 32 {
			t.Errorf("ExportPending allocs/op = %v at %d pending stream-cc flows, want <= 32", counts[flows], flows)
		}
	}
	if counts[1000] > counts[100]+4 {
		t.Errorf("ExportPending allocs/op grows with flows: %v at 100, %v at 1000 (want at most +4)", counts[100], counts[1000])
	}
}

// ExportPending holds every shard lock at once (in shard-index order);
// while it runs in a loop, four goroutines drive ProcessBatch, one per
// shard. Every export must decode into a fresh engine with conservation
// intact, and nothing may deadlock. Run under -race.
func TestExportPendingConcurrentWithBatches(t *testing.T) {
	const b = 256
	src := newExportEngine(t, b, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for s := 0; s < exportShards; s++ {
		// The flows this goroutine drives all route to shard s.
		var tuples []packet.FiveTuple
		for port := 0; len(tuples) < 32; port++ {
			tp := tuple(uint16(port), packet.TCP)
			if IDOf(tp).Route(exportShards) == s {
				tuples = append(tuples, tp)
			}
		}
		wg.Add(1)
		go func(s int, tuples []packet.FiveTuple) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			batch := make([]*packet.Packet, 16)
			for next := 0; ; next++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					// Round-robin over the tuples, so every flow is pending
					// at once. Each flow gets four data packets, then a FIN
					// that retires it (purging its CDB record), and the
					// next pass opens fresh flows on the same tuples.
					pos := next*len(batch) + i
					tp := tuples[pos%len(tuples)]
					p := &packet.Packet{Tuple: tp, Time: time.Duration(next) * time.Millisecond, Flags: packet.FlagACK}
					if pos/len(tuples)%5 == 4 {
						p.Flags = packet.FlagFIN
					} else {
						p.Payload = make([]byte, 1+rng.Intn(96))
						rng.Read(p.Payload)
					}
					batch[i] = p
				}
				if _, err := src.ProcessBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(s, tuples)
	}
	carried := 0
	for i := 0; i < 20; i++ {
		blob := src.ExportPending()
		dst := newExportEngine(t, b, true)
		n, err := dst.ImportPending(blob)
		if err != nil {
			t.Fatalf("export %d: ImportPending: %v", i, err)
		}
		carried += n
		s := dst.Stats()
		if s.Pending != n {
			t.Fatalf("export %d: imported %d flows, %d pending", i, n, s.Pending)
		}
		assertConservation(t, s)
		// Flushing retires every restored flow. One too short for its
		// widest feature fails classification and is dropped, which the
		// flush reports as an error; the law must hold either way.
		_, _ = dst.FlushAll(time.Hour)
		if s := dst.Stats(); s.Pending != 0 {
			t.Fatalf("export %d: %d flows still pending after flush", i, s.Pending)
		}
		assertConservation(t, dst.Stats())
	}
	halt()
	if carried == 0 {
		t.Fatal("no export carried a pending flow")
	}
	t.Logf("20 exports carried %d pending flows", carried)
	assertConservation(t, src.Stats())
}

var exportSink []byte

// BenchmarkExportPending times the pending section of a node checkpoint
// at the serve shape: 4 shards, b = 4096, φ′_CART, ~4k pending flows half
// way through their buffers, in stream-cc and buffered mode.
func BenchmarkExportPending(b *testing.B) {
	const flows, bsize = 4096, 4096
	for _, mode := range []struct {
		name   string
		stream bool
	}{{"stream-cc", true}, {"buffered", false}} {
		b.Run(fmt.Sprintf("%s/flows%d", mode.name, flows), func(b *testing.B) {
			pe := newExportEngine(b, bsize, mode.stream)
			fillPending(b, pe, flows, bsize/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exportSink = pe.ExportPending()
			}
			b.SetBytes(int64(len(exportSink)))
		})
	}
}
