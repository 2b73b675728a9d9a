package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/packet"
)

// iustitia-serve's defaults: the node under test is configured exactly
// as `iustitia-serve -b <b> [-stream -sketch cc]` would configure it.
const (
	serveShards     = 4
	serveWorkers    = 2
	serveIdleFlush  = 2 * time.Second
	serveQueueDepth = 1024
	serveConnQueue  = 256
	serveEpsilon    = 0.25
	serveDelta      = 0.25
)

// trainSeed fixes the training corpus: the model is part of the program
// under test, not of the workload, so every seed is served by the same
// model and only the trace varies.
const trainSeed = 9

// engineConfig is iustitia-serve's engine configuration for a workload.
func engineConfig(w workload, clf *core.Classifier) flow.EngineConfig {
	cfg := flow.EngineConfig{
		BufferSize:    w.b,
		Classifier:    clf,
		IdleFlush:     serveIdleFlush,
		FallbackClass: corpus.Text,
		Faults:        flow.FaultPolicy{Tolerate: true},
		CDB: flow.CDBConfig{
			PurgeOnClose:  true,
			PurgeInactive: true,
			N:             4,
		},
	}
	if w.stream {
		cfg.Stream = &flow.StreamConfig{Epsilon: serveEpsilon, Delta: serveDelta, Sketch: entest.SketchCC}
	}
	return cfg
}

// train builds the workload's CART φ′ model at its own b.
func train(w workload, perClass int) (*core.Classifier, error) {
	files, err := corpus.NewGenerator(trainSeed).Pool(perClass, 256, 16<<10)
	if err != nil {
		return nil, err
	}
	return core.Train(files, core.TrainConfig{
		Kind: core.KindCART,
		Dataset: core.DatasetConfig{
			Widths: core.PhiPrimeCART, Method: core.MethodPrefix, BufferSize: w.b,
		},
	})
}

// shardClassifiers wraps one replica per shard of a fresh replica set.
func shardClassifiers(clf *core.Classifier, seed maphash.Seed, base time.Time, tr *tracer) ([]*timedClassifier, []flow.Classifier, error) {
	rs, err := core.NewReplicaSet(clf, serveShards)
	if err != nil {
		return nil, nil, err
	}
	wraps := make([]*timedClassifier, serveShards)
	clfs := make([]flow.Classifier, serveShards)
	for i := range wraps {
		wraps[i] = &timedClassifier{inner: rs.Replica(i), seed: seed, base: base, tr: tr}
		clfs[i] = wraps[i]
	}
	return wraps, clfs, nil
}

// node is one in-process serving node: model, replica set, engine and
// ingest server listening on loopback.
type node struct {
	clf   *core.Classifier
	cfg   flow.EngineConfig
	eng   *flow.ParallelEngine
	srv   *ingest.Server
	addr  string
	wraps []*timedClassifier

	ckptMu sync.Mutex
	ckpt   []byte // the last payload handed to the NodeCheckpoint hook
}

// startNode performs one set-up: it trains the model and returns once the
// server accepts frames. The checkpoint hook keeps the payload in memory
// and does no disk I/O.
func startNode(w workload, perClass int, seed maphash.Seed, base time.Time, tr *tracer, pre func(*packet.Packet)) (*node, error) {
	clf, err := train(w, perClass)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	n := &node{clf: clf, cfg: engineConfig(w, clf)}
	var clfs []flow.Classifier
	n.wraps, clfs, err = shardClassifiers(clf, seed, base, tr)
	if err != nil {
		return nil, err
	}
	if n.eng, err = flow.NewParallelEngine(n.cfg, serveShards, clfs); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.addr = ln.Addr().String()
	n.srv, err = ingest.NewServer(ingest.Config{
		Engine:        n.eng,
		Listeners:     []net.Listener{ln},
		Workers:       serveWorkers,
		QueueDepth:    serveQueueDepth,
		PerConnQueue:  serveConnQueue,
		Overflow:      ingest.OverflowBlock,
		FallbackClass: corpus.Text,
		ReadTimeout:   30 * time.Second,
		IdleTimeout:   5 * time.Minute,
		PreProcess:    pre,
		NodeCheckpoint: func(payload []byte) error {
			n.ckptMu.Lock()
			n.ckpt = payload
			n.ckptMu.Unlock()
			return nil
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	if err := n.srv.Start(); err != nil {
		ln.Close()
		return nil, err
	}
	return n, nil
}

func (n *node) lastCheckpoint() []byte {
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	return n.ckpt
}

func (n *node) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return n.srv.Shutdown(ctx)
}

// pacing maps a packet's virtual time to the wall time it is due: the
// trace's own timestamps, compressed so the lap sequence is offered at a
// fixed packet rate. Each paced attempt restarts the clock; the fields are
// atomic because the server's workers read them from the PreProcess hook.
type pacing struct {
	scale  float64      // wall ns per virtual ns
	origin atomic.Int64 // wall ns (since the run's base) of virtual time 0
	lo, hi atomic.Int64 // virtual time span of the current attempt
}

// start begins an attempt over virtual times [lo, hi), with lo due at
// wall time at (since the run's base).
func (pc *pacing) start(lo, hi, at time.Duration) {
	pc.origin.Store(int64(at) - int64(float64(lo)*pc.scale))
	pc.lo.Store(int64(lo))
	pc.hi.Store(int64(hi))
}

// current reports whether a packet belongs to the current attempt.
func (pc *pacing) current(virtual time.Duration) bool {
	return int64(virtual) >= pc.lo.Load() && int64(virtual) < pc.hi.Load()
}

func (pc *pacing) due(virtual time.Duration) int64 {
	return pc.origin.Load() + int64(float64(virtual)*pc.scale)
}

// serveRun is everything measured on the serve path.
type serveRun struct {
	// The measured paced attempt sent packets [pacedLo, pacedHi); earlier
	// attempts were discarded as invalid.
	pacedLo, pacedHi, pacedDiscarded int
	sent                             int

	late     []float64 // per measured paced packet, ms behind its due time
	lateP99  float64
	heapPeak uint64
	// Peaks of the engine's pending flows and CDB records over the run.
	pendingPeak, cdbPeak int
	qdPaced              []float64
	qdFloodMax           int

	floodWall  time.Duration // first flood send to Shutdown return
	floodPkts  int
	floodBytes int
	drain      time.Duration
	ckptPauses []float64 // ms
	ckpt       []byte    // last flood-phase node checkpoint
	ckptAt     int       // packets that checkpoint covers

	allocBytes, allocs, gcCPU, cpuTotal float64 // flood-phase deltas
	procCPU                             float64 // getrusage seconds, flood phase

	// floodWin is the send rate of each of the flood phase's windows; in
	// the traced run odd windows are traced and even ones are not.
	floodWin []float64

	client ingest.ClientStats
	srv    ingest.Stats
	eng    flow.EngineStats
}

// dropConn silently discards one write — the fault a lossy transport
// would inject — while reporting it delivered.
type dropConn struct {
	net.Conn
	writes, drop int
}

func (c *dropConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.drop {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// floodWindows is how many windows of equal packet count the flood phase
// is timed in; a traced run alternates tracing off and on across them to
// measure its own overhead.
const floodWindows = 8

// serve drives the paced and flood phases over one client connection,
// then drains the server.
func serve(cfg runConfig, in *input, n *node, pc *pacing, tr *tracer) (*serveRun, error) {
	r := &serveRun{}
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", n.addr)
		if err != nil || cfg.faults.dropFrame == 0 {
			return c, err
		}
		return &dropConn{Conn: c, drop: cfg.faults.dropFrame}, nil
	}
	client, err := ingest.NewClient(ingest.ClientConfig{Dial: dial})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	// The sampler reads queue depth every millisecond and the live heap
	// every ten during the paced phase, the queue-depth peak during the
	// flood phase, and the engine's pending and CDB peaks throughout. The
	// paced phase's state peaks at its end, where a forced GC reads the
	// live heap once more.
	var phase atomic.Int32 // 1 paced, 2 flood
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			depth, _ := n.srv.QueueDepth()
			es := n.eng.Stats()
			r.pendingPeak = max(r.pendingPeak, es.Pending)
			r.cdbPeak = max(r.cdbPeak, es.CDB.Size)
			switch phase.Load() {
			case 1:
				r.qdPaced = append(r.qdPaced, float64(depth))
				if k%10 == 0 {
					metrics.Read(heap)
					if v := heap[0].Value.Uint64(); v > r.heapPeak {
						r.heapPeak = v
					}
				}
			case 2:
				r.qdFloodMax = max(r.qdFloodMax, depth)
			}
		}
	}()
	stopSampler := func() {
		if stop != nil {
			close(stop)
			<-sampled
			stop = nil
		}
	}
	defer stopSampler()

	send := func(p *packet.Packet) error {
		if !tr.enabled() {
			return client.Send(p)
		}
		t0 := tr.now()
		err := client.Send(p)
		tr.record(spanSend, uint64(p.Time), 0, t0, tr.now())
		return err
	}

	// A GC first, so no heap reading in the paced phase still counts the
	// set-ups' training data as live.
	runtime.GC()
	phase.Store(1)
	if err := paced(cfg, in, pc, send, r); err != nil {
		return nil, err
	}

	// Flood phase: send a fixed number of packets as fast as block
	// backpressure admits, with a quiesced node checkpoint every ckptEvery
	// packets. The work is fixed, not the time, so every run of a seed
	// checkpoints the same states and drains the same pending flows.
	// Before each checkpoint the generator waits until the server has read
	// every sent frame, so the checkpoint covers exactly the packets sent
	// so far and can be compared with the reference replay at that cut.
	phase.Store(2)
	before := readCounters()
	heapAtPacedEnd := before.liveHeap
	r.floodPkts = floodPackets(cfg)
	end := r.pacedHi + r.floodPkts
	if (end-1)/len(in.base) >= maxLaps {
		return nil, errors.New("flood runs past the lap limit")
	}
	winPkts := (r.floodPkts + floodWindows - 1) / floodWindows
	// A window's rate leaves out its checkpoint pauses: they fall in some
	// windows and not others, and would swamp the tracing overhead the
	// windows are compared for.
	var winStart time.Time
	var winPause time.Duration
	closeWindow := func(sent int) {
		r.floodWin = append(r.floodWin, float64(sent)/(time.Since(winStart)-winPause).Seconds())
	}
	start := time.Now()
	for i := r.pacedHi; i < end; i++ {
		if k := i - r.pacedHi; k%winPkts == 0 {
			if k > 0 {
				closeWindow(winPkts)
			}
			winStart, winPause = time.Now(), 0
			if tr != nil {
				tr.on.Store((k/winPkts)%2 == 1)
			}
		}
		p := in.packet(i)
		if err := send(&p); err != nil {
			return nil, fmt.Errorf("flood send %d: %w", i, err)
		}
		r.floodBytes += len(p.Payload)
		if (i+1-r.pacedHi)%cfg.workload.ckptEvery == 0 {
			t := time.Now()
			if err := checkpoint(n, tr, i+1, r); err != nil {
				return nil, err
			}
			winPause += time.Since(t)
		}
	}
	closeWindow(r.floodPkts - len(r.floodWin)*winPkts)
	if tr != nil {
		tr.on.Store(true)
	}
	r.sent = end
	if err := client.Close(); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := n.shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	r.drain = time.Since(t)
	r.floodWall = time.Since(start)
	after := readCounters()
	stopSampler()
	r.heapPeak = max(r.heapPeak, heapAtPacedEnd)

	r.allocBytes = after.allocBytes - before.allocBytes
	r.allocs = after.allocs - before.allocs
	r.gcCPU = after.gcCPU - before.gcCPU
	r.cpuTotal = after.cpuTotal - before.cpuTotal
	r.procCPU = after.rusage - before.rusage
	r.client = client.Stats()
	r.srv = n.srv.Stats()
	r.eng = n.eng.Stats()
	return r, nil
}

// preciseSleeper pins the calling goroutine to its OS thread, sets that
// thread's timer slack to 1 ns, and returns a sleep that blocks the thread
// in nanosleep. The runtime's own timers wake no finer than the netpoller's
// millisecond, which would make the generator, not the server, dominate
// every paced latency. The caller calls runtime.UnlockOSThread when done.
func preciseSleeper() func(time.Duration) {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: default slack is 50µs
	return func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just sends early by the remainder
	}
}

// paced runs the paced phase: an open loop. Each packet waits for its due
// time and is sent late if the generator fell behind; latency counts from
// due. An attempt whose generator ran later than maxLateP99Ms at p99 did
// not offer the paced rate: it is discarded unmeasured and the next laps
// are paced again, up to pacedAttempts times.
func paced(cfg runConfig, in *input, pc *pacing, send func(*packet.Packet) error, r *serveRun) error {
	sleep := preciseSleeper()
	defer runtime.UnlockOSThread()
	n := pacedPackets(cfg, in)
	for ; r.pacedDiscarded < pacedAttempts; r.pacedDiscarded++ {
		r.pacedLo, r.pacedHi = r.pacedHi, r.pacedHi+n
		pc.start(in.packet(r.pacedLo).Time, in.packet(r.pacedHi).Time, time.Since(cfg.base)+5*time.Millisecond)
		r.late = make([]float64, n)
		for i := r.pacedLo; i < r.pacedHi; i++ {
			p := in.packet(i)
			due := pc.due(p.Time)
			if d := due - int64(time.Since(cfg.base)); d > 0 {
				sleep(time.Duration(d))
			}
			r.late[i-r.pacedLo] = float64(int64(time.Since(cfg.base))-due) / 1e6
			if err := send(&p); err != nil {
				return fmt.Errorf("paced send %d: %w", i, err)
			}
		}
		if r.lateP99 = quantile(r.late, 0.99); r.lateP99 <= maxLateP99Ms {
			return nil
		}
	}
	return fmt.Errorf("invalid run: paced generator p99 lateness %.2f ms exceeded %d ms on all %d attempts",
		r.lateP99, maxLateP99Ms, pacedAttempts)
}

// checkpoint waits until the server has read all sent frames and its
// worker queues are empty (or that stops progressing: a lost frame fails
// the delivery gate, not the run), then runs one quiesced node checkpoint
// and keeps its payload. Starting from empty queues makes the pause
// measure the checkpoint itself rather than however much work happened
// to be queued.
func checkpoint(n *node, tr *tracer, sent int, r *serveRun) error {
	last, stalled := -1, time.Now()
	for {
		got := n.srv.Stats().Received
		depth, _ := n.srv.QueueDepth()
		if got >= sent && depth == 0 || time.Since(stalled) > time.Second {
			break
		}
		if progress := got - depth; progress != last {
			last, stalled = progress, time.Now()
		}
		time.Sleep(50 * time.Microsecond)
	}
	t0 := time.Now()
	err := n.srv.CheckpointNow()
	pause := time.Since(t0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if tr.enabled() {
		end := tr.now()
		tr.record(spanCheckpoint, uint64(sent), 0, end-int64(pause), end)
	}
	r.ckptPauses = append(r.ckptPauses, float64(pause)/1e6)
	r.ckpt, r.ckptAt = n.lastCheckpoint(), sent
	return nil
}

// floodPackets is the flood phase's fixed work: its share of the run's
// seconds at the workload's nominal flood rate.
func floodPackets(cfg runConfig) int {
	return int(cfg.floodSeconds() * cfg.workload.floodRate)
}

// pacedAttempts bounds how often an invalid paced phase is retried.
const pacedAttempts = 3

// pacedPackets is one paced attempt's length: whole laps, so every paced
// flow is complete before the next attempt or the flood begins.
func pacedPackets(cfg runConfig, in *input) int {
	laps := int(cfg.pacedSeconds()*cfg.workload.rate/float64(len(in.base)) + 0.5)
	return max(laps, 1) * len(in.base)
}

// counters is a snapshot of the process's allocation and CPU counters,
// and of the live heap right after a forced GC.
type counters struct {
	allocBytes, allocs, gcCPU, cpuTotal, rusage float64
	liveHeap                                    uint64
}

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	runtime.GC() // refreshes the cpu-class estimates and the live heap
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return counters{
		allocBytes: float64(s[0].Value.Uint64()),
		allocs:     float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		cpuTotal:   s[3].Value.Float64(),
		rusage:     tv(ru.Utime) + tv(ru.Stime),
		liveHeap:   s[4].Value.Uint64(),
	}
}
