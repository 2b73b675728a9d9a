package persist_test

// Golden snapshot-compatibility tests. The fixtures under testdata/ are
// version-1 snapshots built from hand-constructed (untrained, fully
// deterministic) artifacts; the tests prove that today's decoders still
// read yesterday's bytes and that today's encoders still produce them.
// A failure here means the wire format changed without a version bump.
//
// Regenerate after an INTENTIONAL format change (bump snapshot version
// first) with:
//
//	go test ./internal/persist -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/flow"
	"iustitia/internal/ingest"
	"iustitia/internal/packet"
	"iustitia/internal/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot fixtures")

// goldenClassifierPayload builds the classifier-snapshot payload for a
// hand-built CART tree: kind, feature widths, model blob.
func goldenClassifierPayload(t testing.TB) []byte {
	tree := fuzzSeedTree()
	blob, err := tree.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var e persist.Encoder
	e.U8(uint8(core.KindCART))
	e.U32(2) // two entropy features
	e.U32(16)
	e.U32(16)
	e.Blob(blob)
	return e.Bytes()
}

// goldenCDBPayload builds a CDB export with three records at fixed
// timestamps.
func goldenCDBPayload(t testing.TB) []byte {
	cdb := flow.NewCDB(flow.CDBConfig{})
	for i := 0; i < 3; i++ {
		var id flow.ID
		id[0] = byte(i + 1)
		cdb.Insert(id, corpus.Class(i%int(corpus.NumClasses)), time.Duration(i+1)*time.Second)
	}
	return cdb.Export()
}

// goldenCheckpointPayload builds an engine checkpoint: fixed counters
// plus the golden CDB.
func goldenCheckpointPayload(t testing.TB) []byte {
	var e persist.Encoder
	e.U32(uint32(corpus.NumClasses))
	for i := 0; i < int(corpus.NumClasses); i++ {
		e.I64(int64(i + 1)) // queued per class
	}
	e.I64(3) // classified
	e.I64(3) // admitted
	e.I64(0) // shed
	e.I64(0) // evicted
	e.I64(0) // dropped
	e.I64(0) // failed
	e.I64(0) // fallback
	e.Blob(goldenCDBPayload(t))
	return e.Bytes()
}

// goldenVecClassifier labels by the first byte of a payload, or by the
// exact h_1 feature of a stream vector: deterministic, untrained, and
// usable by buffered and stream engines alike.
type goldenVecClassifier struct{}

func (goldenVecClassifier) FeatureWidths() []int { return []int{1, 3} }

func (goldenVecClassifier) Classify(p []byte) (corpus.Class, error) {
	return corpus.Class(int(p[0]) % int(corpus.NumClasses)), nil
}

func (goldenVecClassifier) ClassifyVector(vec []float64) (corpus.Class, error) {
	if vec[0] < 0.5 {
		return corpus.Text, nil
	}
	return corpus.Encrypted, nil
}

// Geometry of the two flow-state fixtures: b bytes buffered per flow, and
// a mix of flows that complete their buffer (CDB records) and flows left
// mid-buffer (pending state).
const (
	goldenB        = 48
	goldenDone     = 3
	goldenPartial  = 4
	goldenShards   = 2
	goldenStreamEp = 0.3
)

func goldenTuple(port uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{192, 168, 0, 1},
		SrcPort: port, DstPort: 80, Transport: packet.TCP,
	}
}

// goldenPayload is a deterministic, flow-specific byte pattern.
func goldenPayload(flow, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(flow*37 + i*i*13 + i)
	}
	return p
}

// feedGoldenFlows drives goldenDone flows through their full buffer and
// goldenPartial flows to a flow-specific fraction of it.
func feedGoldenFlows(t testing.TB, pe *flow.ParallelEngine) {
	for i := 0; i < goldenDone+goldenPartial; i++ {
		n := goldenB
		if i >= goldenDone {
			n = 5 + 7*(i-goldenDone)
		}
		payload := goldenPayload(i, n)
		for off, pkt := 0, 0; off < n; pkt++ {
			end := off + 16
			if end > n {
				end = n
			}
			p := &packet.Packet{
				Tuple: goldenTuple(uint16(4000 + i)), Time: time.Duration(i*100+pkt) * time.Millisecond,
				Flags: packet.FlagACK, Payload: payload[off:end],
			}
			if _, err := pe.Process(p); err != nil {
				t.Fatal(err)
			}
			off = end
		}
	}
}

// goldenStreamEngine builds the 2-shard stream-cc engine behind the node
// checkpoint fixture.
func goldenStreamEngine(t testing.TB) *flow.ParallelEngine {
	pe, err := flow.NewParallelEngine(flow.EngineConfig{
		BufferSize: goldenB,
		Classifier: goldenVecClassifier{},
		Stream: &flow.StreamConfig{
			Epsilon: goldenStreamEp, Delta: goldenStreamEp, Sketch: entest.SketchCC, Seed: 7,
		},
	}, goldenShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// goldenNodeCheckpointPayload is a node checkpoint of a stream-cc engine
// holding mid-buffer flows: watermark, engine checkpoint, and every
// pending flow's sketch state.
func goldenNodeCheckpointPayload(t testing.TB) []byte {
	pe := goldenStreamEngine(t)
	feedGoldenFlows(t, pe)
	return ingest.EncodeNodeCheckpoint(42, pe.ExportCheckpoint(), pe.ExportPending())
}

// goldenBufferedEngine builds the 2-shard buffered, header-stripping
// engine behind the migration fixture.
func goldenBufferedEngine(t testing.TB) *flow.ParallelEngine {
	pe, err := flow.NewParallelEngine(flow.EngineConfig{
		BufferSize:        goldenB,
		Classifier:        goldenVecClassifier{},
		StripKnownHeaders: true,
	}, goldenShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// goldenHTTPFlow is a flow whose HTTP header has not finished in its
// first packet, so its pending state carries an open header tail.
const goldenHTTPFlow = 4100

// goldenMigrationPayload is a migration export of every flow of a
// buffered engine: finished flows as CDB records, mid-buffer flows with
// their payload prefixes, and one flow still inside an HTTP header.
func goldenMigrationPayload(t testing.TB) []byte {
	pe := goldenBufferedEngine(t)
	feedGoldenFlows(t, pe)
	p := &packet.Packet{
		Tuple: goldenTuple(goldenHTTPFlow), Time: time.Second, Flags: packet.FlagACK,
		Payload: []byte("HTTP/1.1 200 OK\r\nServer: golden\r\nContent-Type: app"),
	}
	if _, err := pe.Process(p); err != nil {
		t.Fatal(err)
	}
	return pe.ExportFlows(func(flow.ID) bool { return true })
}

func goldenFixtures(t testing.TB) map[string]struct {
	kind    persist.Kind
	payload []byte
} {
	return map[string]struct {
		kind    persist.Kind
		payload []byte
	}{
		"classifier_v1.snap":      {persist.KindClassifier, goldenClassifierPayload(t)},
		"cdb_v1.snap":             {persist.KindCDB, goldenCDBPayload(t)},
		"checkpoint_v1.snap":      {persist.KindCheckpoint, goldenCheckpointPayload(t)},
		"node_checkpoint_v1.snap": {persist.KindNodeCheckpoint, goldenNodeCheckpointPayload(t)},
		"migration_v1.snap":       {persist.KindMigration, goldenMigrationPayload(t)},
	}
}

// TestGoldenSnapshotBytes proves encoder stability: regenerating each
// artifact reproduces the checked-in fixture byte for byte.
func TestGoldenSnapshotBytes(t *testing.T) {
	for name, want := range goldenFixtures(t) {
		path := filepath.Join("testdata", name)
		frame := persist.Encode(want.kind, want.payload)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(frame))
			continue
		}
		fixture, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run with -update to generate): %v", path, err)
		}
		if string(fixture) != string(frame) {
			t.Errorf("%s: regenerated frame differs from fixture — wire format changed without a version bump", name)
		}
	}
}

// TestGoldenSnapshotDecodes proves decoder compatibility: every fixture
// still decodes into a usable artifact with the expected semantics.
func TestGoldenSnapshotDecodes(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	load := func(name string, kind persist.Kind) []byte {
		payload, err := persist.LoadFile(filepath.Join("testdata", name), kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return payload
	}

	c, err := core.DecodeSnapshot(load("classifier_v1.snap", persist.KindClassifier))
	if err != nil {
		t.Fatalf("classifier: %v", err)
	}
	tree := fuzzSeedTree()
	for _, features := range [][]float64{{0.2, 0.9}, {0.8, 0.1}} {
		want, err := tree.Predict(features)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ClassifyVector(features)
		if err != nil {
			t.Fatalf("classifier predict: %v", err)
		}
		if int(got) != want {
			t.Errorf("golden classifier predicts %v for %v, want %v", got, features, want)
		}
	}

	cdb := flow.NewCDB(flow.CDBConfig{})
	if err := cdb.Import(load("cdb_v1.snap", persist.KindCDB)); err != nil {
		t.Fatalf("cdb: %v", err)
	}
	if cdb.Size() != 3 {
		t.Errorf("golden CDB has %d records, want 3", cdb.Size())
	}
	for i := 0; i < 3; i++ {
		var id flow.ID
		id[0] = byte(i + 1)
		label, ok := cdb.Lookup(id, 10*time.Second)
		if !ok || label != corpus.Class(i%int(corpus.NumClasses)) {
			t.Errorf("golden CDB record %d: (%v,%v)", i, label, ok)
		}
	}

	engine, err := flow.NewEngine(flow.EngineConfig{
		BufferSize: 8,
		Classifier: flow.ClassifierFunc(func([]byte) (corpus.Class, error) {
			return corpus.Text, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.ImportCheckpoint(load("checkpoint_v1.snap", persist.KindCheckpoint)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s := engine.Stats()
	if s.Classified != 3 || s.Admitted != 3 || s.CDB.Size != 3 {
		t.Errorf("golden checkpoint restores Classified=%d Admitted=%d CDB=%d, want 3/3/3",
			s.Classified, s.Admitted, s.CDB.Size)
	}

	seq, engineCkpt, pendingBlob, err := ingest.DecodeNodeCheckpoint(load("node_checkpoint_v1.snap", persist.KindNodeCheckpoint))
	if err != nil {
		t.Fatalf("node checkpoint: %v", err)
	}
	if seq != 42 {
		t.Errorf("golden node checkpoint watermark %d, want 42", seq)
	}
	stream := goldenStreamEngine(t)
	if err := stream.ImportCheckpoint(engineCkpt); err != nil {
		t.Fatalf("node checkpoint engine: %v", err)
	}
	n, err := stream.ImportPending(pendingBlob)
	if err != nil {
		t.Fatalf("node checkpoint pending: %v", err)
	}
	ss := stream.Stats()
	assertGoldenConservation(t, "node checkpoint", ss)
	if n != goldenPartial || ss.Pending != goldenPartial || ss.Classified != goldenDone || ss.CDB.Size != goldenDone {
		t.Errorf("golden node checkpoint restores %d pending (stats %d), Classified=%d CDB=%d, want %d/%d/%d",
			n, ss.Pending, ss.Classified, ss.CDB.Size, goldenPartial, goldenDone, goldenDone)
	}
	// The restored sketches finish their flows: topping every pending
	// flow up to b classifies it.
	if _, err := stream.FlushAll(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ss := stream.Stats(); ss.Pending != 0 || ss.Classified != goldenDone+goldenPartial {
		t.Errorf("golden node checkpoint flush: Pending=%d Classified=%d, want 0/%d", ss.Pending, ss.Classified, goldenDone+goldenPartial)
	}

	buffered := goldenBufferedEngine(t)
	moved, err := buffered.ImportFlows(load("migration_v1.snap", persist.KindMigration))
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	ms := buffered.Stats()
	assertGoldenConservation(t, "migration", ms)
	if wantPending := goldenPartial + 1; moved != wantPending+goldenDone || ms.Pending != wantPending || ms.CDB.Size != goldenDone {
		t.Errorf("golden migration installs %d (Pending=%d CDB=%d), want %d/%d/%d",
			moved, ms.Pending, ms.CDB.Size, wantPending+goldenDone, wantPending, goldenDone)
	}
	// The open HTTP header tail survived: the terminator arriving in the
	// next packet strips the header, and the content after it buffers.
	p := &packet.Packet{
		Tuple: goldenTuple(goldenHTTPFlow), Time: 2 * time.Second, Flags: packet.FlagACK,
		Payload: append([]byte("lication/octet-stream\r\n\r\n"), goldenPayload(9, goldenB)...),
	}
	v, err := buffered.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := (goldenVecClassifier{}).Classify(goldenPayload(9, goldenB)); !v.Classified || v.Queue != want {
		t.Errorf("golden migration HTTP flow verdict %+v, want classified as %v on content", v, want)
	}
}

func assertGoldenConservation(t *testing.T, name string, s flow.EngineStats) {
	t.Helper()
	if s.Admitted != s.Classified+s.Fallback+s.Dropped+s.Pending {
		t.Errorf("golden %s: admitted %d != classified %d + fallback %d + dropped %d + pending %d",
			name, s.Admitted, s.Classified, s.Fallback, s.Dropped, s.Pending)
	}
}
