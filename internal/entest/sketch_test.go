package entest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iustitia/internal/corpus"
	"iustitia/internal/entropy"
	"iustitia/internal/persist"
)

// exactS computes S_k = Σ m_ik·log2(m_ik) exactly with a hash map, the
// ground truth the sketches approximate.
func exactS(data []byte, k int) float64 {
	counts := make(map[string]int)
	for i := 0; i+k <= len(data); i++ {
		counts[string(data[i:i+k])]++
	}
	var s float64
	for _, c := range counts {
		if c > 1 {
			s += float64(c) * math.Log2(float64(c))
		}
	}
	return s
}

func TestSketchKindParse(t *testing.T) {
	for _, kind := range []SketchKind{SketchLall, SketchCC} {
		got, err := ParseSketchKind(kind.String())
		if err != nil || got != kind {
			t.Fatalf("ParseSketchKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseSketchKind("bogus"); err == nil {
		t.Fatal("ParseSketchKind accepted an unknown kind")
	}
}

func TestNewSketchKinds(t *testing.T) {
	s, err := NewSketch(SketchLall, 0.3, 0.3, 3, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*StreamEstimator); !ok {
		t.Fatalf("SketchLall built %T", s)
	}
	c, err := NewSketch(SketchCC, 0.3, 0.3, 3, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*CCSketch); !ok {
		t.Fatalf("SketchCC built %T", c)
	}
	if s.Counters() != c.Counters() {
		t.Fatalf("backends not counter-comparable: lall %d, cc %d", s.Counters(), c.Counters())
	}
	if _, err := NewSketch(SketchKind(99), 0.3, 0.3, 3, 256, 1); err == nil {
		t.Fatal("NewSketch accepted an unknown kind")
	}
}

// The CC sketch is deterministic: byte-at-a-time writes must land in the
// same buckets as one whole write, across all three window modes.
func TestCCChunkedMatchesWhole(t *testing.T) {
	data := make([]byte, 600)
	rand.New(rand.NewSource(7)).Read(data)
	for _, k := range []int{2, 8, 9, 16, 17, 20} {
		whole, err := NewCC(0.3, 0.3, k, len(data), 11)
		if err != nil {
			t.Fatal(err)
		}
		whole.Write(data)
		chunked, err := NewCC(0.3, 0.3, k, len(data), 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			chunked.Write([]byte{b})
		}
		if whole.EstimateS() != chunked.EstimateS() || whole.Elements() != chunked.Elements() {
			t.Fatalf("k=%d: whole S=%v n=%d, chunked S=%v n=%d",
				k, whole.EstimateS(), whole.Elements(), chunked.EstimateS(), chunked.Elements())
		}
	}
}

// A constant stream has one distinct element, so no row can suffer a
// collision: every row holds exactly n in one bucket and the min-row
// estimate is n·log2(n), the exact S.
func TestCCConstantStream(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 300)
	c, err := NewCC(0.3, 0.3, 3, len(data), 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(data)
	n := float64(len(data) - 2)
	want := n * math.Log2(n)
	if got := c.EstimateS(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("constant stream: S = %v, want %v", got, want)
	}
	if h := c.EstimateH(); h > 1e-9 {
		t.Fatalf("constant stream: h = %v, want ~0", h)
	}
}

// Collisions can only merge counts, and (a+b)·log(a+b) >= a·log a + b·log b,
// so every CC estimate is bounded below by the exact S.
func TestCCNeverUnderestimates(t *testing.T) {
	gen := corpus.NewGenerator(3)
	for _, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
		f, err := gen.File(class, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 9} {
			c, err := NewCC(0.25, 0.25, k, len(f.Data), 17)
			if err != nil {
				t.Fatal(err)
			}
			c.Write(f.Data)
			if got, want := c.EstimateS(), exactS(f.Data, k); got < want-1e-9 {
				t.Fatalf("%s k=%d: CC estimate %v below exact %v", class, k, got, want)
			}
		}
	}
}

// Satellite: the paper's guarantee is Pr(|Ŝ − S| <= ε·S) >= 1−δ. Run the
// Lall stream sketch differentially against the exact S over fragments of
// every corpus class and check the bound empirically (with slack for the
// finite trial count; the seeds are fixed, so this is deterministic).
func TestStreamDeltaEpsilonBoundPerClass(t *testing.T) {
	const (
		epsilon = 0.3
		delta   = 0.25
		frag    = 1024
		trials  = 25
		k       = 3
	)
	for _, class := range []corpus.Class{corpus.Text, corpus.Binary, corpus.Encrypted} {
		gen := corpus.NewGenerator(100 + int64(class))
		within := 0
		for trial := 0; trial < trials; trial++ {
			f, err := gen.File(class, frag)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStream(epsilon, delta, k, frag, int64(1000*int(class)+trial))
			if err != nil {
				t.Fatal(err)
			}
			s.Write(f.Data)
			exact := exactS(f.Data, k)
			if math.Abs(s.EstimateS()-exact) <= epsilon*exact+1e-9 {
				within++
			}
		}
		// The guarantee promises >= (1−δ)·trials = 18.75 successes in
		// expectation-bound terms; allow finite-sample slack down to 0.6.
		if frac := float64(within) / trials; frac < 0.6 {
			t.Fatalf("%s: only %d/%d trials within ε·S (bound wants %.1f)",
				class, within, trials, (1-delta)*trials)
		} else {
			t.Logf("%s: %d/%d trials within ε·S (bound wants %.1f)", class, within, trials, (1-delta)*trials)
		}
	}
}

// Mid-flow sketch state must round-trip through AppendState/ImportState:
// restore at an odd byte offset (partial rolling windows, pending reservoir
// skips) and the resumed vector must match an uninterrupted one bit for bit.
func TestStreamVectorCheckpointRoundTrip(t *testing.T) {
	gen := corpus.NewGenerator(8)
	f, err := gen.File(corpus.Binary, 1200)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SketchKind{SketchLall, SketchCC} {
		cfg := StreamConfig{
			Epsilon: 0.25, Delta: 0.25,
			Widths: []int{1, 3, 9, 17}, ExpectedLen: 1024, Seed: 42, Kind: kind,
		}
		uncut, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		uncut.Write(f.Data)

		first, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const cut = 517 // odd offset: every window mode mid-element
		first.Write(f.Data[:cut])
		blob := stateBytes(t, first)

		resumed, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.ImportState(blob); err != nil {
			t.Fatalf("%s: import: %v", kind, err)
		}
		resumed.Write(f.Data[cut:])

		wantVec, err := uncut.Vector()
		if err != nil {
			t.Fatal(err)
		}
		gotVec, err := resumed.Vector()
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantVec {
			if wantVec[i] != gotVec[i] {
				t.Fatalf("%s: restored vector[%d] = %v, uninterrupted %v", kind, i, gotVec[i], wantVec[i])
			}
		}
		if !bytes.Equal(stateBytes(t, uncut), stateBytes(t, resumed)) {
			t.Fatalf("%s: restored state diverged from uninterrupted state", kind)
		}
	}
}

// stateBytes encodes a vector's state on its own, checking StateSize
// against what AppendState wrote.
func stateBytes(tb testing.TB, v *StreamVector) []byte {
	tb.Helper()
	var enc persist.Encoder
	v.AppendState(&enc)
	if got, want := len(enc.Bytes()), v.StateSize(); got != want {
		tb.Fatalf("AppendState wrote %d bytes, StateSize says %d", got, want)
	}
	return enc.Bytes()
}

// Hostile checkpoint blobs must be rejected with an error, never a panic:
// every strict prefix truncation and a few semantic corruptions.
func TestStreamVectorImportRejectsCorrupt(t *testing.T) {
	cfg := StreamConfig{
		Epsilon: 0.3, Delta: 0.3,
		Widths: []int{1, 2, 9, 17}, ExpectedLen: 256, Seed: 9,
	}
	v, err := NewStreamVectorConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 137)
	rand.New(rand.NewSource(2)).Read(data)
	v.Write(data)
	blob := stateBytes(t, v)

	for cut := 0; cut < len(blob); cut++ {
		fresh, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportState(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes imported cleanly", cut, len(blob))
		}
	}
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte{}, blob...)
		f(b)
		fresh, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportState(b); err == nil {
			t.Fatalf("%s imported cleanly", name)
		}
	}
	mutate("wrong version", func(b []byte) { b[0] = 99 })
	mutate("wrong kind", func(b []byte) { b[1] = uint8(SketchCC) })
	freshTail, _ := NewStreamVectorConfig(cfg)
	if err := freshTail.ImportState(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Fatal("trailing garbage imported cleanly")
	}
	// A vector built with different widths must refuse the blob.
	other, err := NewStreamVectorConfig(StreamConfig{
		Epsilon: 0.3, Delta: 0.3, Widths: []int{1, 3}, ExpectedLen: 256, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ImportState(blob); err == nil {
		t.Fatal("widths mismatch imported cleanly")
	}
}

// Reset must be indistinguishable from a fresh vector: same estimates and
// same exported state, for both backends (the engine reuses vectors across
// flows only if this holds).
func TestStreamVectorResetReuse(t *testing.T) {
	gen := corpus.NewGenerator(12)
	a, err := gen.File(corpus.Text, 700)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.File(corpus.Encrypted, 700)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SketchKind{SketchLall, SketchCC} {
		cfg := StreamConfig{
			Epsilon: 0.25, Delta: 0.25,
			Widths: []int{1, 3, 9, 17}, ExpectedLen: 512, Seed: 33, Kind: kind,
		}
		reused, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused.Write(a.Data)
		reused.Reset()
		reused.Write(b.Data)

		fresh, err := NewStreamVectorConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Write(b.Data)

		rv, err1 := reused.Vector()
		fv, err2 := fresh.Vector()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: vector errors %v, %v", kind, err1, err2)
		}
		for i := range fv {
			if rv[i] != fv[i] {
				t.Fatalf("%s: reused vector[%d] = %v, fresh %v", kind, i, rv[i], fv[i])
			}
		}
		if !bytes.Equal(stateBytes(t, reused), stateBytes(t, fresh)) {
			t.Fatalf("%s: reused state differs from fresh state", kind)
		}
	}
}

// Satellite: a width wider than the bytes seen must surface as not-ready —
// Vector returns ErrShortSequence instead of a fabricated h_k = 0.
func TestStreamVectorUnreadyWidth(t *testing.T) {
	for _, kind := range []SketchKind{SketchLall, SketchCC} {
		v, err := NewStreamVectorConfig(StreamConfig{
			Epsilon: 0.3, Delta: 0.3,
			Widths: []int{1, 5}, ExpectedLen: 64, Seed: 2, Kind: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Write([]byte("abcd")) // 4 bytes: h_1 has data, k=5 does not
		if v.Ready() {
			t.Fatalf("%s: Ready with only 4 bytes for a 5-wide feature", kind)
		}
		if _, err := v.Vector(); !errors.Is(err, entropy.ErrShortSequence) {
			t.Fatalf("%s: Vector on unready = %v, want ErrShortSequence", kind, err)
		}
		v.Write([]byte("e")) // fifth byte completes the first 5-gram
		if !v.Ready() {
			t.Fatalf("%s: not Ready after 5 bytes", kind)
		}
		if _, err := v.Vector(); err != nil {
			t.Fatalf("%s: Vector after readiness: %v", kind, err)
		}
	}
}

// The geometric skip draw must obey the reservoir law P(next > m) = n/m:
// check the empirical survival function at several horizons.
func TestNextAdoptionLaw(t *testing.T) {
	s, err := NewStream(0.5, 0.5, 2, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		n     = 10
		draws = 200000
	)
	exceed := map[int]int{11: 0, 15: 0, 20: 0, 40: 0, 100: 0}
	for i := 0; i < draws; i++ {
		next := s.nextAdoption(n)
		if next <= n {
			t.Fatalf("draw %d: next adoption %d not after current index %d", i, next, n)
		}
		for m := range exceed {
			if next > m {
				exceed[m]++
			}
		}
	}
	for m, cnt := range exceed {
		got := float64(cnt) / draws
		want := float64(n) / float64(m)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("P(next > %d) = %v, reservoir law wants %v", m, got, want)
		}
	}
}

// Satellite: estimation order must not matter — Vector([2,3]) and
// Vector([3,2]) from same-seed estimators agree width for width.
func TestEstimatorOrderIndependence(t *testing.T) {
	data := make([]byte, 300)
	rand.New(rand.NewSource(4)).Read(data)
	e1, err := New(0.3, 0.3, 77)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(0.3, 0.3, 77)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := e1.Vector(data, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e2.Vector(data, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != v2[1] || v1[1] != v2[0] {
		t.Fatalf("width order leaked into estimates: [2,3]=%v, [3,2]=%v", v1, v2)
	}
}

// Repeated calls for one width draw fresh samples, but the whole call
// sequence is reproducible from the seed.
func TestEstimatorCallSequenceReproducible(t *testing.T) {
	data := make([]byte, 300)
	rand.New(rand.NewSource(6)).Read(data)
	run := func() []float64 {
		e, err := New(0.3, 0.3, 55)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 4; i++ {
			s, err := e.EstimateS(data, 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d not reproducible: %v vs %v", i, a[i], b[i])
		}
	}
}

// Satellite: fixed-seed goldens pin the sketches' sampling streams — any
// change to the prng, the skip-sampling draw, or the bucketing hash shows
// up here before it silently changes every checkpoint in the field.
func TestSketchFixedSeedGolden(t *testing.T) {
	data := make([]byte, 192)
	rand.New(rand.NewSource(41)).Read(data)
	for i := 96; i < len(data); i++ {
		data[i] = data[i%32]
	}
	golden := []struct {
		kind SketchKind
		k    int
		bits uint64
	}{
		{SketchLall, 2, 0x407021017b6e2a4d},
		{SketchLall, 7, 0x406cff5505ef0ae4},
		{SketchLall, 9, 0x4061d96ec92d6d6d},
		{SketchLall, 17, 0x405bc5060fda40f0},
		{SketchCC, 2, 0x4074a93d8d5afd3d},
		{SketchCC, 7, 0x407b630c178894c2},
		{SketchCC, 9, 0x407da051edb62270},
		{SketchCC, 17, 0x40820186140d79ba},
	}
	for _, g := range golden {
		s, err := NewSketch(g.kind, 0.3, 0.5, g.k, len(data), 99)
		if err != nil {
			t.Fatal(err)
		}
		s.Write(data)
		if got := math.Float64bits(s.EstimateS()); got != g.bits {
			t.Fatalf("%s k=%d: S bits %#x, golden %#x (S=%v, golden %v)",
				g.kind, g.k, got, g.bits, s.EstimateS(), math.Float64frombits(g.bits))
		}
	}
}

func benchSketchWrite(b *testing.B, kind SketchKind, k int) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	s, err := NewSketch(kind, 0.25, 0.25, k, len(data), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(data)
	}
}

func BenchmarkStreamEstimatorWrite(b *testing.B) {
	for _, k := range []int{3, 9} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) { benchSketchWrite(b, SketchLall, k) })
	}
}

func BenchmarkCCSketchWrite(b *testing.B) {
	for _, k := range []int{3, 9} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) { benchSketchWrite(b, SketchCC, k) })
	}
}

var vectorSink []float64

// BenchmarkStreamVectorVector times the estimate behind one stream
// decision: the φ′_CART = {1, 3, 4, 5} vector of a full b = 4096 flow, per
// backend and corpus class.
func BenchmarkStreamVectorVector(b *testing.B) {
	const size = 4096
	for _, kind := range []SketchKind{SketchCC, SketchLall} {
		for _, class := range []corpus.Class{corpus.Text, corpus.Encrypted} {
			f, err := corpus.NewGenerator(size).File(class, size)
			if err != nil {
				b.Fatal(err)
			}
			v, err := NewStreamVectorConfig(StreamConfig{
				Epsilon: 0.25, Delta: 0.25, Widths: []int{1, 3, 4, 5}, ExpectedLen: size, Seed: 1, Kind: kind,
			})
			if err != nil {
				b.Fatal(err)
			}
			v.Write(f.Data)
			if _, err := v.Vector(); err != nil { // warm the shared log memo
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s/b%d", kind, class, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					vec, err := v.Vector()
					if err != nil {
						b.Fatal(err)
					}
					vectorSink = vec
				}
			})
		}
	}
}
