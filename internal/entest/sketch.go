package entest

import (
	"fmt"
	"math"

	"iustitia/internal/entropy"
	"iustitia/internal/persist"
)

// Sketch is the per-width streaming backend behind StreamVector: a
// constant-memory summary of one k-gram stream that can report an estimate
// of S_k at any instant. Two backends implement it — the Lall et al.
// reservoir-sampled AMS estimator (StreamEstimator) and a compressed-
// counting-style hashed histogram (CCSketch) — selectable per run, so the
// accuracy-vs-memory frontier can be measured on the same engine.
//
// The unexported state methods keep the checkpoint codec inside this
// package; external packages persist a sketch through
// StreamVector.AppendState/ImportState.
type Sketch interface {
	// Write consumes the next chunk of the stream (io.Writer; never fails).
	Write(p []byte) (int, error)
	// Width returns the element width k.
	Width() int
	// Elements returns how many k-gram elements have been consumed.
	Elements() int
	// Ready reports whether at least one full element has been consumed.
	Ready() bool
	// EstimateS estimates S_k = Σ m_ik·log2(m_ik) over the stream so far.
	EstimateS() float64
	// EstimateH estimates the normalized entropy h_k.
	EstimateH() float64
	// Counters returns the memory footprint in counter units.
	Counters() int
	// Reset clears all state (generator included) for reuse on a new
	// flow, bit-identical to a fresh sketch.
	Reset()

	exportState(enc *persist.Encoder)
	stateSize() int // bytes exportState writes
	importState(d *persist.Decoder) error
}

var (
	_ Sketch = (*StreamEstimator)(nil)
	_ Sketch = (*CCSketch)(nil)
)

// SketchKind selects a Sketch backend.
type SketchKind uint8

const (
	// SketchLall is the reservoir-sampled AMS estimator of Lall et al.
	// (StreamEstimator): unbiased, with the paper's (δ,ε) guarantee.
	SketchLall SketchKind = iota
	// SketchCC is the compressed-counting-style hashed histogram
	// (CCSketch): biased up by collisions, but ~12x smaller per counter.
	SketchCC
)

// String names the kind for flags and logs.
func (k SketchKind) String() string {
	switch k {
	case SketchLall:
		return "lall"
	case SketchCC:
		return "cc"
	default:
		return fmt.Sprintf("SketchKind(%d)", int(k))
	}
}

// ParseSketchKind maps a flag value to its kind.
func ParseSketchKind(s string) (SketchKind, error) {
	switch s {
	case "lall":
		return SketchLall, nil
	case "cc":
		return SketchCC, nil
	default:
		return 0, fmt.Errorf("entest: unknown sketch kind %q (want lall|cc)", s)
	}
}

// NewSketch builds a sketch of the given kind for element width k, sized
// from (epsilon, delta) and expectedLen exactly like NewStream.
func NewSketch(kind SketchKind, epsilon, delta float64, k, expectedLen int, seed int64) (Sketch, error) {
	switch kind {
	case SketchLall:
		return NewStream(epsilon, delta, k, expectedLen, seed)
	case SketchCC:
		return NewCC(epsilon, delta, k, expectedLen, seed)
	default:
		return nil, fmt.Errorf("entest: unknown sketch kind %d", int(kind))
	}
}

// StreamConfig assembles a StreamVector: the (δ,ε) parameters, the feature
// widths, the expected stream length (the flow buffer size b, which sizes
// the counter budget), the sampling seed, and the sketch backend.
type StreamConfig struct {
	Epsilon     float64
	Delta       float64
	Widths      []int
	ExpectedLen int
	Seed        int64
	// Kind selects the per-width backend (default SketchLall).
	Kind SketchKind
}

// CCSketch estimates S_k with a hashed histogram in the style of
// compressed counting (Ping Li) and the GMV streaming estimators: d rows
// of w counters, each row bucketing every element through an independent
// hash. A collision merges two elements' counts, and since
// (a+b)·log(a+b) >= a·log(a) + b·log(b), every row's Σ c·log2(c) only
// overestimates S — so the minimum over rows is the least-collided row's
// estimate, biased up by an amount that shrinks as w grows relative to
// the number of distinct elements.
//
// Compared with the Lall reservoir (48 bytes per slot), a CC counter is a
// single uint32: for the same (δ,ε)-derived counter budget it is ~12x
// smaller per flow, at the price of a one-sided bias instead of the AMS
// unbiasedness. The differential bench harness measures both.
//
// A CCSketch is not safe for concurrent use.
type CCSketch struct {
	k       int
	rows    int // d, sized like the Lall group count g
	width   int // w, sized like the Lall per-group budget z
	counts  []uint32
	rowSeed []uint64
	n       int // elements seen so far
	win     kgramWin
	seed    int64
}

// NewCC builds a compressed-counting sketch for element width k. The rows
// × width grid reuses the Lall sizing (g groups, z counters per group) so
// the two backends hold the same number of counters and are directly
// comparable.
func NewCC(epsilon, delta float64, k, expectedLen int, seed int64) (*CCSketch, error) {
	if k < 2 {
		return nil, fmt.Errorf("entest: stream estimation needs k >= 2 (|f_1| is too small), got %d", k)
	}
	if expectedLen < k {
		return nil, fmt.Errorf("entest: expected length %d shorter than element width %d", expectedLen, k)
	}
	base, err := New(epsilon, delta, seed)
	if err != nil {
		return nil, err
	}
	rows := base.Groups()
	width := base.CountersPerGroup(k, expectedLen)
	c := &CCSketch{
		k:       k,
		rows:    rows,
		width:   width,
		counts:  make([]uint32, rows*width),
		rowSeed: make([]uint64, rows),
		win:     newKgramWin(k),
		seed:    seed,
	}
	rng := newPRNG(seed)
	for r := range c.rowSeed {
		c.rowSeed[r] = rng.next()
	}
	return c, nil
}

// Width returns the element width k.
func (c *CCSketch) Width() int { return c.k }

// Counters returns the d·w counter grid size.
func (c *CCSketch) Counters() int { return len(c.counts) }

// Elements returns how many k-gram elements have been consumed.
func (c *CCSketch) Elements() int { return c.n }

// Ready reports whether at least one full element has been consumed.
func (c *CCSketch) Ready() bool { return c.n > 0 }

// Write consumes the next chunk of the stream. It implements io.Writer and
// never fails.
func (c *CCSketch) Write(p []byte) (int, error) {
	if c.win.mode == winString {
		for _, b := range p {
			if !c.win.push(b) {
				continue
			}
			c.consumeKey(fnv64(c.win.buf))
			c.win.slide()
		}
		return len(p), nil
	}
	for _, b := range p {
		if !c.win.push(b) {
			continue
		}
		// Fold the two register words into one 64-bit key; 64-bit key
		// collisions are negligible next to the w-bucket collisions the
		// min-row estimate already absorbs.
		c.consumeKey(c.win.reg + 0x9E3779B97F4A7C15*c.win.regHi)
	}
	return len(p), nil
}

// consumeKey buckets one element into every row.
func (c *CCSketch) consumeKey(key uint64) {
	c.n++
	w := uint64(c.width)
	for r, rs := range c.rowSeed {
		h := mix64(key ^ rs)
		c.counts[r*c.width+int(h%w)]++
	}
}

// fnv64 hashes a string-mode element (FNV-1a).
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// EstimateS returns the minimum over rows of Σ c·log2(c): every row
// overestimates S under collisions, so the min is the tightest available
// estimate. Each row folds through entropy's shared c·log2(c) memo, a
// table lookup per counter instead of a logarithm, with bit-identical
// sums. It returns 0 before any element arrives.
func (c *CCSketch) EstimateS() float64 {
	if c.n == 0 {
		return 0
	}
	best := math.Inf(1)
	for r := 0; r < c.rows; r++ {
		if s := entropy.SumCLogC(c.counts[r*c.width : (r+1)*c.width]); s < best {
			best = s
		}
	}
	return best
}

// EstimateH returns the current normalized-entropy estimate h_k.
func (c *CCSketch) EstimateH() float64 {
	return entropy.NormalizeS(c.EstimateS(), c.n, c.k)
}

// Reset clears all state for reuse on a new flow.
func (c *CCSketch) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.n = 0
	c.win.reset()
}
