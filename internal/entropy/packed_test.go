package entropy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// payloadsFor builds a diverse set of payloads of length n: uniform random
// (mostly unique k-grams), low-diversity periodic data (heavy counts > 1),
// constant bytes, and text-like bytes.
func payloadsFor(rng *rand.Rand, n int) [][]byte {
	random := make([]byte, n)
	rng.Read(random)

	periodic := make([]byte, n)
	for i := range periodic {
		periodic[i] = byte(i % 7)
	}

	constant := bytes.Repeat([]byte{0xAB}, n)

	text := make([]byte, n)
	src := []byte("the quick brown fox jumps over the lazy dog ")
	for i := range text {
		text[i] = src[i%len(src)]
	}

	// Adversarial for the flat tables: a low-diversity prefix piles up
	// counts > 1 in a small table, then a uniform-random suffix floods in
	// distinct keys and forces grow-by-doubling mid-scan, while the
	// prefix counts must survive the rehash.
	growth := make([]byte, n)
	for i := range growth[:n/2] {
		growth[i] = byte(i % 3)
	}
	rng.Read(growth[n/2:])

	return [][]byte{random, periodic, constant, text, growth}
}

// assertBitIdentical checks that VectorAt and LegacyVectorAt agree on
// every bit of every h_k.
func assertBitIdentical(t *testing.T, data []byte, widths []int) {
	t.Helper()
	fast, err := VectorAt(data, widths)
	if err != nil {
		t.Fatalf("VectorAt(n=%d, widths=%v): %v", len(data), widths, err)
	}
	legacy, err := LegacyVectorAt(data, widths)
	if err != nil {
		t.Fatalf("LegacyVectorAt(n=%d, widths=%v): %v", len(data), widths, err)
	}
	for i, k := range widths {
		if math.Float64bits(fast[i]) != math.Float64bits(legacy[i]) {
			t.Errorf("n=%d k=%d: packed h=%v (%#x) != legacy h=%v (%#x)",
				len(data), k, fast[i], math.Float64bits(fast[i]),
				legacy[i], math.Float64bits(legacy[i]))
		}
	}
}

// supported keeps the widths a payload of n bytes can supply.
func supported(widths []int, n int) []int {
	out := widths[:0:0]
	for _, k := range widths {
		if k <= n {
			out = append(out, k)
		}
	}
	return out
}

// TestDifferentialPackedVsLegacy proves the determinism invariant: the
// packed-key single-scan path produces bit-identical h_k to the legacy
// string-keyed path for every width 1..16 across payload lengths 1..4096.
// The 4 KiB random payloads exceed the initial flat-table capacity, so the
// sweep covers grow-by-doubling mid-scan in both the one- and two-word
// tables.
//
// A second pass runs the lengths in descending order on this goroutine,
// over all widths and the φ′_CART and φ′_SVM sets, so the pooled tables,
// touched lists and count-of-counts bins of a larger payload feed a
// smaller one: a stale touched entry or an unzeroed bin left by a fold
// would surface as a wrong h_k there.
func TestDifferentialPackedVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{}
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100, 255, 256, 257, 512, 1000, 1024, 2048, 4095, 4096)

	allWidths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, n := range lengths {
		for _, data := range payloadsFor(rng, n) {
			assertBitIdentical(t, data, supported(allWidths, n))
		}
	}

	widthSets := [][]int{allWidths, {1, 3, 4, 5}, {1, 2, 3, 5}} // all, φ′_CART, φ′_SVM
	for i := len(lengths) - 1; i >= 0; i-- {
		n := lengths[i]
		for _, data := range payloadsFor(rng, n) {
			for _, widths := range widthSets {
				assertBitIdentical(t, data, supported(widths, n))
			}
		}
	}
}

// TestDifferentialHMatchesLegacy checks the scalar entry point too,
// including a width past the wide-packed limit (string fallback).
func TestDifferentialHMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{20, 300, 2048} {
		for _, data := range payloadsFor(rng, n) {
			for k := 1; k <= 18 && k <= n; k++ {
				fast, err := H(data, k)
				if err != nil {
					t.Fatalf("H(n=%d, k=%d): %v", n, k, err)
				}
				legacy, err := legacyH(data, k)
				if err != nil {
					t.Fatalf("legacyH(n=%d, k=%d): %v", n, k, err)
				}
				if math.Float64bits(fast) != math.Float64bits(legacy) {
					t.Errorf("n=%d k=%d: H=%v != legacy=%v", n, k, fast, legacy)
				}
			}
		}
	}
}

// FuzzDifferentialPackedVsLegacy fuzzes the bit-identity invariant: for
// any payload and any width (including the string-fallback region past
// the wide-packed limit), the flat-table path and the legacy string-keyed
// path must agree on every bit of h_k. It also compares VectorAt over the
// width set the bitmask names (bit i selects width i+1) on the payload and
// then on its first half, back to back, so the second call runs on pooled
// tables and count-of-counts bins the first one drained.
func FuzzDifferentialPackedVsLegacy(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint8(3), uint16(0b1101))
	f.Add(bytes.Repeat([]byte{0}, 64), uint8(4), uint16(0xFFFF))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 512), uint8(9), uint16(0b1_0001_0001_0111))
	big := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(big)
	f.Add(big, uint8(16), uint16(0b1_1101))
	f.Add(big[:2048], uint8(11), uint16(0x8301))
	f.Add(append(bytes.Repeat([]byte{1, 2, 3}, 600), big[:1024]...), uint8(10), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, mask uint16) {
		var widths []int
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				widths = append(widths, i+1)
			}
		}
		k := int(width)
		single := k >= 1 && k <= 18 && k <= len(data)
		if !single && len(supported(widths, len(data))) == 0 {
			t.Skip()
		}
		if single {
			fast, err := H(data, k)
			if err != nil {
				t.Fatalf("H(n=%d, k=%d): %v", len(data), k, err)
			}
			legacy, err := legacyH(data, k)
			if err != nil {
				t.Fatalf("legacyH(n=%d, k=%d): %v", len(data), k, err)
			}
			if math.Float64bits(fast) != math.Float64bits(legacy) {
				t.Errorf("n=%d k=%d: packed h=%v (%#x) != legacy h=%v (%#x)",
					len(data), k, fast, math.Float64bits(fast),
					legacy, math.Float64bits(legacy))
			}
		}
		for _, payload := range [][]byte{data, data[:len(data)/2]} {
			if ws := supported(widths, len(payload)); len(ws) > 0 {
				assertBitIdentical(t, payload, ws)
			}
		}
	})
}

// TestVectorMatchesVectorAt pins Vector to the same values as VectorAt
// over 1..width.
func TestVectorMatchesVectorAt(t *testing.T) {
	data := make([]byte, 512)
	rand.New(rand.NewSource(3)).Read(data)
	vec, err := Vector(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	at, err := VectorAt(data, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if math.Float64bits(vec[i]) != math.Float64bits(at[i]) {
			t.Errorf("k=%d: Vector=%v VectorAt=%v", i+1, vec[i], at[i])
		}
	}
}

// TestVectorAtEmptyWidths pins the contract fix: an empty width set is an
// error, not a silently empty vector.
func TestVectorAtEmptyWidths(t *testing.T) {
	if _, err := VectorAt([]byte("data"), nil); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt(empty widths): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("data"), []int{}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt([]): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("data"), []int{1, 0}); !errors.Is(err, ErrBadWidths) {
		t.Errorf("VectorAt(width 0): err = %v, want ErrBadWidths", err)
	}
	if _, err := VectorAt([]byte("ab"), []int{1, 3}); err != ErrShortSequence {
		t.Errorf("VectorAt(short data): err = %v, want ErrShortSequence", err)
	}
}

// TestNormalizeSEdgeCases re-pins the degenerate stream lengths the
// streaming estimator depends on: zero elements and a single element both
// carry zero diversity.
func TestNormalizeSEdgeCases(t *testing.T) {
	for k := 1; k <= 10; k++ {
		if got := NormalizeS(0, 0, k); got != 0 {
			t.Errorf("NormalizeS(n=0, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(123.45, 0, k); got != 0 {
			t.Errorf("NormalizeS(S>0, n=0, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(0, 1, k); got != 0 {
			t.Errorf("NormalizeS(n=1, k=%d) = %v, want 0", k, got)
		}
		if got := NormalizeS(-10, 1, k); got != 0 {
			t.Errorf("NormalizeS(S<0, n=1, k=%d) = %v, want 0", k, got)
		}
	}
}

// TestVectorAllocRegression is the alloc budget gate for the hot path: a
// warm pooled counter must extract an entropy vector with only the
// result-slice allocation, both for k <= 8 over a 1 KiB payload and at the
// serve shape (φ′_CART over a 4 KiB payload), where warm touched lists and
// count-of-counts bins must not allocate per call. The legacy string-keyed
// path must cost at least 5x more allocations than the packed path.
func TestVectorAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	cases := []struct {
		name   string
		size   int
		widths []int
	}{
		{"1KiB/k1-8", 1024, []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{"4KiB/phi-prime-cart", 4096, []int{1, 3, 4, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := make([]byte, c.size)
			rand.New(rand.NewSource(9)).Read(data)

			// Warm the pool so every table is in steady state.
			for i := 0; i < 4; i++ {
				if _, err := VectorAt(data, c.widths); err != nil {
					t.Fatal(err)
				}
			}
			fast := testing.AllocsPerRun(50, func() {
				if _, err := VectorAt(data, c.widths); err != nil {
					t.Fatal(err)
				}
			})
			// One alloc for the result slice; a little headroom for pool
			// churn under GC pressure.
			if fast > 4 {
				t.Errorf("packed VectorAt allocs/op = %v, want <= 4", fast)
			}
			legacy := testing.AllocsPerRun(10, func() {
				if _, err := LegacyVectorAt(data, c.widths); err != nil {
					t.Fatal(err)
				}
			})
			if legacy < 5*fast {
				t.Errorf("legacy allocs/op = %v, packed = %v: want >= 5x reduction", legacy, fast)
			}
			t.Logf("allocs/op: packed=%v legacy=%v (%.0fx)", fast, legacy, legacy/math.Max(fast, 1))
		})
	}
}

// SumCLogC must be Float64bits-equal to the plain math.Log2 loop it
// replaces, on counts inside the memo, at its edges, and far beyond it
// (the inline fallback), whatever the slice order.
func TestSumCLogCMatchesNaive(t *testing.T) {
	naive := func(counts []uint32) float64 {
		var s float64
		for _, c := range counts {
			if c > 1 {
				s += float64(c) * math.Log2(float64(c))
			}
		}
		return s
	}
	edges := []uint32{0, 1, 2, 3, 4095, 4096, 4097, 8191, 8192, 1 << 20, 1<<20 + 1, 1 << 24, math.MaxUint32}
	rng := rand.New(rand.NewSource(5))
	cases := [][]uint32{nil, {}, edges}
	for i := 0; i < 200; i++ {
		counts := make([]uint32, 1+rng.Intn(600))
		for j := range counts {
			switch rng.Intn(4) {
			case 0:
				counts[j] = edges[rng.Intn(len(edges))]
			case 1:
				counts[j] = uint32(rng.Intn(16))
			case 2:
				counts[j] = uint32(rng.Intn(1 << 13))
			default:
				counts[j] = rng.Uint32()
			}
		}
		cases = append(cases, counts)
	}
	for i, counts := range cases {
		if got, want := SumCLogC(counts), naive(counts); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%d counts): SumCLogC = %v (%#x), naive %v (%#x)",
				i, len(counts), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
