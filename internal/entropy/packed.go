package entropy

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the allocation-free exact-counting hot path. A k-gram of
// width k <= 8 fits a single uint64, and one of width k <= 16 fits a
// [2]uint64, so instead of interning every element as a string the scanner
// packs each element into an integer key with a rolling shift-and-mask and
// counts into pooled open-addressing flat tables (k = 2 gets a dense
// 65536-entry array, k = 1 a 256-entry array). Only widths beyond
// MaxWidePackedWidth fall back to the string-keyed CountKGrams path.
//
// Determinism invariant: the per-width sums are folded through the same
// ascending count-of-counts summation as sumCLogC, with every float
// multiplication in the same order, so the packed path produces
// bit-identical h_k to the legacy string-keyed path (the differential and
// fuzz tests in packed_test.go prove it, including across mid-scan table
// growth).

// MaxPackedWidth is the widest element width whose k-grams fit a single
// uint64 rolling register. Widths up to MaxWidePackedWidth use a two-word
// register; anything wider falls back to string-keyed counting.
const MaxPackedWidth = 8

// MaxWidePackedWidth is the widest element width covered by the [2]uint64
// rolling register.
const MaxWidePackedWidth = 16

// flatInitialSlots is the starting capacity of a flat counting table:
// large enough that a 1 KiB payload of unique k-grams fits under the load
// factor without growing, small enough that a cold table is cheap.
const flatInitialSlots = 1 << 11

// maxPresizedSlots caps the capacity flatSlotsFor will pre-size to
// (payloads up to ~48 KiB scan growth-free; anything larger grows the old
// way rather than pinning huge tables in the pool).
const maxPresizedSlots = 1 << 16

// flatSlotsFor returns the power-of-two slot count whose grow-at-3/4-load
// threshold clears n distinct keys, so a payload with at most n k-grams
// scans without growing mid-scan. Payload length classes up to 1 KiB keep
// flatInitialSlots; a 4 KiB payload gets 8192 slots up front instead of
// growing 2048→4096→8192 inside the scan loop (the regression ROADMAP
// item 4 measured: 4 KiB vectors slower per byte than 1 KiB).
func flatSlotsFor(n int) int {
	capacity := flatInitialSlots
	for capacity/4*3 <= n && capacity < maxPresizedSlots {
		capacity <<= 1
	}
	return capacity
}

// maxFlatLen is the largest payload length the packed tables count. Its
// counts then fit their uint32 counters, and its at most maxFlatLen
// distinct keys never grow a table past the 2^32 slots a uint32 touched
// index can name (growth to 2^33 slots needs 3·2^30 keys). Anything longer
// (a multi-GiB payload — far beyond any flow buffer) takes the
// string-keyed fallback.
const maxFlatLen = 3<<30 - 1

// fibMul is the 64-bit Fibonacci hashing multiplier (2^64/φ): it spreads
// the low-entropy packed keys across the table's high index bits.
const fibMul = 0x9E3779B97F4A7C15

// wideMul is a second odd multiplier (from splitmix64) mixed into the high
// word of two-word keys so hi and lo contribute independently.
const wideMul = 0x94D049BB133111EB

// ---------------------------------------------------------------------------
// Memoized c·log2(c)
//
// Every fold term needs log2(c) for a count c <= payload length. The counts
// repeat endlessly across flows, so the logs are computed once into a
// shared read-only table instead of calling math.Log2 per distinct count
// per flow. Two arrays are kept because float multiplication is not
// associative and the two fold shapes multiply in different orders:
// clogc[c] = c·log2(c) is the exact single-occurrence term, while the
// multiplicity term (m·c)·log2(c) must multiply m·c first and so needs the
// bare log2[c]. Using the wrong one would break bit-identity with the
// legacy path.

// logTable is an immutable memo of log2(c) and c·log2(c) for c < len. It
// is replaced wholesale (never mutated) when a longer payload needs more
// entries, so readers can use a loaded snapshot without locking.
type logTable struct {
	log2  []float64
	clogc []float64
}

var (
	logTab   atomic.Pointer[logTable]
	logTabMu sync.Mutex
)

// logTableInitial covers counts from payloads up to 4 KiB; logTableMax
// bounds the memo's memory at 16 MiB — counts beyond it (payloads over a
// megabyte of a single repeated k-gram) compute math.Log2 inline.
const (
	logTableInitial = 1 << 12
	logTableMax     = 1 << 20
)

// logsFor returns a memo table covering counts up to min(maxCount,
// logTableMax), growing the shared table by doubling when needed. The
// returned table is read-only.
func logsFor(maxCount int) *logTable {
	if lt := logTab.Load(); lt != nil && (len(lt.log2) > maxCount || len(lt.log2) > logTableMax) {
		return lt
	}
	logTabMu.Lock()
	defer logTabMu.Unlock()
	if lt := logTab.Load(); lt != nil && (len(lt.log2) > maxCount || len(lt.log2) > logTableMax) {
		return lt
	}
	size := logTableInitial
	for size <= maxCount && size < logTableMax {
		size <<= 1
	}
	nt := &logTable{
		log2:  make([]float64, size+1),
		clogc: make([]float64, size+1),
	}
	for c := 2; c <= size; c++ {
		l := math.Log2(float64(c))
		nt.log2[c] = l
		nt.clogc[c] = float64(c) * l
	}
	logTab.Store(nt)
	return nt
}

// term returns m·c·log2(c) exactly as the legacy fold computes it:
// (float64(m)·float64(c))·log2(c), with the single-occurrence case taking
// the memoized c·log2(c) directly (multiplying by 1.0 is exact, so the two
// forms are bit-identical).
func (lt *logTable) term(mult, c int) float64 {
	if c < len(lt.log2) {
		if mult == 1 {
			return lt.clogc[c]
		}
		return float64(mult) * float64(c) * lt.log2[c]
	}
	return float64(mult) * float64(c) * math.Log2(float64(c))
}

// SumCLogC returns Σ c·log2(c) over the counts above one, summed in slice
// order, each term taken from the shared c·log2(c) memo (counts beyond it
// compute float64(c)·log2(c) inline, as term does). The sum is therefore
// bit-identical to the plain loop
//
//	for _, c := range counts { if c > 1 { s += float64(c) * math.Log2(float64(c)) } }
//
// at a table lookup per term instead of a logarithm. Sketches whose
// counters are dense arrays (entest.CCSketch rows) fold through it.
func SumCLogC(counts []uint32) float64 {
	clogc := logsFor(0).clogc
	var sum float64
	for _, c := range counts {
		if c > 1 {
			if int(c) < len(clogc) {
				sum += clogc[c]
			} else {
				sum += float64(c) * math.Log2(float64(c))
			}
		}
	}
	return sum
}

// ---------------------------------------------------------------------------
// Flat counting tables
//
// Each table records the slot index of every slot it occupies in a touched
// list, so draining it costs O(distinct keys) rather than O(slots): a 32 B
// payload fills about 30 of its table's 2048 slots, and even a 4 KiB one
// leaves most of its 8192 empty.

// flatSlot is one open-addressing slot: cnt == 0 marks it empty (a count
// never stays at zero once a key is inserted).
type flatSlot struct {
	key uint64
	cnt uint32
}

// flatTable counts single-word packed keys by linear probing over a
// power-of-two slot array, growing by doubling at 3/4 load.
type flatTable struct {
	slots []flatSlot
	// touched[:size] are the indexes of the occupied slots. Its length is
	// growAt, so the scan stores into it without appending: the table
	// grows as soon as size reaches growAt.
	touched []uint32
	size    int
	growAt  int
	shift   uint // 64 - log2(len(slots)); Fibonacci hash keeps the top bits
}

// initSlots (re)allocates the slot array and touched list at a
// power-of-two capacity.
func (t *flatTable) initSlots(capacity int) {
	t.slots = make([]flatSlot, capacity)
	t.size = 0
	t.growAt = capacity / 4 * 3
	t.touched = make([]uint32, t.growAt)
	t.shift = 64 - uint(trailingLog2(capacity))
}

// trailingLog2 returns log2 of a power-of-two capacity.
func trailingLog2(c int) int {
	return bits.TrailingZeros64(uint64(c))
}

// grow doubles the table, rehashes every occupied slot and rebuilds the
// touched list. Counts carry over verbatim, so growth mid-scan cannot
// change any final count.
func (t *flatTable) grow() {
	old, oldTouched := t.slots, t.touched[:t.size]
	t.initSlots(2 * len(old))
	mask := uint64(len(t.slots) - 1)
	for _, j := range oldTouched {
		s := old[j]
		i := (s.key * fibMul) >> t.shift
		for t.slots[i&mask].cnt != 0 {
			i++
		}
		t.slots[i&mask] = s
		t.touched[t.size] = uint32(i & mask)
		t.size++
	}
}

// scan counts every k-gram of data (3 <= k <= 8) with a rolling
// shift-and-mask register. The probe loop is written inline — a call per
// element is measurable at this frequency — with the table fields held in
// locals and refreshed after any growth.
func (t *flatTable) scan(data []byte, k int) {
	regMask := narrowMask(k)
	var reg uint64
	for _, b := range data[:k-1] {
		reg = reg<<8 | uint64(b)
	}
	slots, touched, shift := t.slots, t.touched, t.shift
	mask := uint64(len(slots) - 1)
	size, growAt := t.size, t.growAt
	for _, b := range data[k-1:] {
		reg = (reg<<8 | uint64(b)) & regMask
		i := (reg * fibMul) >> shift
		for {
			j := i & mask
			s := &slots[j]
			if s.cnt == 0 {
				s.key = reg
				s.cnt = 1
				touched[size] = uint32(j)
				size++
				if size >= growAt {
					t.size = size
					t.grow()
					slots, touched, shift = t.slots, t.touched, t.shift
					mask = uint64(len(slots) - 1)
					size, growAt = t.size, t.growAt
				}
				break
			}
			if s.key == reg {
				s.cnt++
				break
			}
			i++
		}
	}
	t.size = size
}

// drain tallies every occupied slot's count into cc and zeroes it,
// leaving the table empty for the next scan.
func (t *flatTable) drain(cc *countOfCounts) {
	for _, j := range t.touched[:t.size] {
		s := &t.slots[j]
		cc.add(s.cnt)
		s.cnt = 0
	}
	t.size = 0
}

// wideSlot is one two-word-key slot; cnt == 0 marks it empty.
type wideSlot struct {
	hi, lo uint64
	cnt    uint32
}

// wideTable is the [2]uint64-keyed twin of flatTable for 9 <= k <= 16.
type wideTable struct {
	slots   []wideSlot
	touched []uint32 // as flatTable.touched
	size    int
	growAt  int
	shift   uint
}

func (t *wideTable) initSlots(capacity int) {
	t.slots = make([]wideSlot, capacity)
	t.size = 0
	t.growAt = capacity / 4 * 3
	t.touched = make([]uint32, t.growAt)
	t.shift = 64 - uint(trailingLog2(capacity))
}

func (t *wideTable) grow() {
	old, oldTouched := t.slots, t.touched[:t.size]
	t.initSlots(2 * len(old))
	mask := uint64(len(t.slots) - 1)
	for _, j := range oldTouched {
		s := old[j]
		i := (s.lo*fibMul ^ s.hi*wideMul) >> t.shift
		for t.slots[i&mask].cnt != 0 {
			i++
		}
		t.slots[i&mask] = s
		t.touched[t.size] = uint32(i & mask)
		t.size++
	}
}

// scan counts every k-gram of data (9 <= k <= 16) with a two-word rolling
// register and the same inlined probe loop as flatTable.scan.
func (t *wideTable) scan(data []byte, k int) {
	hiMask := wideHiMask(k)
	var hi, lo uint64
	for _, b := range data[:k-1] {
		hi = hi<<8 | lo>>56
		lo = lo<<8 | uint64(b)
	}
	slots, touched, shift := t.slots, t.touched, t.shift
	mask := uint64(len(slots) - 1)
	size, growAt := t.size, t.growAt
	for _, b := range data[k-1:] {
		hi = (hi<<8 | lo>>56) & hiMask
		lo = lo<<8 | uint64(b)
		i := (lo*fibMul ^ hi*wideMul) >> shift
		for {
			j := i & mask
			s := &slots[j]
			if s.cnt == 0 {
				s.hi, s.lo = hi, lo
				s.cnt = 1
				touched[size] = uint32(j)
				size++
				if size >= growAt {
					t.size = size
					t.grow()
					slots, touched, shift = t.slots, t.touched, t.shift
					mask = uint64(len(slots) - 1)
					size, growAt = t.size, t.growAt
				}
				break
			}
			if s.lo == lo && s.hi == hi {
				s.cnt++
				break
			}
			i++
		}
	}
	t.size = size
}

func (t *wideTable) drain(cc *countOfCounts) {
	for _, j := range t.touched[:t.size] {
		s := &t.slots[j]
		cc.add(s.cnt)
		s.cnt = 0
	}
	t.size = 0
}

// bigramTable counts k = 2 into a dense 65536-entry array: no hashing, no
// probing, no growth. A touched list records each index the first time its
// count leaves zero, so draining costs O(distinct bigrams) instead of
// O(65536).
type bigramTable struct {
	counts  []uint32 // len 65536, allocated on first use
	touched []uint16
}

func (t *bigramTable) scan(data []byte) {
	if t.counts == nil {
		t.counts = make([]uint32, 1<<16)
	}
	reg := uint64(data[0])
	for _, b := range data[1:] {
		reg = (reg<<8 | uint64(b)) & 0xFFFF
		if t.counts[reg] == 0 {
			t.touched = append(t.touched, uint16(reg))
		}
		t.counts[reg]++
	}
}

func (t *bigramTable) drain(cc *countOfCounts) {
	for _, idx := range t.touched {
		cc.add(t.counts[idx])
		t.counts[idx] = 0
	}
	t.touched = t.touched[:0]
}

// ---------------------------------------------------------------------------
// The fold

// countOfCounts is a dense count-of-counts histogram: bins[c] is the number
// of distinct keys seen exactly c times, for c >= 2 (counts of one add
// nothing to Σ c·log2(c)). A multiplicity is at most n/2 for n <= maxFlatLen
// elements, so it fits an int32. Bins are all zero between folds.
type countOfCounts struct {
	bins []int32
	max  int // largest count tallied since the last fold
}

// reserve makes room for every count a scan of n elements can produce.
// The bins are zero here, so a larger array needs no copy.
func (cc *countOfCounts) reserve(n int) {
	if len(cc.bins) <= n {
		cc.bins = make([]int32, n+1)
	}
}

func (cc *countOfCounts) add(c uint32) {
	if c > 1 {
		cc.bins[c]++
		cc.max = max(cc.max, int(c))
	}
}

// fold returns Σ m·c·log2(c) over the tallied counts, visiting c in
// ascending order, and zeroes the bins it read. This is the exact fold
// shape and float multiplication order of the legacy sumCLogC, so the sum
// is bit-identical whatever the key type or the order keys were tallied.
func (cc *countOfCounts) fold(lt *logTable) float64 {
	var sum float64
	for c := 2; c <= cc.max; c++ {
		if m := cc.bins[c]; m != 0 {
			sum += lt.term(int(m), c)
			cc.bins[c] = 0
		}
	}
	cc.max = 0
	return sum
}

// ---------------------------------------------------------------------------
// Pooled per-call state

// counterState is the pooled per-call scratch for exact k-gram counting.
// Tables are allocated lazily per width on first use and drained (not
// freed) after every scan, so a warm state counts without allocating and
// goes back to the pool empty.
type counterState struct {
	bytes   [256]int // k == 1
	bigrams bigramTable
	narrow  [MaxPackedWidth + 1]*flatTable     // 3 <= k <= 8, indexed by k
	wide    [MaxWidePackedWidth + 1]*wideTable // 9 <= k <= 16, indexed by k
	cc      countOfCounts
}

var counterPool = sync.Pool{New: func() any { return new(counterState) }}

// narrowTable returns the (lazily created) flat table for 3 <= k <= 8,
// pre-sized so a scan counting up to grams keys will not grow mid-scan.
// The table is empty here (every scan is drained), so re-sizing is a plain
// reallocation, never a rehash.
func (st *counterState) narrowTable(k, grams int) *flatTable {
	want := flatSlotsFor(grams)
	if st.narrow[k] == nil {
		st.narrow[k] = new(flatTable)
		st.narrow[k].initSlots(want)
	} else if len(st.narrow[k].slots) < want {
		st.narrow[k].initSlots(want)
	}
	return st.narrow[k]
}

// wideTableFor returns the (lazily created) flat table for 8 < k <= 16,
// pre-sized like narrowTable.
func (st *counterState) wideTableFor(k, grams int) *wideTable {
	want := flatSlotsFor(grams)
	if st.wide[k] == nil {
		st.wide[k] = new(wideTable)
		st.wide[k].initSlots(want)
	} else if len(st.wide[k].slots) < want {
		st.wide[k].initSlots(want)
	}
	return st.wide[k]
}

// sumKGrams counts the k-grams of data (2 <= k <= MaxWidePackedWidth) in
// the pooled table for k, drains the table into the count-of-counts and
// folds it, returning Σ c·log2(c).
func (st *counterState) sumKGrams(data []byte, k int, lt *logTable) float64 {
	n := len(data) - k + 1
	st.cc.reserve(n)
	switch {
	case k == 2:
		st.bigrams.scan(data)
		st.bigrams.drain(&st.cc)
	case k <= MaxPackedWidth:
		t := st.narrowTable(k, n)
		t.scan(data, k)
		t.drain(&st.cc)
	default:
		t := st.wideTableFor(k, n)
		t.scan(data, k)
		t.drain(&st.cc)
	}
	return st.cc.fold(lt)
}

// narrowMask keeps the low 8k bits of the single-word register.
func narrowMask(k int) uint64 {
	if k >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*k) - 1
}

// wideHiMask keeps the k-8 high bytes of the two-word register.
func wideHiMask(k int) uint64 {
	if k >= 16 {
		return ^uint64(0)
	}
	return 1<<(8*(k-8)) - 1
}

// sumCLogCBytes replicates the legacy k=1 summation: array index order,
// counts above one only, each term the memoized c·log2(c). It zeroes the
// histogram as it goes.
func sumCLogCBytes(counts *[256]int, lt *logTable) float64 {
	var sum float64
	for i, c := range counts {
		if c > 1 {
			sum += lt.term(1, c)
		}
		counts[i] = 0
	}
	return sum
}

// vectorInto computes h_k for each width into vec (len(vec) must equal
// len(widths)). Widths must already be validated positive and no longer
// than data. Each distinct width is scanned and folded once (duplicate
// widths reuse the folded sum); every scan is drained before the next
// begins, so the state goes back to the pool clean.
func vectorInto(vec []float64, data []byte, widths []int) error {
	lt := logsFor(len(data))
	st := counterPool.Get().(*counterState)
	var (
		folded [MaxWidePackedWidth + 1]bool
		sums   [MaxWidePackedWidth + 1]float64
	)
	flatOK := len(data) <= maxFlatLen
	for i, k := range widths {
		var sum float64
		switch {
		case k <= MaxWidePackedWidth && folded[k]:
			sum = sums[k]
		case k == 1:
			for _, b := range data {
				st.bytes[b]++
			}
			sum = sumCLogCBytes(&st.bytes, lt)
		case k <= MaxWidePackedWidth && flatOK:
			sum = st.sumKGrams(data, k, lt)
		default:
			counts, err := CountKGrams(data, k)
			if err != nil {
				counterPool.Put(st)
				return err
			}
			sum = sumCLogC(counts)
		}
		if k <= MaxWidePackedWidth {
			folded[k] = true
			sums[k] = sum
		}
		vec[i] = NormalizeS(sum, len(data)-k+1, k)
	}
	counterPool.Put(st)
	return nil
}
