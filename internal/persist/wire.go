package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file is the low-level wire codec the snapshot payloads are built
// from: fixed-width little-endian primitives behind a sticky-error
// decoder. Every read is bounds-checked and every length that drives an
// allocation is validated against the bytes actually remaining, so a
// hostile payload can make decoding fail but never make it panic or
// allocate unboundedly.

// Encoder appends wire primitives to a byte buffer. Nested payloads are
// written in place: BlobStart reserves a length prefix, the nested encoding
// appends straight into the same buffer, and BlobEnd back-fills the
// prefix, so a payload of payloads is built in one buffer with no copies.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Grow ensures room for n more bytes without reallocating: a caller that
// knows the final size sizes the buffer once.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Raw appends bytes verbatim, with no length prefix; the decoder must
// know the count (fixed-size fields like flow IDs).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Blob appends a U32 length prefix followed by the raw bytes.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// BlobStart reserves a U32 length prefix for a blob whose bytes the caller
// appends next, and returns the mark BlobEnd needs. A BlobStart/BlobEnd
// pair writes exactly what Blob writes for the bytes in between.
func (e *Encoder) BlobStart() int {
	mark := len(e.buf)
	e.U32(0)
	return mark
}

// BlobEnd back-fills the length prefix reserved at mark with the number of
// bytes appended since.
func (e *Encoder) BlobEnd(mark int) {
	binary.LittleEndian.PutUint32(e.buf[mark:], uint32(len(e.buf)-mark-4))
}

// U32s appends a U32 count prefix followed by the values.
func (e *Encoder) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(e.buf[off+4*i:], v)
	}
}

// F64s appends a U32 count prefix followed by the values.
func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Decoder consumes wire primitives from a byte buffer. The first failed
// read latches an error; subsequent reads return zero values, so callers
// can decode a whole structure and check Err once at the end — but any
// length used for allocation or recursion must still be checked where it
// is read.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps data for decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// failf latches a corruption error (keeping the first one).
func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after latching an error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Len() < n {
		d.failf("need %d bytes, have %d", n, d.Len())
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Take reads n raw bytes (the counterpart of Encoder.Raw). It returns
// nil after latching an error.
func (d *Decoder) Take(n int) []byte { return d.take(n) }

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a U32 count prefix and validates that count elements of
// elemSize bytes each can still follow, so the caller may allocate
// count elements without trusting the input. It returns -1 on failure.
func (d *Decoder) Count(elemSize int) int {
	n := d.U32()
	if d.err != nil {
		return -1
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if int64(n)*int64(elemSize) > int64(d.Len()) {
		d.failf("count %d × %d bytes exceeds remaining %d", n, elemSize, d.Len())
		return -1
	}
	return int(n)
}

// Blob reads a U32 length prefix and that many raw bytes.
func (d *Decoder) Blob() []byte {
	n := d.Count(1)
	if n < 0 {
		return nil
	}
	return d.take(n)
}

// F64s reads a U32 count prefix and that many float64 values.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if n < 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// Fail lets artifact decoders latch a semantic validation failure (bad
// range, inconsistent counts) as a corruption error.
func (d *Decoder) Fail(format string, args ...any) { d.failf(format, args...) }

// Finish asserts the buffer was consumed exactly and returns the final
// decoding error, if any. Trailing garbage is corruption: it means the
// payload was not produced by the matching encoder.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Len() != 0 {
		d.failf("%d trailing bytes", d.Len())
	}
	return d.err
}
