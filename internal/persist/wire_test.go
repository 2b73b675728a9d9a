package persist

import (
	"bytes"
	"testing"
)

// The in-place primitives must write exactly the bytes of their copying
// counterparts: BlobStart/BlobEnd around nested appends equals Blob of a
// sub-encoder's bytes, and U32s equals a count prefix plus one U32 per
// value. Nesting and Grow must not change a byte.
func TestEncoderInPlaceMatchesCopying(t *testing.T) {
	vals := []uint32{0, 1, 0xdeadbeef, 4096, 1 << 31}

	var inner Encoder
	inner.U8(7)
	inner.U32(uint32(len(vals)))
	for _, v := range vals {
		inner.U32(v)
	}
	var empty Encoder
	var want Encoder
	want.U64(42)
	want.Blob(inner.Bytes())
	want.Blob(empty.Bytes())
	want.U8(9)

	for _, grow := range []int{0, 3, 1 << 10} {
		var got Encoder
		got.Grow(grow)
		got.U64(42)
		outer := got.BlobStart()
		got.U8(7)
		got.U32s(vals)
		got.BlobEnd(outer)
		got.BlobEnd(got.BlobStart())
		got.U8(9)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("grow %d: in-place encoding\n% x\nwant\n% x", grow, got.Bytes(), want.Bytes())
		}
	}

	d := NewDecoder(want.Bytes())
	d.U64()
	sub := NewDecoder(d.Blob())
	sub.U8()
	if n := sub.Count(4); n != len(vals) {
		t.Fatalf("U32s count %d, want %d", n, len(vals))
	}
	for i, v := range vals {
		if got := sub.U32(); got != v {
			t.Fatalf("U32s[%d] = %#x, want %#x", i, got, v)
		}
	}
	if err := sub.Finish(); err != nil {
		t.Fatal(err)
	}
}
