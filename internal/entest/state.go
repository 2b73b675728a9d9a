package entest

import (
	"fmt"

	"iustitia/internal/persist"
)

// This file is the sketches' durability surface: a mid-flow StreamVector —
// histogram, every sketch's counters, rolling windows, and the sampling
// generator — round-trips through the persist wire codec so stream-mode
// pending flows survive node checkpoints and flow-table migrations exactly
// like buffered flows do. The generator state travels too: a restored
// sketch makes the same reservoir decisions it would have made
// uninterrupted, so a checkpoint/restore cycle is invisible in the
// estimates.

// streamStateVersion guards the sketch state wire format embedded in
// checkpoints and migration blobs.
const streamStateVersion = 1

// AppendState writes the vector's full mid-stream state into enc, each
// sketch's sub-state nested in place (BlobStart/BlobEnd), so a caller
// encoding many flows builds one buffer with no per-flow copies. Restore
// it with ImportState on a vector built from the same StreamConfig.
func (v *StreamVector) AppendState(enc *persist.Encoder) {
	enc.U8(streamStateVersion)
	enc.U8(uint8(v.kind))
	enc.U32(uint32(len(v.widths)))
	for _, k := range v.widths {
		enc.U32(uint32(k))
	}
	enc.I64(int64(v.n1))
	// The h_1 histogram is sparse for small flows: encode only the
	// non-zero byte counts.
	var nz uint32
	for _, c := range v.h1 {
		if c != 0 {
			nz++
		}
	}
	enc.U32(nz)
	for b, c := range v.h1 {
		if c != 0 {
			enc.U8(uint8(b))
			enc.I64(int64(c))
		}
	}
	for _, est := range v.wide {
		mark := enc.BlobStart()
		est.exportState(enc)
		enc.BlobEnd(mark)
	}
}

// StateSize returns the exact number of bytes AppendState writes, so a
// caller encoding many vectors can size its buffer once.
func (v *StreamVector) StateSize() int {
	n := 1 + 1 + 4 + 4*len(v.widths) + 8 + 4
	for _, c := range v.h1 {
		if c != 0 {
			n += 1 + 8
		}
	}
	for _, est := range v.wide {
		n += 4 + est.stateSize()
	}
	return n
}

// ImportState restores state written by AppendState into this vector. The
// receiver must have been built from the same StreamConfig (kind and
// widths are validated; counter geometry is validated per sketch). On
// error the vector is left partially restored and must be discarded —
// callers import into a freshly constructed vector. Hostile input returns
// an error wrapping persist.ErrCorrupt, never a panic.
func (v *StreamVector) ImportState(data []byte) error {
	d := persist.NewDecoder(data)
	if ver := d.U8(); d.Err() == nil && ver != streamStateVersion {
		d.Fail("sketch state version %d, want %d", ver, streamStateVersion)
	}
	if kind := SketchKind(d.U8()); d.Err() == nil && kind != v.kind {
		d.Fail("sketch state kind %s, vector is %s", kind, v.kind)
	}
	if nw := d.U32(); d.Err() == nil && int(nw) != len(v.widths) {
		d.Fail("sketch state has %d widths, vector has %d", nw, len(v.widths))
	}
	for _, k := range v.widths {
		if wk := d.U32(); d.Err() == nil && int(wk) != k {
			d.Fail("sketch state width %d, vector wants %d", wk, k)
		}
	}
	n1 := d.I64()
	if d.Err() == nil && n1 < 0 {
		d.Fail("negative byte count %d", n1)
	}
	var hist [256]int
	var histSum int64
	nz := d.Count(1 + 8)
	for i := 0; i < nz; i++ {
		b := d.U8()
		c := d.I64()
		if d.Err() != nil {
			break
		}
		if c <= 0 {
			d.Fail("histogram count %d for byte %d", c, b)
			break
		}
		hist[b] += int(c)
		histSum += c
	}
	if d.Err() == nil && histSum != n1 {
		d.Fail("histogram sums to %d, byte count is %d", histSum, n1)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("entest: sketch state import: %w", err)
	}
	v.n1 = int(n1)
	v.h1 = hist
	for _, est := range v.wide {
		sub := persist.NewDecoder(d.Blob())
		if err := d.Err(); err != nil {
			return fmt.Errorf("entest: sketch state import: %w", err)
		}
		if err := est.importState(sub); err != nil {
			return fmt.Errorf("entest: sketch state import (k=%d): %w", est.Width(), err)
		}
		if err := sub.Finish(); err != nil {
			return fmt.Errorf("entest: sketch state import (k=%d): %w", est.Width(), err)
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("entest: sketch state import: %w", err)
	}
	return nil
}

// exportWin serializes a rolling window's mid-stream state.
func exportWin(enc *persist.Encoder, w *kgramWin) {
	enc.U64(w.reg)
	enc.U64(w.regHi)
	enc.U32(uint32(w.filled))
	enc.Blob(w.buf)
}

// winStateSize is the number of bytes exportWin writes.
func winStateSize(w *kgramWin) int { return 8 + 8 + 4 + 4 + len(w.buf) }

// importWin restores a rolling window, validating against its mode.
func importWin(d *persist.Decoder, w *kgramWin) {
	reg := d.U64()
	regHi := d.U64()
	filled := d.U32()
	buf := d.Blob()
	if d.Err() != nil {
		return
	}
	if int(filled) > w.k-1 {
		d.Fail("window filled %d exceeds k-1 = %d", filled, w.k-1)
		return
	}
	if w.mode == winString {
		if len(buf) > w.k-1 {
			d.Fail("window buffer %d bytes exceeds k-1 = %d", len(buf), w.k-1)
			return
		}
	} else if len(buf) != 0 {
		d.Fail("packed window carries a %d-byte buffer", len(buf))
		return
	}
	w.reg = reg
	w.regHi = regHi
	w.filled = int(filled)
	w.buf = append(w.buf[:0], buf...)
}

// streamSlotWire is the fixed-size portion of one encoded reservoir slot.
const streamSlotWire = 8 + 8 + 4 + 8 + 8

func (s *StreamEstimator) exportState(enc *persist.Encoder) {
	enc.I64(int64(s.n))
	enc.U64(s.rng.state)
	exportWin(enc, &s.win)
	enc.U32(uint32(len(s.slots)))
	for i := range s.slots {
		sl := &s.slots[i]
		enc.U64(sl.key)
		enc.U64(sl.hi)
		enc.Blob([]byte(sl.elem))
		enc.I64(int64(sl.count))
		enc.I64(int64(sl.next))
	}
}

func (s *StreamEstimator) stateSize() int {
	n := 8 + 8 + winStateSize(&s.win) + 4
	for i := range s.slots {
		n += 8 + 8 + 4 + len(s.slots[i].elem) + 8 + 8
	}
	return n
}

func (s *StreamEstimator) importState(d *persist.Decoder) error {
	n := d.I64()
	if d.Err() == nil && n < 0 {
		d.Fail("negative element count %d", n)
	}
	rngState := d.U64()
	win := newKgramWin(s.k)
	importWin(d, &win)
	if cnt := d.U32(); d.Err() == nil && int(cnt) != len(s.slots) {
		d.Fail("sketch state has %d slots, estimator has %d", cnt, len(s.slots))
	}
	slots := make([]streamSlot, len(s.slots))
	for i := range slots {
		sl := &slots[i]
		sl.key = d.U64()
		sl.hi = d.U64()
		elem := d.Blob()
		sl.count = int(d.I64())
		sl.next = int(d.I64())
		if d.Err() != nil {
			break
		}
		if sl.count < 0 || sl.next < 1 {
			d.Fail("slot %d has count %d, next %d", i, sl.count, sl.next)
			break
		}
		if s.win.mode == winString {
			if sl.count > 0 && len(elem) != s.k {
				d.Fail("slot %d element is %d bytes, want %d", i, len(elem), s.k)
				break
			}
		} else if len(elem) != 0 {
			d.Fail("packed slot %d carries a %d-byte element", i, len(elem))
			break
		}
		sl.elem = string(elem)
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.n = int(n)
	s.rng.state = rngState
	s.win = win
	copy(s.slots, slots)
	return nil
}

func (c *CCSketch) exportState(enc *persist.Encoder) {
	enc.I64(int64(c.n))
	exportWin(enc, &c.win)
	enc.U32s(c.counts)
}

func (c *CCSketch) stateSize() int { return 8 + winStateSize(&c.win) + 4 + 4*len(c.counts) }

func (c *CCSketch) importState(d *persist.Decoder) error {
	n := d.I64()
	if d.Err() == nil && n < 0 {
		d.Fail("negative element count %d", n)
	}
	win := newKgramWin(c.k)
	importWin(d, &win)
	if cnt := d.U32(); d.Err() == nil && int(cnt) != len(c.counts) {
		d.Fail("sketch state has %d counters, sketch has %d", cnt, len(c.counts))
	}
	counts := make([]uint32, len(c.counts))
	for i := range counts {
		counts[i] = d.U32()
	}
	if err := d.Err(); err != nil {
		return err
	}
	c.n = int(n)
	c.win = win
	copy(c.counts, counts)
	return nil
}
