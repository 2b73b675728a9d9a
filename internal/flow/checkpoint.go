package flow

import (
	"fmt"

	"iustitia/internal/corpus"
	"iustitia/internal/persist"
)

// This file is the engine's crash-recovery surface, the payload behind
// persist.KindCheckpoint snapshots: the governor counters plus a full
// CDB export. Restoring a checkpoint into a fresh engine makes already
// classified flows hit the CDB path again — no re-buffering, no
// re-classification — and keeps the PR-1 accounting invariant
// (Admitted == Classified + Fallback + Dropped + Pending) true across
// the restart. Pending buffers are deliberately not persisted: a flow
// that was mid-buffer when the process died simply re-admits itself
// when its next packet arrives, so exported Admitted excludes flows
// that were still pending.

// ExportCheckpoint serializes the engine's durable state: counters and
// the classification database. Frame it with persist.Encode or hand it
// to persist.SaveFile under persist.KindCheckpoint.
func (e *Engine) ExportCheckpoint() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.exportCheckpointLocked()
}

func (e *Engine) exportCheckpointLocked() []byte {
	// e.mu is held, so no counter moves while the snapshot is encoded —
	// atomic loads here read a mutually consistent set.
	r := e.restored.Load()
	var enc persist.Encoder
	enc.U32(uint32(corpus.NumClasses))
	for i := range e.ec.queued {
		enc.I64(e.ec.queued[i].Load() + int64(r.QueueCounts[i]))
	}
	enc.I64(e.ec.classified.Load() + int64(r.Classified))
	// Pending flows are not persisted, so they must not count as admitted
	// in the snapshot or the conservation law breaks on resume.
	enc.I64(e.ec.admitted.Load() + int64(r.Admitted) - int64(len(e.pend)))
	enc.I64(e.ec.shed.Load() + int64(r.Shed))
	enc.I64(e.ec.evicted.Load() + int64(r.Evicted))
	enc.I64(e.ec.dropped.Load() + int64(r.Dropped))
	enc.I64(e.ec.failed.Load() + int64(r.Failed))
	enc.I64(e.ec.fallback.Load() + int64(r.Fallback))
	enc.Blob(e.cdb.exportLocked())
	return enc.Bytes()
}

// ImportCheckpoint restores a checkpoint written by ExportCheckpoint
// into this engine: counters are added to the restored baselines
// reported by Stats, and the CDB records are imported (honouring
// MaxRecords). Hostile input returns an error wrapping
// persist.ErrCorrupt and leaves the engine unchanged.
func (e *Engine) ImportCheckpoint(data []byte) error {
	d := persist.NewDecoder(data)
	var s EngineStats
	nClasses := int(d.U32())
	if d.Err() == nil && nClasses != corpus.NumClasses {
		d.Fail("checkpoint has %d classes, engine has %d", nClasses, corpus.NumClasses)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}
	counters := make([]int64, 0, corpus.NumClasses+7)
	for i := 0; i < corpus.NumClasses+7; i++ {
		counters = append(counters, d.I64())
	}
	blob := d.Blob()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}
	for _, c := range counters {
		if c < 0 {
			return fmt.Errorf("%w: negative checkpoint counter %d", persist.ErrCorrupt, c)
		}
	}
	for i := 0; i < corpus.NumClasses; i++ {
		s.QueueCounts[i] = int(counters[i])
	}
	s.Classified = int(counters[corpus.NumClasses+0])
	s.Admitted = int(counters[corpus.NumClasses+1])
	s.Shed = int(counters[corpus.NumClasses+2])
	s.Evicted = int(counters[corpus.NumClasses+3])
	s.Dropped = int(counters[corpus.NumClasses+4])
	s.Failed = int(counters[corpus.NumClasses+5])
	s.Fallback = int(counters[corpus.NumClasses+6])

	// Validate and import the CDB payload before touching engine state so
	// a corrupt checkpoint leaves the engine untouched.
	if err := e.cdb.Import(blob); err != nil {
		return fmt.Errorf("flow: checkpoint import: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The restored baseline is an immutable snapshot behind an atomic
	// pointer (so the lock-free Stats can fold it in); build the updated
	// copy and publish it whole.
	next := *e.restored.Load()
	next.Classified += s.Classified
	next.Admitted += s.Admitted
	next.Shed += s.Shed
	next.Evicted += s.Evicted
	next.Dropped += s.Dropped
	next.Failed += s.Failed
	next.Fallback += s.Fallback
	for i := range s.QueueCounts {
		next.QueueCounts[i] += s.QueueCounts[i]
	}
	e.restored.Store(&next)
	return nil
}

// maybeCheckpoint fires the configured OnCheckpoint hook when enough
// flows have been classified since the last snapshot. It is called
// outside the engine lock so the hook may call any engine method.
func (e *Engine) maybeCheckpoint() {
	// Read only the two fields fixed at construction: copying all of cfg
	// without the lock races with the live setters (SetMaxPending etc.).
	hook, every := e.cfg.OnCheckpoint, e.cfg.CheckpointEvery
	if hook == nil || every <= 0 {
		return
	}
	e.mu.Lock()
	if e.sinceCkpt < every {
		e.mu.Unlock()
		return
	}
	e.sinceCkpt = 0
	blob := e.exportCheckpointLocked()
	e.mu.Unlock()
	hook(blob)
}
