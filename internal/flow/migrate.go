package flow

import (
	"fmt"
	"sort"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/entest"
	"iustitia/internal/persist"
)

// This file is the engine's live-migration surface, the payload behind
// persist.KindMigration frames: a *filtered* export of flow state — the
// pending (mid-buffer) flows matched by a predicate plus their
// classification-database records — that a losing node hands to the
// gaining node when a consistent-hash arc moves between live nodes.
// Unlike a checkpoint (§7), a migration export *removes* the matched
// state from the source engine: after the handoff exactly one node holds
// each flow, so mid-flow verdicts and inactivity (λ) estimates survive a
// rebalance instead of being re-derived from a cold start.
//
// Accounting follows the checkpoint convention: removing a pending flow
// decrements the source's Admitted (mirroring how checkpoints exclude
// pending flows from exported Admitted) and installing it increments the
// destination's, so Admitted == Classified + Fallback + Dropped + Pending
// holds on both engines throughout. MigratedIn/MigratedOut count the
// moved flows for the cluster soak's assertions.

// pendingExport is one mid-buffer flow in wire-portable form; seen carries
// the stream-mode byte tally so the classification trigger survives the
// move. On the export side it references the flow's live state — buf,
// headerTail and sv are the flow's own, not copies — so it is encoded
// while nothing else can touch the flow: under its shard's lock
// (ExportPending) or after the flow has been retired (takeFlows). On the
// decode side sketch holds the flow's sketch state and sv is nil. A flow
// carries a buffer (exact mode) or sketch state (stream mode), not both.
type pendingExport struct {
	id          ID
	firstSeen   time.Duration
	lastSeen    time.Duration
	packets     int
	skipLeft    int
	seen        int
	checkedHdr  bool
	headerCont  bool
	headerSpent int
	buf         []byte
	headerTail  []byte
	sv          *entest.StreamVector
	sketch      []byte
}

// pendingOf views a live pending flow for export, without copying its
// buffer, header tail or sketch.
func pendingOf(id ID, fl *pending) pendingExport {
	return pendingExport{
		id:          id,
		firstSeen:   fl.firstSeen,
		lastSeen:    fl.lastSeen,
		packets:     fl.packets,
		skipLeft:    fl.skipLeft,
		seen:        fl.seen,
		checkedHdr:  fl.checkedHdr,
		headerCont:  fl.headerCont,
		headerSpent: fl.headerSpent,
		buf:         fl.buf,
		headerTail:  fl.headerTail,
		sv:          fl.sv,
	}
}

// wireSize is the exact number of bytes encodeFlowExport writes for p.
func (p *pendingExport) wireSize() int {
	n := pendingExportWire + len(p.buf) + len(p.headerTail) + len(p.sketch)
	if p.sv != nil {
		n += p.sv.StateSize()
	}
	return n
}

// flowExport is a migration payload: pending flows plus CDB records, both
// filtered by the same predicate.
type flowExport struct {
	pendings []pendingExport
	records  []cdbEntry
}

const (
	pendFlagCheckedHdr = 1 << 0
	pendFlagHeaderCont = 1 << 1
)

// encodeFlowExport serializes a migration payload in one pass into a
// buffer sized once: every flow's buffer, header tail and sketch state
// are written in place, with no per-flow intermediate copy. Hand it to
// persist.Encode / persist.SaveFile under persist.KindMigration.
func encodeFlowExport(fx flowExport) []byte {
	size := 4 + 4 + 4 + 4 + cdbRecordWire*len(fx.records)
	for i := range fx.pendings {
		size += fx.pendings[i].wireSize()
	}
	var enc persist.Encoder
	enc.Grow(size)
	enc.U32(uint32(corpus.NumClasses))
	enc.U32(uint32(len(fx.pendings)))
	for i := range fx.pendings {
		p := &fx.pendings[i]
		enc.Raw(p.id[:])
		enc.I64(int64(p.firstSeen))
		enc.I64(int64(p.lastSeen))
		enc.I64(int64(p.packets))
		enc.I64(int64(p.skipLeft))
		var flags uint8
		if p.checkedHdr {
			flags |= pendFlagCheckedHdr
		}
		if p.headerCont {
			flags |= pendFlagHeaderCont
		}
		enc.U8(flags)
		enc.I64(int64(p.headerSpent))
		enc.I64(int64(p.seen))
		enc.Blob(p.buf)
		enc.Blob(p.headerTail)
		if p.sv != nil {
			mark := enc.BlobStart()
			p.sv.AppendState(&enc)
			enc.BlobEnd(mark)
		} else {
			enc.Blob(p.sketch)
		}
	}
	mark := enc.BlobStart()
	appendCDBEntries(&enc, fx.records)
	enc.BlobEnd(mark)
	return enc.Bytes()
}

// pendingExportWire is the fixed-size portion of one encoded pending
// flow, used to validate the declared count before allocating.
const pendingExportWire = 20 + 5*8 + 1 + 8 + 3*4

// decodeFlowExport parses a migration payload. Hostile input returns an
// error wrapping persist.ErrCorrupt — never a panic.
func decodeFlowExport(data []byte) (flowExport, error) {
	var fx flowExport
	d := persist.NewDecoder(data)
	nClasses := int(d.U32())
	if d.Err() == nil && nClasses != corpus.NumClasses {
		d.Fail("migration payload has %d classes, engine has %d", nClasses, corpus.NumClasses)
	}
	n := d.Count(pendingExportWire)
	if n >= 0 {
		fx.pendings = make([]pendingExport, 0, n)
		for i := 0; i < n; i++ {
			var p pendingExport
			copy(p.id[:], d.Take(len(p.id)))
			p.firstSeen = time.Duration(d.I64())
			p.lastSeen = time.Duration(d.I64())
			p.packets = int(d.I64())
			p.skipLeft = int(d.I64())
			flags := d.U8()
			p.checkedHdr = flags&pendFlagCheckedHdr != 0
			p.headerCont = flags&pendFlagHeaderCont != 0
			p.headerSpent = int(d.I64())
			p.seen = int(d.I64())
			p.buf = append([]byte(nil), d.Blob()...)
			p.headerTail = append([]byte(nil), d.Blob()...)
			p.sketch = append([]byte(nil), d.Blob()...)
			if d.Err() != nil {
				break
			}
			if p.firstSeen < 0 || p.lastSeen < 0 || p.packets < 0 || p.headerSpent < 0 || p.seen < 0 {
				d.Fail("pending flow %d has negative time or count", i)
				break
			}
			fx.pendings = append(fx.pendings, p)
		}
	}
	blob := d.Blob()
	if err := d.Finish(); err != nil {
		return flowExport{}, fmt.Errorf("flow: migration import: %w", err)
	}
	records, err := decodeCDBEntries(blob)
	if err != nil {
		return flowExport{}, fmt.Errorf("flow: migration import: %w", err)
	}
	fx.records = records
	return fx, nil
}

// takeFlows removes every pending flow and CDB record whose ID matches
// pred and returns them, deterministically ordered. The removed pending
// flows decrement admitted (the checkpoint convention) and count as
// MigratedOut. The returned flows are retired, so the export references
// their state without copying and is encoded without the engine lock.
func (e *Engine) takeFlows(pred func(ID) bool) flowExport {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fx flowExport
	for id, fl := range e.pend {
		if !pred(id) {
			continue
		}
		fx.pendings = append(fx.pendings, pendingOf(id, fl))
		e.retireLocked(id, fl)
		e.ec.admitted.Add(-1)
		e.ec.migratedOut.Add(1)
	}
	sortPendings(fx.pendings)
	fx.records = e.cdb.takeEntries(pred)
	// A migrated verdict must be readable on exactly one node: drop the
	// moved flows from the local ground-truth map so RecordedLabel stops
	// answering for them here.
	if e.labelled != nil {
		for _, ent := range fx.records {
			delete(e.labelled, ent.id)
		}
	}
	return fx
}

func sortPendings(ps []pendingExport) {
	sort.Slice(ps, func(i, j int) bool { return string(ps[i].id[:]) < string(ps[j].id[:]) })
}

// convertModeLocked reconciles an imported flow's payload state with this
// engine's mode. Same-mode imports restore directly: a sketch blob decodes
// into a fresh StreamVector, a buffer is kept as-is. Cross-mode imports
// convert what is convertible — a buffered prefix replays into a fresh
// sketch (exact → stream), while a sketch arriving at a buffered engine is
// discarded (payload bytes are unrecoverable from counters) and the flow
// resumes buffering from zero. A sketch blob that fails to decode (foreign
// counter geometry, corruption) likewise resets the flow's stream state
// rather than poisoning estimates. Caller holds e.mu.
func (e *Engine) convertModeLocked(fl *pending, sketch []byte) {
	if !e.streaming() {
		fl.seen = 0
		return
	}
	if len(sketch) > 0 {
		if sv, err := entest.NewStreamVectorConfig(e.scfg); err == nil {
			if err := sv.ImportState(sketch); err == nil {
				fl.sv = sv
				fl.buf = nil
				return
			}
		}
	}
	if len(fl.buf) > 0 {
		if sv, err := entest.NewStreamVectorConfig(e.scfg); err == nil {
			sv.Write(fl.buf)
			fl.sv = sv
			fl.seen = len(fl.buf)
			fl.buf = nil
			return
		}
	}
	fl.sv = nil
	fl.buf = nil
	fl.seen = 0
}

// installFlows adds a decoded export to this engine. Installed pending
// flows increment admitted (balancing takeFlows/checkpoint accounting);
// when migration is true they also count as MigratedIn. A pending flow
// already present locally is skipped — the local copy is newer. Returns
// how many pending flows plus records landed.
func (e *Engine) installFlows(fx flowExport, migration bool) int {
	e.mu.Lock()
	moved := 0
	for _, p := range fx.pendings {
		if _, exists := e.pend[p.id]; exists {
			continue
		}
		if e.cfg.MaxPending > 0 && len(e.pend) >= e.cfg.MaxPending {
			e.evictOneLocked(p.lastSeen)
		}
		fl := &pending{
			buf:         p.buf,
			seen:        p.seen,
			skipLeft:    p.skipLeft,
			checkedHdr:  p.checkedHdr,
			headerCont:  p.headerCont,
			headerTail:  p.headerTail,
			headerSpent: p.headerSpent,
			firstSeen:   p.firstSeen,
			lastSeen:    p.lastSeen,
			packets:     p.packets,
		}
		e.convertModeLocked(fl, p.sketch)
		fl.elem = e.lru.PushBack(p.id)
		e.pend[p.id] = fl
		e.ec.admitted.Add(1)
		e.ec.pending.Add(1)
		if migration {
			e.ec.migratedIn.Add(1)
		}
		moved++
		// Guard against a buffer-size mismatch between nodes: a flow
		// already at or over this engine's b classifies immediately, since
		// processData would otherwise never trigger it (and the exact path
		// would slice out of bounds).
		if len(fl.buf) >= e.cfg.BufferSize || (e.streaming() && fl.seen >= e.cfg.BufferSize) {
			_, _ = e.classifyLocked(p.id, fl, p.lastSeen)
		}
	}
	e.mu.Unlock()
	if len(fx.records) > 0 {
		moved += e.cdb.installEntries(fx.records)
		if migration {
			e.ec.migratedIn.Add(int64(len(fx.records)))
		}
	}
	return moved
}

// ExportFlows removes and serializes every pending flow and CDB record
// matched by pred — the losing side of a flow-table migration.
func (e *Engine) ExportFlows(pred func(ID) bool) []byte {
	return encodeFlowExport(e.takeFlows(pred))
}

// ImportFlows installs a payload written by ExportFlows — the gaining
// side of a flow-table migration. It returns how many pending flows plus
// CDB records landed. Hostile input returns an error wrapping
// persist.ErrCorrupt and leaves the engine unchanged.
func (e *Engine) ImportFlows(data []byte) (int, error) {
	fx, err := decodeFlowExport(data)
	if err != nil {
		return 0, err
	}
	return e.installFlows(fx, true), nil
}

// ExportFlows removes and serializes every matching pending flow and CDB
// record across all shards into one flat payload. The payload is not
// shard-pinned: ImportFlows re-routes every flow by ID, so source and
// destination may run different shard counts.
func (pe *ParallelEngine) ExportFlows(pred func(ID) bool) []byte {
	var all flowExport
	for _, shard := range pe.shards {
		fx := shard.takeFlows(pred)
		all.pendings = append(all.pendings, fx.pendings...)
		all.records = append(all.records, fx.records...)
	}
	sortPendings(all.pendings)
	sortCDBEntries(all.records)
	return encodeFlowExport(all)
}

// ImportFlows installs a migration payload, routing each flow to its
// shard by ID.
func (pe *ParallelEngine) ImportFlows(data []byte) (int, error) {
	fx, err := decodeFlowExport(data)
	if err != nil {
		return 0, err
	}
	perShard := make([]flowExport, len(pe.shards))
	for _, p := range fx.pendings {
		i := pe.shardIndex(p.id)
		perShard[i].pendings = append(perShard[i].pendings, p)
	}
	for _, ent := range fx.records {
		i := pe.shardIndex(ent.id)
		perShard[i].records = append(perShard[i].records, ent)
	}
	moved := 0
	for i, shard := range pe.shards {
		moved += shard.installFlows(perShard[i], true)
	}
	return moved, nil
}

// ExportPending snapshots every shard's pending flows without removing
// them — the in-flight section of a node checkpoint (the CDB and
// counters travel in the engine checkpoint alongside). Every flow's live
// state is written straight into the payload, so ExportPending holds every
// shard's lock through the sort and the encode, which also makes the
// snapshot one consistent cut across shards.
//
// Lock order: shard locks are taken in shard-index order. This is the only
// site that holds more than one shard lock; any other must take them in the
// same order.
func (pe *ParallelEngine) ExportPending() []byte {
	n := 0
	for _, shard := range pe.shards {
		shard.mu.Lock()
		n += len(shard.pend)
	}
	defer func() {
		for _, shard := range pe.shards {
			shard.mu.Unlock()
		}
	}()
	ps := make([]pendingExport, 0, n)
	for _, shard := range pe.shards {
		for id, fl := range shard.pend {
			ps = append(ps, pendingOf(id, fl))
		}
	}
	sortPendings(ps)
	return encodeFlowExport(flowExport{pendings: ps})
}

// ImportPending installs a payload written by ExportPending into a
// freshly restored engine. Unlike ImportFlows it does not count the
// flows as migrated: they never left the node, they survived its crash.
func (pe *ParallelEngine) ImportPending(data []byte) (int, error) {
	fx, err := decodeFlowExport(data)
	if err != nil {
		return 0, err
	}
	perShard := make([]flowExport, len(pe.shards))
	for _, p := range fx.pendings {
		i := pe.shardIndex(p.id)
		perShard[i].pendings = append(perShard[i].pendings, p)
	}
	for _, ent := range fx.records {
		i := pe.shardIndex(ent.id)
		perShard[i].records = append(perShard[i].records, ent)
	}
	moved := 0
	for i, shard := range pe.shards {
		moved += shard.installFlows(perShard[i], false)
	}
	return moved, nil
}
