package flow

import (
	"errors"

	"iustitia/internal/packet"
)

// This file is the batched front end of ParallelEngine: ProcessBatch
// partitions a packet batch across shards in one pass and processes each
// shard's slice inline, on the caller's goroutine.
//
// Parallelism comes from the callers: several goroutines may call
// ProcessBatch at once (the ingest server runs one per worker), and shards
// never share state, so callers whose flows land on different shards never
// contend. Ordering: all packets of one flow route to one shard and a
// batch's per-shard slice preserves submission order, so per-flow
// processing order is exactly submission order as long as one flow's
// packets are submitted by one goroutine (the same contract Process has;
// the ingest server routes flows to workers with ID.Route for precisely
// this reason).
//
// Conservation: every admitted packet reaches Engine.ProcessID exactly
// once, so the §6 law Admitted == Classified + Fallback + Dropped + Pending
// and the transport law Received == Admitted + Quarantined + Shed keep
// holding.

// batchEntry is one routed packet: the flow ID is computed once during
// partitioning and reused by the shard.
type batchEntry struct {
	id  ID
	pkt *packet.Packet
}

// batchScratch is the pooled partition buffer of one in-flight batch: one
// append slice per shard.
type batchScratch struct {
	perShard [][]batchEntry
}

// getScratch returns a partition buffer shaped for this engine's shard
// count.
func (pe *ParallelEngine) getScratch() *batchScratch {
	sc, _ := pe.scratch.Get().(*batchScratch)
	if sc == nil || len(sc.perShard) != len(pe.shards) {
		sc = &batchScratch{perShard: make([][]batchEntry, len(pe.shards))}
	}
	return sc
}

// putScratch empties the partition buffer, dropping its packet pointers,
// and returns it to the pool.
func (pe *ParallelEngine) putScratch(sc *batchScratch) {
	for i := range sc.perShard {
		clear(sc.perShard[i])
		sc.perShard[i] = sc.perShard[i][:0]
	}
	pe.scratch.Put(sc)
}

// ProcessBatch routes every packet of batch to its flow's shard in a
// single partition pass (one SHA-1 per packet, total), then processes each
// shard's slice inline. The per-packet errors come back joined, with the
// count of failed packets; a nil packet fails the whole batch before any
// packet is processed.
//
// Packets of one flow must be submitted from one goroutine for per-flow
// order to be defined, exactly as with Process. The packets may be reused
// once ProcessBatch returns.
func (pe *ParallelEngine) ProcessBatch(batch []*packet.Packet) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	for _, p := range batch {
		if p == nil {
			return len(batch), errors.New("flow: nil packet in batch")
		}
		id := IDOf(p.Tuple)
		s := id.Route(len(pe.shards))
		sc.perShard[s] = append(sc.perShard[s], batchEntry{id: id, pkt: p})
	}

	var (
		failed int
		errs   []error
	)
	for s, entries := range sc.perShard {
		shard := pe.shards[s]
		for _, e := range entries {
			if _, err := shard.ProcessID(e.id, e.pkt); err != nil {
				failed++
				errs = append(errs, err)
			}
		}
	}
	return failed, errors.Join(errs...)
}
