package main

import (
	"hash/maphash"
	"math"
	"time"

	"iustitia/internal/core"
	"iustitia/internal/corpus"
)

// call is one classify call seen by a shard's classifier. key identifies
// the flow by what was classified: the hash of its buffer (buffered mode)
// or of its entropy vector's bits (stream mode). at is the wall time the
// call returned (ns since the run's base) on the serve path, and the
// global index of the packet whose processing made the call in the
// reference replay (-1 for a drain flush).
type call struct {
	key   uint64
	class int8 // -1: the classifier returned an error
	at    int64
}

// timedClassifier wraps one shard's classifier replica. Verdicts are not
// visible from outside the server, so the wrapper logs every call; the
// log is matched against the reference replay after the run. The engine
// calls a shard's classifier under that shard's lock, so each log has a
// single writer at a time, and it is read only after the server drained.
//
// With a tracer, a buffered classify is split into its two layer calls,
// Features (entropy) and ClassifyVector (core), each recorded as a span.
type timedClassifier struct {
	inner *core.Classifier
	seed  maphash.Seed
	base  time.Time
	tr    *tracer
	// cur, when non-nil, is the reference replay's current packet index,
	// logged instead of a time; parent is the enclosing span's id.
	cur    *int64
	parent *uint64
	log    []call
}

// Classify implements flow.Classifier (the buffered path).
func (c *timedClassifier) Classify(buf []byte) (corpus.Class, error) {
	key := maphash.Bytes(c.seed, buf)
	if !c.tr.enabled() {
		class, err := c.inner.Classify(buf)
		c.record(key, class, err)
		return class, err
	}
	t0 := c.tr.now()
	vec, err := c.inner.Features(buf)
	t1 := c.tr.now()
	c.tr.record(spanFeatures, key, c.parentID(), t0, t1)
	if err != nil {
		c.record(key, 0, err)
		return 0, err
	}
	class, err := c.inner.ClassifyVector(vec)
	c.tr.record(spanClassifyVec, key, c.parentID(), t1, c.tr.now())
	c.record(key, class, err)
	return class, err
}

// ClassifyVector implements flow.VectorClassifier (the stream path).
func (c *timedClassifier) ClassifyVector(vec []float64) (corpus.Class, error) {
	key := vectorKey(c.seed, vec)
	if !c.tr.enabled() {
		class, err := c.inner.ClassifyVector(vec)
		c.record(key, class, err)
		return class, err
	}
	t0 := c.tr.now()
	class, err := c.inner.ClassifyVector(vec)
	c.tr.record(spanClassifyVec, key, c.parentID(), t0, c.tr.now())
	c.record(key, class, err)
	return class, err
}

// FeatureWidths implements flow.VectorClassifier.
func (c *timedClassifier) FeatureWidths() []int { return c.inner.FeatureWidths() }

func (c *timedClassifier) parentID() uint64 {
	if c.parent == nil {
		return 0
	}
	return *c.parent
}

func (c *timedClassifier) record(key uint64, class corpus.Class, err error) {
	cl := int8(class)
	if err != nil {
		cl = -1
	}
	at := int64(time.Since(c.base))
	if c.cur != nil {
		at = *c.cur
	}
	c.log = append(c.log, call{key: key, class: cl, at: at})
}

// vectorKey hashes the exact bits of an entropy vector.
func vectorKey(seed maphash.Seed, vec []float64) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var b [8]byte
	for _, x := range vec {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
