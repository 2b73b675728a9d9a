package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer boundaries the traced run records a span at. Every span wraps one
// call from this benchmark into a layer's public function; spans inside
// the program itself are not recorded.
type layer uint8

const (
	spanSend         layer = iota // ingest.Client.Send
	spanPreProcess                // ingest.Config.PreProcess (worker dispatch)
	spanFeatures                  // core.Classifier.Features
	spanClassifyVec               // core.Classifier.ClassifyVector
	spanProcessBatch              // flow.ParallelEngine.ProcessBatch (flow replay)
	spanCheckpoint                // ingest.Server.CheckpointNow
	numLayers
)

var layerNames = [numLayers]string{
	"ingest.Client.Send",
	"ingest.PreProcess",
	"core.Classifier.Features",
	"core.Classifier.ClassifyVector",
	"flow.ParallelEngine.ProcessBatch",
	"ingest.Server.CheckpointNow",
}

// span is one recorded call. id is shared by the spans of one packet
// (its virtual time, unique within a run) or one flow (the hash of its
// classified buffer or vector); parent is the id of the enclosing span,
// 0 when none.
type span struct {
	layer         layer
	id, parent    uint64
	start, finish int64 // ns since the tracer's base
}

// serveSampleEvery thins the stored spans of the serve path: every
// layer's totals count all calls, but only packets and flows whose id is
// a multiple of this are kept for the span file, bounding its size. The
// flow replay's spans (batches and their children) and checkpoints are
// all kept: self time is computed from them.
const serveSampleEvery = 64

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer is the untraced run: every method is then a no-op, so the
// hot paths pay one nil check. on gates recording, so the traced run can
// alternate traced and untraced windows to measure its own overhead.
type tracer struct {
	base time.Time
	on   atomic.Bool

	calls [numLayers]atomic.Int64
	ns    [numLayers]atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time) *tracer {
	t := &tracer{base: base}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record adds one finished span.
func (t *tracer) record(l layer, id, parent uint64, start, finish int64) {
	t.calls[l].Add(1)
	t.ns[l].Add(finish - start)
	if parent == 0 && l != spanCheckpoint && l != spanProcessBatch && id%serveSampleEvery != 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: l, id: id, parent: parent, start: start, finish: finish})
	t.mu.Unlock()
}

// meanNs is the mean span duration of a layer, NaN when never called.
func (t *tracer) meanNs(l layer) float64 {
	n := t.calls[l].Load()
	if n == 0 {
		return nan
	}
	return float64(t.ns[l].Load()) / float64(n)
}

// selfNs returns the total self time of a layer's spans: each span's
// duration minus the part of its interval covered by its child spans
// (spans naming it as parent).
func (t *tracer) selfNs(l layer) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ a, b int64 }
	children := map[uint64][]iv{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.finish})
		}
	}
	var self int64
	for _, s := range t.spans {
		if s.layer != l {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
		covered, end := int64(0), s.start
		for _, k := range kids {
			a, b := max(k.a, end), min(k.b, s.finish)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self += s.finish - s.start - covered
	}
	return self
}

// writeFile writes the stored spans as JSON lines, one span per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Layer  string `json:"layer"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{layerNames[s.layer], s.id, s.parent, s.start, s.finish}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
