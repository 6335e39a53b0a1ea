package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program under test is instrumented). Spans of one
// request share Req; Parent is the id of the span that caused this one, 0
// for a request's root. Times are nanoseconds since the tracer was made.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer hands out span ids and per-goroutine buffers; spans stay in memory
// until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	nextRq atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf collects the spans of one goroutine, so recording takes no lock.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) request() int64 { return t.nextRq.Add(1) }
func (t *tracer) now() int64     { return int64(time.Since(t.epoch)) }

// all returns every recorded span; call it after the goroutines that record
// have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// id reserves a span id, for a parent whose children are recorded before it
// ends.
func (b *spanBuf) id() int32 { return b.t.nextID.Add(1) }

// add records a finished span under a reserved id.
func (b *spanBuf) add(id, parent int32, req int64, name string, start, end int64) {
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// timed runs f inside a new span and returns how long it took.
func (b *spanBuf) timed(name string, parent int32, req int64, f func()) int64 {
	start := b.t.now()
	f()
	end := b.t.now()
	b.add(b.id(), parent, req, name, start, end)
	return end - start
}

// selfTimes gives every span's self time: its duration minus the part its
// child spans cover. Children of one parent do not overlap here (each
// request is replayed by one goroutine), so that part is the sum of their
// durations.
func selfTimes(spans []span) map[int32]int64 {
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50Us  float64 `json:"p50_us"`
	SelfMs float64 `json:"self_ms"`
}

func aggregateSpans(spans []span) []spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfSum := map[string]int64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfSum[s.Name] += self[s.ID]
	}
	out := make([]spanStats, 0, len(durs))
	for name, d := range durs {
		out = append(out, spanStats{Name: name, Count: len(d), P50Us: median(d) / 1e3, SelfMs: float64(selfSum[name]) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
