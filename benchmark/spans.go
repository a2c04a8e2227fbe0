package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one traced interval. Spans are recorded by the harness around
// its calls into each layer (tracing inside the program is a later
// change), kept in memory, and written as JSONL when the run ends.
// Count is how many items the interval processed, so a span around a
// chunk of 40 datagrams costs two clock reads, not eighty.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder was made
	End    int64  `json:"end"`
	Count  int    `json:"count"`
}

// spanRecorder collects spans. A nil recorder records nothing and reads
// no clock: the staged replay runs once with and once without one, and
// the difference is trace.overhead_ratio.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *spanRecorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id, noting how many items it covered, and returns
// how long it was open.
func (r *spanRecorder) end(id, count int) int64 {
	if r == nil {
		return 0
	}
	s := &r.spans[id-1]
	s.End, s.Count = int64(time.Since(r.t0)), count
	return s.End - s.Start
}

// total sums the duration and item count of every span called name.
func (r *spanRecorder) total(name string) (ns int64, count int) {
	if r == nil {
		return 0, 0
	}
	for i := range r.spans {
		if r.spans[i].Name == name {
			ns += r.spans[i].End - r.spans[i].Start
			count += r.spans[i].Count
		}
	}
	return ns, count
}

// perItem is total(name) as nanoseconds per item (0 with no items).
func (r *spanRecorder) perItem(name string) float64 {
	ns, n := r.total(name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
