package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer: its name, start and end (ns since the recorder started), the
// span that was open when it began (-1 for none) and the op it belongs
// to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory; write stores them when the run ends.
// A nil recorder records nothing, so call sites need no guard. It is
// used from one goroutine (rank 0's).
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string, op int64) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: parent, Op: op})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned (spans nest, so it is the
// innermost open one).
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
