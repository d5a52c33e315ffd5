package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps the public function it calls. Spans of one epoch
// share that epoch's index; set-up spans carry epoch -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Epoch  int    `json:"epoch"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory. It is single-threaded, like the
// epoch loop it instruments, and a nil recorder records nothing, so the
// untraced run shares the traced run's code at the cost of a nil check.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span ids: the innermost is the next parent
	epoch  int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), epoch: -1} }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Epoch: r.epoch, Name: name, Start: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// setEpoch stamps the spans opened from now on with epoch e.
func (r *recorder) setEpoch(e int) {
	if r != nil {
		r.epoch = e
	}
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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

// layerTimes sums, per span name, the total duration and the self time
// (duration minus the part of its interval covered by its children) of
// the spans keep selects. spans must be the recorder's full list.
func layerTimes(spans []span, keep func(span) bool) (total, self map[string]int64) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return total, self
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// checkTree verifies the span forest is well formed: every span closed,
// children inside their parent's interval and in the parent's epoch
// (spans under the loop span, epoch -1, carry their own epochs).
func checkTree(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || (s.Epoch != p.Epoch && p.Epoch != -1) {
			return fmt.Errorf("span %d %q escapes its parent %d %q", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}
