package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's own calls into a layer. Spans of one simulation job share Job.
//
// A span with Calls > 0 is an aggregate: Calls timed calls made one after
// another on one goroutine, all inside [Start, End), whose durations sum to
// Busy. The trace layer is recorded this way because a run makes hundreds
// of thousands of generator calls; keeping each as its own span would cost
// more memory than the simulation.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// Recorder keeps spans in memory until the benchmark writes them out. It is
// safe for concurrent use (the scheduler runs jobs on several workers).
type Recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
	jobs  int
}

// NewRecorder starts a recorder whose timestamps count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Now returns nanoseconds since the recorder's origin.
func (r *Recorder) Now() int64 { return int64(time.Since(r.origin)) }

// NewJob returns a fresh job id.
func (r *Recorder) NewJob() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs++
	return r.jobs
}

// Add stores a finished span, assigns its id and returns it.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Open starts a span now and returns its id, so that child spans can name
// it as their parent before it ends.
func (r *Recorder) Open(job, parent int, name string) int {
	return r.Add(Span{Parent: parent, Job: job, Name: name, Start: r.Now()})
}

// Close ends the span with the given id now and returns its duration in
// seconds.
func (r *Recorder) Close(id int) float64 {
	end := r.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	return float64(s.End-s.Start) / 1e9
}

// Time runs fn inside a span and returns the span's id.
func (r *Recorder) Time(job, parent int, name string, fn func()) int {
	id := r.Open(job, parent, name)
	fn()
	r.Close(id)
	return id
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes the spans of every recorder to path, one JSON object per
// line; "rep" is the recorder's index (one recorder per traced repetition).
func writeSpans(path string, recs []*Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, r := range recs {
		for _, s := range r.Spans() {
			line := struct {
				Rep int `json:"rep"`
				Span
			}{i, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// SelfTimes returns each span's self time in nanoseconds, keyed by span id:
// its duration minus the part of its interval that its children cover. Plain
// children count as the union of their intervals clipped to the parent, so
// overlapping children (jobs on parallel workers) are not subtracted twice;
// aggregate children subtract their Busy time. An aggregate span's own self
// time is its Busy time.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Calls > 0 {
			out[s.ID] = s.Busy
			continue
		}
		var plain [][2]int64
		self := s.End - s.Start
		for _, c := range children[s.ID] {
			if c.Calls > 0 {
				self -= c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				plain = append(plain, [2]int64{lo, hi})
			}
		}
		self -= unionLength(plain)
		out[s.ID] = max(self, 0)
	}
	return out
}

// unionLength is the total length covered by a set of half-open intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		switch {
		case !started || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// layerSeconds sums the self time of every span with the given name.
func layerSeconds(spans []Span, self map[int]int64, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += self[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// spanSeconds sums the full duration of every span with the given name.
func spanSeconds(spans []Span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}
