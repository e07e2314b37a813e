package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call.
type span struct {
	Name string `json:"name"`
	// ID names the cell or request the span belongs to; every span of one
	// operation shares it.
	ID string `json:"id"`
	// Parent is the index of the enclosing span, or -1 for a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return r.spans[i].dur()
}

// add accumulates a count recorded at a layer boundary.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

func (r *recorder) count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// selfTimes returns each finished span's self time, keyed by its index in
// all: its duration minus the part of its interval its children cover.
func selfTimes(all []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range all {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(all))
	for i, s := range all {
		if s.End < 0 {
			continue
		}
		out[i] = s.dur() - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return time.Duration(total + curE - curS)
}

// selfTimeByName sums the self times of the finished spans per name.
func (r *recorder) selfTimeByName() map[string]time.Duration {
	r.mu.Lock()
	all := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sum := map[string]time.Duration{}
	for i, d := range selfTimes(all) {
		sum[all[i].Name] += d
	}
	return sum
}

// write saves every span and count as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{r.spans, r.counts})
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
