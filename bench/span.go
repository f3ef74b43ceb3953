package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one recorded interval around a call into a layer. Times are
// offsets from the recorder's start. Spans on one lane nest; a span whose
// parent sits on another lane (a client goroutine under the burst span) is
// the root of its own lane.
type span struct {
	Name   string
	Lane   int
	Parent int // index into recorder.spans, -1 for the run root
	Job    string
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. With on == false it
// records nothing, and a handle is just a stopwatch — the end-to-end pass
// and the traced pass share every call site.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes []string
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), lanes: []string{"main"}}
}

// handle is an open span (or, with tracing off, a running stopwatch).
type handle struct {
	r      *recorder
	id     int
	parent int
	lane   int
	t0     time.Time
}

// lane registers a named lane for a concurrent actor.
func (r *recorder) lane(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes = append(r.lanes, name)
	return len(r.lanes) - 1
}

// root opens the run's root span on lane 0.
func (r *recorder) root(name string) handle { return r.open(name, -1, 0, "", time.Now()) }

func (r *recorder) open(name string, parent, lane int, job string, at time.Time) handle {
	h := handle{r: r, id: -1, parent: parent, lane: lane, t0: at}
	if !r.on {
		return h
	}
	r.mu.Lock()
	h.id = len(r.spans)
	r.spans = append(r.spans, span{Name: name, Lane: lane, Parent: parent, Job: job,
		Start: h.t0.Sub(r.t0), End: -1})
	r.mu.Unlock()
	return h
}

// child opens a span under h on h's lane.
func (h handle) child(name string) handle { return h.r.open(name, h.id, h.lane, "", time.Now()) }

// childOn opens a span under h on another lane, tagged with a job id.
func (h handle) childOn(name string, lane int, job string) handle {
	return h.r.open(name, h.id, lane, job, time.Now())
}

// end closes the span and returns its duration.
func (h handle) end() time.Duration { return h.endAt(time.Now()) }

func (h handle) endAt(now time.Time) time.Duration {
	if h.id >= 0 {
		h.r.mu.Lock()
		h.r.spans[h.id].End = now.Sub(h.r.t0)
		h.r.mu.Unlock()
	}
	return now.Sub(h.t0)
}

// next closes h and opens a sibling that starts at the same instant, so the
// consecutive phases of one operation leave no gap between them.
func (h handle) next(name string) (time.Duration, handle) {
	now := time.Now()
	return h.endAt(now), h.r.open(name, h.parent, h.lane, "", now)
}

// selfTimes returns, per span, its duration minus the part of it that child
// spans on the same lane cover (the union of their intervals, clipped to the
// parent).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Lane == s.Lane {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// laneRoot reports whether span i starts a lane: it has no parent, or its
// parent runs on another lane.
func laneRoot(spans []span, i int) bool {
	p := spans[i].Parent
	return p < 0 || spans[p].Lane != spans[i].Lane
}

// checkSelfTimes verifies the accounting the per-layer numbers rest on: on
// every lane the self times of a root's subtree must add up to the root's own
// duration within tol (they do exactly unless a span was left open or a child
// outlived its parent). It returns the worst relative gap.
func checkSelfTimes(spans []span, tol float64) (float64, error) {
	for i, s := range spans {
		if s.End < s.Start {
			return math.Inf(1), fmt.Errorf("span %q (#%d) was never closed", s.Name, i)
		}
	}
	self := selfTimes(spans)
	sum := make([]time.Duration, len(spans)) // accumulated at each lane root
	rootOf := make([]int, len(spans))
	for i := range spans { // parents precede children
		if laneRoot(spans, i) {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[spans[i].Parent]
		}
		sum[rootOf[i]] += self[i]
	}
	worst := 0.0
	for i, s := range spans {
		if !laneRoot(spans, i) || s.End == s.Start {
			continue
		}
		gap := math.Abs(float64(sum[i]-(s.End-s.Start))) / float64(s.End-s.Start)
		if gap > worst {
			worst = gap
		}
		if gap > tol {
			return worst, fmt.Errorf("lane %d: self times under %q sum to %v, span lasted %v (gap %.1f%%)",
				s.Lane, s.Name, sum[i], s.End-s.Start, gap*100)
		}
	}
	return worst, nil
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d.Seconds()
	}
	return out
}

// writeChromeTrace exports the spans through internal/telemetry's Chrome
// trace_event writer, one track per lane.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	tr := telemetry.NewTracer()
	tracks := make([]int, len(r.lanes))
	for i := 1; i < len(r.lanes); i++ {
		tracks[i] = tr.NewTrack(r.lanes[i])
	}
	for _, s := range r.spans {
		name := s.Name
		if s.Job != "" {
			name += " " + s.Job
		}
		tr.RecordSpan(name, tracks[s.Lane], s.Start, s.End-s.Start)
	}
	return tr.WriteChromeTrace(w)
}
