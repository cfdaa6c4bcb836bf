package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. name is "<layer>.<call>"; times are nanoseconds
// since the recorder's origin; parent indexes the span that caused it
// (-1 for a root); op groups the spans of one operation (-1 for none).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// recorder keeps spans in memory while a traced pass runs. A nil
// recorder (tracing off) records nothing, so the untraced path pays one
// nil check per call site. It is safe for concurrent use: the serve and
// sharded workloads record from several goroutines.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index (-1 when off).
func (r *recorder) add(name string, start, end time.Time, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: r.ns(start), end: r.ns(end), parent: parent, op: op})
	r.mu.Unlock()
	return i
}

// open records a span whose end is not known yet; close sets it. Use
// for parents, so their children can name them while they run.
func (r *recorder) open(name string, start time.Time, parent int32) int32 {
	return r.add(name, start, start, parent, -1)
}

func (r *recorder) close(i int32, end time.Time) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].end = r.ns(end)
	r.mu.Unlock()
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// layerTimes is the per-layer attribution of one traced pass.
type layerTimes struct {
	self  map[string]float64 // seconds of wall clock owned by the layer
	count map[string]int     // spans recorded per layer
	wall  float64            // seconds covered by root spans
}

// attribute splits wall-clock time among layers. At every instant the
// self-active spans are those running with no running child; each owns
// an equal share of that instant. For a span whose children do not
// overlap each other this is exactly the textbook self time — duration
// minus the union of its children's intervals — and with concurrent
// children (serve sessions, sharded commit workers, in-flight epochs)
// the shares still sum to the wall clock the roots cover, so the layer
// totals add up to the traced pass instead of to a multiple of it.
func attribute(spans []span) layerTimes {
	lt := layerTimes{self: map[string]float64{}, count: map[string]int{}}
	var names []string
	index := map[string]int{}
	layer := make([]int, len(spans))
	type edge struct {
		t     int64
		i     int32
		start bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		name := s.layer()
		lt.count[name]++
		li, ok := index[name]
		if !ok {
			li = len(names)
			index[name] = li
			names = append(names, name)
		}
		layer[i] = li
		if s.end >= s.start {
			edges = append(edges, edge{s.start, int32(i), true}, edge{s.end, int32(i), false})
		}
	}
	// At equal times ends come before starts, so touching intervals do
	// not overlap; parents are recorded before their children, so starts
	// go in index order and ends in reverse.
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		switch {
		case ea.t != eb.t:
			return ea.t < eb.t
		case ea.start != eb.start:
			return !ea.start
		case ea.start:
			return ea.i < eb.i
		default:
			return ea.i > eb.i
		}
	})
	activeKids := make([]int32, len(spans))
	running := make([]bool, len(spans))
	parent := make([]int32, len(spans))   // effective parent, fixed at start
	selfActive := make([]int, len(names)) // per layer: running spans with no running child
	self := make([]float64, len(names))
	total := 0
	var last int64
	for _, e := range edges {
		if dt := e.t - last; dt > 0 && total > 0 {
			sec := float64(dt) / 1e9
			lt.wall += sec
			for li, c := range selfActive {
				if c > 0 {
					self[li] += sec * float64(c) / float64(total)
				}
			}
		}
		last = e.t
		i := e.i
		if e.start {
			p := spans[i].parent
			if p >= 0 && !running[p] {
				p = -1 // parent not running: treat the span as a root
			}
			parent[i] = p
			running[i] = true
			selfActive[layer[i]]++
			total++
			if p >= 0 {
				if activeKids[p] == 0 {
					selfActive[layer[p]]--
					total--
				}
				activeKids[p]++
			}
			continue
		}
		running[i] = false
		if activeKids[i] == 0 {
			selfActive[layer[i]]--
			total--
		}
		if p := parent[i]; p >= 0 && running[p] {
			activeKids[p]--
			if activeKids[p] == 0 {
				selfActive[layer[p]]++
				total++
			}
		}
	}
	for li, name := range names {
		lt.self[name] = self[li]
	}
	return lt
}

// writeSpans writes the spans as tab-separated lines: name, start_ns,
// end_ns, parent, op.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	return bw.Flush()
}
