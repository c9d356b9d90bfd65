package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory for the whole traced run and are written once, at exit.
type span struct {
	id, parent int // parent 0 means a root
	name       string
	tid        int // display track: 0 the main thread, 1..workers the grid workers
	start, end time.Duration
	args       map[string]any
}

// spans records spans relative to one epoch. A nil *spans records
// nothing, so untraced runs pay one nil check per call site.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent, tid int, args map[string]any) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{id: len(s.list) + 1, parent: parent, name: name, tid: tid, start: now, args: args})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.list[id-1].end = now
	s.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time, which callers
// use as the layer measurement itself: the span and the number agree.
func (s *spans) timed(name string, parent int, fn func()) time.Duration {
	id := s.begin(name, parent, 0, nil)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end(id)
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children on several workers overlap, so the
// covered part is the union of their intervals, not their sum).
func selfTimes(list []span) []time.Duration {
	kids := map[int][]span{}
	for _, sp := range list {
		if sp.parent != 0 {
			kids[sp.parent] = append(kids[sp.parent], sp)
		}
	}
	self := make([]time.Duration, len(list))
	for i, sp := range list {
		cs := kids[sp.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.start, sp.start), min(c.end, sp.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// summary prints total and self time per span name.
func (s *spans) summary(w io.Writer) {
	self := selfTimes(s.list)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for i, sp := range s.list {
		a := by[sp.name]
		if a == nil {
			a = &agg{}
			by[sp.name] = a
			names = append(names, sp.name)
		}
		a.n++
		a.total += sp.end - sp.start
		a.self += self[i]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %7d %12.1f %12.1f\n", n, a.n,
			float64(a.total.Microseconds())/1e3, float64(a.self.Microseconds())/1e3)
	}
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto), one track per tid.
func (s *spans) writeChrome(path string, workers int) error {
	b := trace.NewChromeBuilder("perfbench")
	b.Thread(0, "main")
	for i := 1; i <= workers; i++ {
		b.Thread(i, fmt.Sprintf("grid worker %d", i))
	}
	for _, sp := range s.list {
		b.Slice(sp.tid, sp.name, "perfbench", sp.start.Microseconds(),
			(sp.end - sp.start).Microseconds(), sp.args)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
