package main

// The span recorder of the traced pass. Spans are recorded only from
// files in this directory, around the calls into each layer; they live in
// memory and are written as Chrome trace-event JSON when the run ends.
//
// Track 0 is the goroutine that drives a training step (or a codec pass,
// or a store client): its spans nest, and their self times are the step's
// cost ledger. Every other track is a background stream (the DMA channel,
// a wire connection) whose spans overlap track 0 in time — the measured
// form of the paper's Fig. 1a — and therefore never enter the ledger.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type spanID int32

const noSpan spanID = -1

// Background tracks.
const (
	trackStep    = 0
	trackChannel = 1
	trackConn    = 2
	trackClient  = 3 // + client index (store_mixed)
)

type span struct {
	Name   string
	Track  int
	Start  int64 // ns since the recorder's epoch
	End    int64
	Parent spanID
	Round  int
	Step   int
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil *recorder is the tracing-off state:
// every method is a no-op, so one loop body serves the traced and the
// untraced pass and their difference is the tracing overhead.
type recorder struct {
	workload string
	epoch    time.Time

	mu     sync.Mutex
	paused bool
	spans  []span
	stack  []spanID // open track-0 spans, innermost last
	round  int
	step   int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// pause stops (or resumes) recording; spans already open still close. A
// pass that repeats one cycle many thousand times records the first few
// and keeps only its counters running for the rest.
func (r *recorder) pause(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.paused = on
	r.mu.Unlock()
}

// at sets the (round, step) identifier stamped on spans opened from now on.
func (r *recorder) at(round, step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round, r.step = round, step
	r.mu.Unlock()
}

// open records a new span. A track-0 span nests under the innermost open
// track-0 span and joins the stack; a background span hangs off the
// outermost one — the step that caused it.
func (r *recorder) open(name string, track int) spanID {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.paused {
		return noSpan
	}
	parent := noSpan
	if n := len(r.stack); n > 0 {
		parent = r.stack[0]
		if track == trackStep {
			parent = r.stack[n-1]
		}
	}
	id := spanID(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Track: track, Start: now, End: now, Parent: parent, Round: r.round, Step: r.step})
	if track == trackStep {
		r.stack = append(r.stack, id)
	}
	return id
}

// begin opens a track-0 span under the innermost open one.
func (r *recorder) begin(name string) spanID { return r.open(name, trackStep) }

// end closes a track-0 span; spans close innermost first.
func (r *recorder) end(id spanID) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
	r.mu.Unlock()
}

// async opens a span on a background track; it shares the identifier of
// the step that was running when it started.
func (r *recorder) async(name string, track int) spanID { return r.open(name, track) }

// endAsync closes a background span.
func (r *recorder) endAsync(id spanID) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of it covered
// by child spans on the same track (children's union, clipped to the
// parent, so overlapping or escaping children are never subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan && spans[s.Parent].Track == s.Track {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// ledgerRow is one root span's cost ledger: its duration and the self
// time of every track-0 span beneath it, summed by name.
type ledgerRow struct {
	Round, Step int
	DurNS       int64
	SelfNS      map[string]int64 // by span name; the root's own self time is under its own name
}

// attributed is the share of the root's duration that named layers
// beneath it account for: 1 minus the root's own (unattributed) self time.
func (l ledgerRow) attributed(root string) float64 {
	if l.DurNS == 0 {
		return 0
	}
	return 1 - float64(l.SelfNS[root])/float64(l.DurNS)
}

// total is the sum of every self time in the row, the root's included;
// it equals DurNS when the spans nest properly.
func (l ledgerRow) total() int64 {
	var t int64
	for _, v := range l.SelfNS {
		t += v
	}
	return t
}

// ledger builds one row per track-0 span named root.
func ledger(spans []span, root string) []ledgerRow {
	self := selfTimes(spans)
	// owner[i] is the index of the root span i sits under, or -1.
	owner := make([]int, len(spans))
	var rows []ledgerRow
	rowOf := map[int]int{}
	for i, s := range spans {
		owner[i] = -1
		if s.Track != trackStep {
			continue
		}
		switch {
		case s.Name == root:
			owner[i] = i
			rowOf[i] = len(rows)
			rows = append(rows, ledgerRow{Round: s.Round, Step: s.Step, DurNS: s.dur(), SelfNS: map[string]int64{}})
		case s.Parent != noSpan:
			owner[i] = owner[s.Parent] // parents always precede children
		}
		if owner[i] >= 0 {
			rows[rowOf[owner[i]]].SelfNS[s.Name] += self[i]
		}
	}
	return rows
}

// perRow returns name's self time in milliseconds for each ledger row.
func perRow(rows []ledgerRow, name string) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = float64(r.SelfNS[name]) / 1e6
	}
	return out
}

// durationsMS returns the durations (ms) of every span with the name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`  // microseconds
	Dur  float64    `json:"dur"` // microseconds
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Step     int    `json:"step"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
}

// writeChromeTrace writes every recorder's spans to path, one process id
// per workload, one thread id per track.
func writeChromeTrace(path string, recs []*recorder) error {
	events := []chromeEvent{}
	for pid, r := range recs {
		for id, s := range r.snapshot() {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				PID: pid + 1, TID: s.Track,
				Args: chromeArgs{r.workload, s.Round, s.Step, id, int(s.Parent)},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
