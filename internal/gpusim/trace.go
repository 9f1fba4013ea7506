package gpusim

import (
	"fmt"
	"math"
	"strings"
)

// Schedule tracing: the intervals schedule emits, kept so the Fig. 1a
// schedule pictures can be rendered (compute stream c, memcpy stream m,
// with the arrows from each kernel to its activation offload).

// StreamID distinguishes the two GPU streams of Fig. 1a.
type StreamID int

const (
	// StreamCompute is the kernel stream.
	StreamCompute StreamID = iota
	// StreamMemcpy is the DMA/offload stream.
	StreamMemcpy
)

// Event is one interval on a stream, in seconds from the start of its
// pass.
type Event struct {
	Stream   StreamID
	Name     string
	Start    float64
	End      float64
	Backward bool // backward pass (prefetches and gradient kernels)
}

// Trace is the recorded forward-pass schedule.
type Trace struct {
	Scheme   string
	Events   []Event
	Makespan float64
}

// TraceForward records the forward-pass schedule of w under s.
func TraceForward(w Workload, s Scheme, cfg Config) Trace {
	tr := Trace{Scheme: s.Name}
	tr.Makespan = schedule(w, s, cfg, math.Inf(1), func(e Event) {
		if !e.Backward {
			tr.Events = append(tr.Events, e)
		}
	}).Forward
	return tr
}

// Render draws the trace as a two-row ASCII Gantt chart of the given
// width, the textual equivalent of Fig. 1a: '#' marks compute kernels,
// '=' marks offloads, '.' marks idle time.
func (t Trace) Render(width int) string {
	if width < 10 {
		width = 10
	}
	rows := map[StreamID][]byte{
		StreamCompute: bytesOf('.', width),
		StreamMemcpy:  bytesOf('.', width),
	}
	mark := map[StreamID]byte{StreamCompute: '#', StreamMemcpy: '='}
	for _, e := range t.Events {
		a := int(e.Start / t.Makespan * float64(width))
		b := int(e.End / t.Makespan * float64(width))
		if b <= a {
			b = a + 1
		}
		if b > width {
			b = width
		}
		for i := a; i < b; i++ {
			rows[e.Stream][i] = mark[e.Stream]
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s c %s\n", t.Scheme, rows[StreamCompute])
	fmt.Fprintf(&sb, "%-10s m %s\n", "", rows[StreamMemcpy])
	return sb.String()
}

func bytesOf(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Utilization returns the busy fraction of each stream over the makespan.
func (t Trace) Utilization() (compute, memcpy float64) {
	var c, m float64
	for _, e := range t.Events {
		d := e.End - e.Start
		if e.Stream == StreamCompute {
			c += d
		} else {
			m += d
		}
	}
	if t.Makespan == 0 {
		return 0, 0
	}
	return c / t.Makespan, m / t.Makespan
}
