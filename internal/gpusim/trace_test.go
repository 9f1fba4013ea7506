package gpusim

import (
	"math"
	"strings"
	"testing"
)

func TestTraceMatchesSimulate(t *testing.T) {
	cfg := TitanV(4)
	for _, w := range Workloads() {
		for _, s := range allSchemes() {
			var last [2]float64 // end of the latest event of each pass
			res := schedule(w, s, cfg, math.Inf(1), func(e Event) {
				p := 0
				if e.Backward {
					p = 1
				}
				last[p] = math.Max(last[p], e.End)
			})
			if base := Simulate(w, s, cfg); res.Result != base || last != [2]float64{base.Forward, base.Backward} {
				t.Fatalf("%s/%s: events end at %v, schedule %+v, simulate %+v", w.Name, s.Name, last, res.Result, base)
			}
			if tr := TraceForward(w, s, cfg); tr.Makespan != res.Forward {
				t.Fatalf("%s/%s: trace makespan %v vs %v", w.Name, s.Name, tr.Makespan, res.Forward)
			}
		}
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	cfg := TitanV(4)
	for _, w := range Workloads() {
		for _, s := range allSchemes() {
			var events []Event
			schedule(w, s, cfg, math.Inf(1), func(e Event) { events = append(events, e) })
			var n [2]int
			var lastByStream [2][2]float64 // [pass][stream]
			for i, e := range events {
				p := 0
				if e.Backward {
					p = 1
				} else if n[1] > 0 {
					t.Fatalf("%s/%s: forward event %+v after backward began", w.Name, s.Name, e)
				}
				n[p]++
				if e.End <= e.Start {
					t.Fatalf("%s/%s: empty event %+v", w.Name, s.Name, e)
				}
				if e.Start < lastByStream[p][e.Stream]-1e-15 {
					t.Fatalf("%s/%s: stream %d events overlap at %v", w.Name, s.Name, e.Stream, e.Start)
				}
				lastByStream[p][e.Stream] = e.End
				// A backward kernel starts no earlier than its prefetch lands.
				if e.Backward && e.Stream == StreamMemcpy && events[i+1].Start < e.End {
					t.Fatalf("%s/%s: %s runs before %s lands", w.Name, s.Name, events[i+1].Name, e.Name)
				}
			}
			if n[0] == 0 || n[1] == 0 {
				t.Fatalf("%s/%s: %d forward and %d backward events", w.Name, s.Name, n[0], n[1])
			}
			if got := len(TraceForward(w, s, cfg).Events); got != n[0] {
				t.Fatalf("%s/%s: TraceForward has %d events, the forward pass %d", w.Name, s.Name, got, n[0])
			}
		}
	}
}

func TestTraceUtilizationShapes(t *testing.T) {
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	// vDNN: memcpy stream nearly saturated, compute mostly idle.
	cu, mu := TraceForward(w, VDNN(), cfg).Utilization()
	if mu < 0.9 || cu > 0.6 {
		t.Fatalf("vDNN utils compute %v memcpy %v", cu, mu)
	}
	// GIST: no memcpy at all.
	_, mg := TraceForward(w, GIST(), cfg).Utilization()
	if mg != 0 {
		t.Fatalf("GIST memcpy util %v", mg)
	}
	// JPEG-ACT: compute-dominated.
	ca, _ := TraceForward(w, JPEGAct(JPEGActDefaultRatios()), cfg).Utilization()
	if ca < 0.7 {
		t.Fatalf("JPEG-ACT compute util %v", ca)
	}
}

func TestTraceRender(t *testing.T) {
	cfg := TitanV(4)
	w := findWorkload(t, "VGG")
	out := TraceForward(w, VDNN(), cfg).Render(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines %d", len(lines))
	}
	if !strings.Contains(lines[0], "#") || !strings.Contains(lines[1], "=") {
		t.Fatalf("render missing marks:\n%s", out)
	}
	// Tiny width clamps.
	if TraceForward(w, VDNN(), cfg).Render(1) == "" {
		t.Fatal("render with tiny width failed")
	}
}
