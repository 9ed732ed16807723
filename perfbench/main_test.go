package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark
// prints and the ones BENCHMARK.json declares the same, names and units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workload), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workload[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark has %q", i, spec.Workload[i].Name, w.name)
		}
	}
}

// TestShortRun runs every workload on a small fleet for a short window,
// untraced and traced, and checks that the correctness checks pass and
// every metric is emitted with its unit.
func TestShortRun(t *testing.T) {
	cl := newClient(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		w.devices = 3000
		for _, trace := range []bool{false, true} {
			oc, err := run(options{w: w, seed: 3, seconds: 3, trace: trace, setups: 2}, cl)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := oc.report(io.Discard, "")
			if !res.Correct {
				t.Errorf("%s trace=%v: correctness checks failed: %v", w.name, trace, oc.checks.violations)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", w.name, trace, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, name := range []string{"updates_per_s", "task_poll_p50_us", "task_fetch_p50_us", "round_p50_ms", "setup_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestRoundSamplesSplitSkippedVersions pins the round-interval rule: a
// gap spanning k versions counts as k samples of gap/k, and a gap
// belongs to the window its later sighting falls in.
func TestRoundSamplesSplitSkippedVersions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := &observer{sightings: []sighting{
		{t0, 1},
		{t0.Add(10 * time.Millisecond), 2},
		{t0.Add(40 * time.Millisecond), 5},
		{t0.Add(100 * time.Millisecond), 6},
	}}
	got := o.roundSamples(t0.Add(time.Millisecond), t0.Add(50*time.Millisecond))
	want := []float64{10, 10, 10, 10}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}
}

func TestOKStatus(t *testing.T) {
	cases := []struct {
		rt   route
		code int
		ok   bool
	}{
		{rTask, 200, true}, {rTask, 204, true}, {rTask, 404, true}, {rTask, 503, false},
		{rUpdate, 202, true}, {rUpdate, 404, false}, {rUpdate, 503, false},
		{rCheckinBatch, 200, true}, {rCheckinBatch, 502, false},
	}
	for _, c := range cases {
		if got := okStatus(c.rt, c.code); got != c.ok {
			t.Errorf("okStatus(%s, %d) = %v, want %v", routeNames[c.rt], c.code, got, c.ok)
		}
	}
}
