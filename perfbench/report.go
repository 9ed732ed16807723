package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"
)

// metricDef names a metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (the self-test compares them).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"task_poll_p50_us", "us"},
	{"task_poll_p90_us", "us"},
	{"task_fetch_p50_us", "us"},
	{"task_fetch_p90_us", "us"},
	{"update_p50_us", "us"},
	{"update_p90_us", "us"},
	{"checkin_batch_p50_ms", "ms"},
	{"cpu_ms_per_update", "ms"},
	{"wire_bytes_per_update", "B"},
	{"heap_bytes_per_device", "B"},
}

// perLayer is built from the route lists so each route gets the same
// metric family.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	for _, rt := range clientRoutes {
		r := routeNames[rt]
		add("server."+r+".count", "count")
		add("server."+r+".busy_s", "s")
		add("server."+r+".p50_us", "us")
		add("server."+r+".p99_us", "us")
		add("server."+r+".errors", "count")
	}
	add("task.hit_ratio", "1")
	for _, rt := range clientRoutes {
		add("http."+routeNames[rt]+".overhead_us", "us")
	}
	add("wire.down_bytes_per_update", "B")
	add("wire.up_bytes_per_update", "B")
	add("commit.lag_p50_ms", "ms")
	add("commit.lag_p90_ms", "ms")
	add("commit.open_to_close_p50_ms", "ms")
	add("commit.late_ratio", "1")
	add("commit.screened_ratio", "1")
	add("commit.rounds_abandoned", "count")
	add("commit.busy_rejects", "count")
	add("sched.rebuilds", "count")
	add("sched.rebuild_skipped_ratio", "1")
	add("sched.task_denied_deadline_ratio", "1")
	add("sched.bytes_per_device", "B")
	add("registry.bytes_per_device", "B")
	for _, rt := range clientRoutes {
		add("gateway."+routeNames[rt]+".busy_s", "s")
		add("gateway."+routeNames[rt]+".self_p50_us", "us")
	}
	add("gateway.checkin_batch.splits", "count")
	add("exchange.submit_partial.count", "count")
	add("exchange.submit_partial.p50_ms", "ms")
	add("exchange.submit_partial.p90_ms", "ms")
	add("leader.partial.p50_ms", "ms")
	add("exchange.retries", "count")
	add("exchange.halted", "count")
	add("runtime.alloc_bytes_per_update", "B")
	add("runtime.gc_cycles", "count")
	add("runtime.gc_pause_ms", "ms")
	add("vload.achieved_compression", "1")
	add("vload.virtual_s_per_update", "s")
	add("client.task_poll.p99_us", "us")
	add("client.task_fetch.p99_us", "us")
	add("client.update.p99_us", "us")
	add("trace.overhead_updates_per_s", "1/s")
	for _, rt := range clientRoutes {
		add("trace."+routeNames[rt]+".coverage", "1")
	}
	return defs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEndValues reads the end-to-end metrics: each is the median of
// its value over the measured slots that have samples for it.
func (o *outcome) endToEndValues() map[string]float64 {
	per := make(map[string][]float64)
	add := func(name string, x float64) { per[name] = append(per[name], x) }
	addQ := func(name string, xs []float64, q, scale float64) {
		if len(xs) > 0 {
			add(name, quantile(xs, q)*scale)
		}
	}
	for i, w := range o.windows {
		st := o.obs.stats(i + 1)
		rounds := o.obs.roundSamples(w.a.at, w.b.at)
		addQ("round_p50_ms", rounds, 0.5, 1)
		addQ("round_p90_ms", rounds, 0.9, 1)
		addQ("task_poll_p50_us", st.lat[rTask], 0.5, 1)
		addQ("task_poll_p90_us", st.lat[rTask], 0.9, 1)
		addQ("task_fetch_p50_us", st.fetch, 0.5, 1)
		addQ("task_fetch_p90_us", st.fetch, 0.9, 1)
		addQ("update_p50_us", st.lat[rUpdate], 0.5, 1)
		addQ("update_p90_us", st.lat[rUpdate], 0.9, 1)
		addQ("checkin_batch_p50_ms", st.lat[rCheckinBatch], 0.5, 1e-3)
		n := o.commits.between(w.a.at, w.b.at)
		add("updates_per_s", n/w.wall().Seconds())
		if n > 0 {
			add("cpu_ms_per_update", ms(w.b.cpu-w.a.cpu)/n)
			add("wire_bytes_per_update", float64(w.b.down-w.a.down+w.b.up-w.a.up)/n)
		}
	}
	v := map[string]float64{
		"setup_s":               medianDur(o.setups).Seconds(),
		"heap_bytes_per_device": slices.Min(o.heap),
	}
	for name, xs := range per {
		v[name] = median(xs)
	}
	return v
}

// perLayerValues reads the layer metrics of a traced run: span figures
// off the traced half, counter figures off the untraced half.
func (o *outcome) perLayerValues(ts *traceStats) map[string]float64 {
	w, tw := o.windows[0], o.windows[1]
	n := w.committed()
	st := o.obs.stats(1)
	lat := &st.lat
	v := make(map[string]float64)
	for _, rt := range clientRoutes {
		r := routeNames[rt]
		v["server."+r+".count"] = float64(len(ts.server[rt]))
		v["server."+r+".busy_s"] = sum(ts.server[rt]) / 1e6
		v["server."+r+".p50_us"] = quantile(ts.server[rt], 0.5)
		v["server."+r+".p99_us"] = quantile(ts.server[rt], 0.99)
		v["server."+r+".errors"] = float64(ts.serverErrors[rt])
		v["http."+r+".overhead_us"] = median(ts.overhead[rt])
		v["gateway."+r+".busy_s"] = sum(ts.gateway[rt]) / 1e6
		v["gateway."+r+".self_p50_us"] = median(ts.gatewaySelf[rt])
		v["trace."+r+".coverage"] = ts.coverage[rt]
	}
	polls := float64(len(lat[rTask]) + len(st.fetch))
	v["task.hit_ratio"] = ratio(float64(len(st.fetch)), polls)
	v["wire.down_bytes_per_update"] = float64(w.b.down-w.a.down) / n
	v["wire.up_bytes_per_update"] = float64(w.b.up-w.a.up) / n
	lags := o.obs.commitLags(w.a.at, w.b.at)
	v["commit.lag_p50_ms"] = quantile(lags, 0.5)
	v["commit.lag_p90_ms"] = quantile(lags, 0.9)
	var open []float64
	o.obs.mu.Lock()
	for _, s := range o.obs.summaries {
		open = append(open, ms(s.Duration))
	}
	o.obs.mu.Unlock()
	v["commit.open_to_close_p50_ms"] = median(open)
	v["commit.late_ratio"] = ratio(w.delta("update_rejected_late"), w.delta("update_enqueued"))
	v["commit.screened_ratio"] = ratio(w.delta("updates_screened_norm"), w.delta("update_accepted"))
	v["commit.rounds_abandoned"] = w.delta("rounds_abandoned")
	v["commit.busy_rejects"] = w.delta("update_rejected_busy")
	v["sched.rebuilds"] = w.delta("sched_rebuilds")
	v["sched.rebuild_skipped_ratio"] = ratio(w.delta("sched_rebuild_skipped"), w.delta("sched_rebuilds")+w.delta("sched_rebuild_skipped"))
	v["sched.task_denied_deadline_ratio"] = ratio(w.delta("task_denied_deadline"), polls)
	var reg, sch float64
	for _, f := range o.final {
		reg += f.regBPD / float64(len(o.final))
		sch += f.schedBPD / float64(len(o.final))
	}
	v["registry.bytes_per_device"] = reg
	v["sched.bytes_per_device"] = sch
	v["gateway.checkin_batch.splits"] = w.delta("gateway.checkin_batch_split")
	v["exchange.submit_partial.count"] = float64(len(ts.exchange))
	v["exchange.submit_partial.p50_ms"] = quantile(ts.exchange, 0.5)
	v["exchange.submit_partial.p90_ms"] = quantile(ts.exchange, 0.9)
	v["leader.partial.p50_ms"] = median(ts.leader)
	v["exchange.retries"] = w.delta("partial_exchange_retries")
	v["exchange.halted"] = w.delta("partial_exchange_halted")
	v["runtime.alloc_bytes_per_update"] = float64(w.b.alloc-w.a.alloc) / n
	v["runtime.gc_cycles"] = float64(w.b.gcs - w.a.gcs)
	v["runtime.gc_pause_ms"] = float64(w.b.pauseNS-w.a.pauseNS) / 1e6
	v["vload.achieved_compression"] = o.rep.AchievedCompression
	v["vload.virtual_s_per_update"] = o.rep.VirtualSimulated.Seconds() / (n + tw.committed())
	v["client.task_poll.p99_us"] = quantile(lat[rTask], 0.99)
	v["client.task_fetch.p99_us"] = quantile(st.fetch, 0.99)
	v["client.update.p99_us"] = quantile(lat[rUpdate], 0.99)
	v["trace.overhead_updates_per_s"] = tw.updatesPerSec() - w.updatesPerSec()
	return v
}

// report prints the run's human-readable summary to w and returns the
// result object; the caller prints it as the last line.
func (o *outcome) report(w io.Writer, traceFile string) *result {
	defs, values := endToEnd, map[string]float64(nil)
	var ts *traceStats
	if o.opts.trace {
		ts = analyze(o.tr.snapshot())
		for _, rt := range clientRoutes {
			o.checks.expect(ts.coverage[rt] >= minCoverage || len(ts.rtt[rt]) == 0,
				"traced %s: layer self-times cover %.3f of client time, below %.2f",
				routeNames[rt], ts.coverage[rt], minCoverage)
		}
		defs, values = perLayer, o.perLayerValues(ts)
	} else {
		values = o.endToEndValues()
	}
	first, last := o.windows[0], o.windows[len(o.windows)-1]
	measured := window{first.a, last.b}
	rounds := o.obs.roundSamples(measured.a.at, measured.b.at)
	polls := 0
	for i := range o.windows {
		st := o.obs.stats(i + 1)
		polls += len(st.lat[rTask]) + len(st.fetch)
	}
	fmt.Fprintf(w, "workload %s seed %d: num_cpu %d, gomaxprocs %d, %d devices, %d vload workers (closed loop)\n",
		o.opts.w.name, o.opts.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), o.opts.w.devices, o.rep.Workers)
	fmt.Fprintf(w, "measured %.2fs in %d slots: %.0f committed updates, %d round samples, %d task polls\n",
		measured.wall().Seconds(), len(o.windows), measured.committed(), len(rounds), polls)
	if len(rounds) < 100 {
		fmt.Fprintf(w, "warning: only %d round samples (fewer than 10 lie beyond p90)\n", len(rounds))
	}
	fmt.Fprintf(w, "set-ups: %v; heap per device after each probe: %.1f B\n", o.setups, o.heap)
	fmt.Fprintf(w, "requests: %d attempted, %d failed (failed_ratio %.6f)\n",
		o.attempts, o.failures, ratio(float64(o.failures), float64(o.attempts)))
	o.obs.mu.Lock()
	fmt.Fprintf(w, "round summaries checked: %d\n", len(o.obs.summaries))
	o.obs.mu.Unlock()
	if ts != nil {
		w0, tw := o.windows[0], o.windows[1]
		fmt.Fprintf(w, "traced half %.2fs: %d spans; updates_per_s traced %.1f, untraced %.1f, tracing overhead %+.1f\n",
			tw.wall().Seconds(), ts.spans, tw.updatesPerSec(), w0.updatesPerSec(), tw.updatesPerSec()-w0.updatesPerSec())
		ts.printTable(w)
		if traceFile != "" {
			fmt.Fprintf(w, "spans written to %s\n", traceFile)
		}
	}
	res := &result{Attempted: o.attempts, Failed: o.failures, Metrics: map[string]metric{}}
	for _, d := range defs {
		x := values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			o.checks.expect(false, "metric %s is %v", d.name, x)
			x = 0
		}
		res.Metrics[d.name] = metric{Value: x, Unit: d.unit}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, x, d.unit)
	}
	for _, v := range o.checks.violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	res.Correct = o.checks.ok()
	return res
}

func (r *result) print(w io.Writer) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
