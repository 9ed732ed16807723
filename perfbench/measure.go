package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"flint/internal/metrics"
	"flint/internal/vload"
)

// subWindows is how many slots an untraced run's measured time is cut
// into; each end-to-end metric is the median over the slots.
const subWindows = 10

// options are one benchmark run's parameters.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times the run sets the system up; setup_s is
	// their median. All but the last are probes that register the fleet
	// and tear the system down again.
	setups int
}

// snapshot is the process and program state at a window boundary.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	pauseNS  uint64
	down, up int64
	counters map[string]int64
}

func takeSnapshot(sys *system, cl *client) snapshot {
	s := snapshot{at: time.Now(), down: cl.down.Load(), up: cl.up.Load(), counters: sys.counters()}
	var ru syscall.Rusage
	// Getrusage fails only for an unknown who or a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcs, s.pauseNS = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	return s
}

// window is the span between two snapshots.
type window struct{ a, b snapshot }

func (w window) wall() time.Duration { return w.b.at.Sub(w.a.at) }

func (w window) delta(counter string) float64 {
	return float64(w.b.counters[counter] - w.a.counters[counter])
}

func (w window) committed() float64 { return w.delta("updates_aggregated") }

func (w window) updatesPerSec() float64 { return w.committed() / w.wall().Seconds() }

// outcome is everything a run measured, before it becomes metrics.
type outcome struct {
	opts     options
	setups   []time.Duration
	heap     []float64
	sys      *system
	obs      *observer
	tr       *tracer
	rep      *vload.Report
	windows  []window // the slots: sub-windows, or the untraced and traced halves
	commits  *commitLog
	final    []finalStatus
	leaderV  int
	shardsV  []int
	checks   checker
	attempts int64
	failures int64
}

// finalStatus is one coordinator's state after the run.
type finalStatus struct {
	counters  map[string]int64
	quorum    int
	modelNorm float64
	regBPD    float64
	schedBPD  float64
}

func vloadConfig(o options, sys *system, cl *client) vload.Config {
	return vload.Config{
		BaseURL:         sys.url,
		Gateway:         sys.gw != nil,
		Devices:         o.w.devices,
		Compression:     compression,
		VirtualDuration: virtualHorizon,
		Seed:            o.seed,
		Workers:         runtime.GOMAXPROCS(0),
		Client:          cl.http,
	}
}

// probeSetup sets the system up once, registers the fleet, and tears it
// down. It returns the set-up time, the heap in use per device once the
// fleet is registered, and how long vload.Run took to reach the end of
// set-up (the measured run's timeout is sized from it).
func probeSetup(o options, cl *client) (setup time.Duration, heapPerDev float64, inRun time.Duration, err error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := build(o.w, nil)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("set-up probe: %w", err)
	}
	defer sys.close()
	obs := newObserver(sys, nil)
	cl.obs.Store(obs)
	defer cl.obs.Store(nil)
	cfg := vloadConfig(o, sys, cl)
	// A horizon of one nanosecond schedules no device event: vload
	// registers the fleet, finds nothing to do, and reads the final
	// status, whose request marks the end of set-up.
	cfg.VirtualDuration = time.Nanosecond
	call := time.Now()
	if _, err := vload.Run(cfg); err != nil {
		return 0, 0, 0, fmt.Errorf("set-up probe: %w", err)
	}
	end, ok := obs.setupEnd()
	if !ok {
		return 0, 0, 0, fmt.Errorf("set-up probe: no request after the registration storm")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cl.tr.CloseIdleConnections()
	return end.Sub(t0), float64(ms.HeapInuse) / float64(o.w.devices), end.Sub(call), nil
}

// run executes one benchmark run: probe set-ups, then the measured
// set-up, the closed-loop measured time, then the correctness checks.
func run(o options, cl *client) (*outcome, error) {
	out := &outcome{opts: o}
	var inRun []time.Duration
	for i := 0; i < o.setups-1; i++ {
		d, h, r, err := probeSetup(o, cl)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d)
		out.heap = append(out.heap, h)
		inRun = append(inRun, r)
	}
	if len(inRun) == 0 {
		return nil, fmt.Errorf("need at least two set-ups (one probe sizes the measured run)")
	}

	runtime.GC()
	t0 := time.Now()
	tr := &tracer{}
	sys, err := build(o.w, tr)
	if err != nil {
		return nil, fmt.Errorf("measured set-up: %w", err)
	}
	defer sys.close()
	out.sys, out.tr = sys, tr
	obs := newObserver(sys, tr)
	out.obs = obs

	// The measured time is cut into slots. An untraced run has
	// subWindows slots and reports each end-to-end metric as the median
	// over them, so a few seconds of disturbance on the host do not move
	// the result. A traced run has two halves: untraced, then traced.
	length := time.Duration(o.seconds * float64(time.Second))
	slots := subWindows
	if o.trace {
		slots = 2
	}
	cfg := vloadConfig(o, sys, cl)
	// vload stops when its timeout fires. The first slot opens when
	// set-up ends, which the probes timed, so the run ends about one
	// measured length after set-up; the last slot closes at the same
	// instant vload stops.
	cfg.Timeout = medianDur(inRun) + length
	var (
		mu   sync.Mutex
		all  []snapshot
		done bool
	)
	// boundary closes the current slot and opens the next; the final one
	// ends measurement. mu orders boundaries against the read after the
	// run, and boundaries after the final one are dropped.
	boundary := func(final bool) {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return
		}
		tr.enabled.Store(false)
		all = append(all, takeSnapshot(sys, cl))
		obs.slot.Store(int32(len(all)))
		done = final
		tr.enabled.Store(o.trace && !final && len(all) == 2)
	}
	obs.onSetup = func(at time.Time) {
		boundary(false)
		for i := 1; i < slots; i++ {
			time.AfterFunc(time.Until(at.Add(length*time.Duration(i)/time.Duration(slots))), func() { boundary(false) })
		}
	}
	cl.obs.Store(obs)
	defer cl.obs.Store(nil)
	commits := startCommitLog(sys)
	out.commits = commits
	deadline := time.Now().Add(cfg.Timeout)
	ended := make(chan struct{})
	endTimer := time.AfterFunc(cfg.Timeout, func() {
		defer close(ended)
		if obs.slot.Load() > 0 {
			boundary(true)
		}
	})
	defer endTimer.Stop()
	rep, err := vload.Run(cfg)
	commits.stop()
	if err != nil {
		return nil, fmt.Errorf("measured run: %w", err)
	}
	out.rep = rep
	<-ended
	mu.Lock()
	done = true
	mu.Unlock()
	setupEnd, ok := obs.setupEnd()
	if !ok || setupEnd.After(deadline) {
		return nil, fmt.Errorf("the measured run never left set-up")
	}
	out.setups = append(out.setups, setupEnd.Sub(t0))
	if len(all) < 2 || (o.trace && len(all) != 3) {
		return nil, fmt.Errorf("set-up ended only %v before the deadline: too late to measure", deadline.Sub(setupEnd))
	}
	for i := 1; i < len(all); i++ {
		out.windows = append(out.windows, window{all[i-1], all[i]})
	}
	if measured := (window{all[0], all[len(all)-1]}); measured.committed() <= 0 {
		return nil, fmt.Errorf("no update was committed in %v of measurement", measured.wall())
	}
	out.final, out.leaderV, out.shardsV = settle(sys)
	out.attempts, out.failures = cl.attempted.Load(), cl.failed.Load()
	out.check()
	return out, nil
}

// settle reads every coordinator's final state. In the tier it first
// waits (up to five seconds) for the exchange to go quiet, so the
// leader's version can be compared with the versions the shards serve.
func settle(sys *system) ([]finalStatus, int, []int) {
	var leaderV int
	var shardsV []int
	if sys.leader != nil {
		for wait := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			leaderV = sys.leader.Version("")
			shardsV = shardsV[:0]
			top := 0
			for _, c := range sys.coords {
				shardsV = append(shardsV, c.Version())
				top = max(top, c.Version())
			}
			if top == leaderV || time.Now().After(wait) {
				break
			}
		}
	}
	out := make([]finalStatus, len(sys.coords))
	for i, c := range sys.coords {
		st := c.Status()
		out[i] = finalStatus{
			counters:  st.Counters,
			quorum:    c.Config().Quorum,
			modelNorm: st.ModelNorm,
			regBPD:    st.Scheduler.Footprint.RegistryBytesPerDev,
			schedBPD:  st.Scheduler.Footprint.SchedulerBytesPerDev,
		}
	}
	return out, leaderV, shardsV
}

// commitLog samples the coordinators' summed updates_aggregated every
// two milliseconds and keeps each change, so the committed count can be
// read at any instant: between changes it is interpolated linearly,
// which keeps a slot's rate from jumping by a whole round's updates.
type commitLog struct {
	counters []*metrics.Counter
	quit     chan struct{}
	wg       sync.WaitGroup
	at       []time.Time
	total    []float64
}

func startCommitLog(sys *system) *commitLog {
	l := &commitLog{quit: make(chan struct{})}
	for _, c := range sys.coords {
		l.counters = append(l.counters, c.Counters().Counter("updates_aggregated"))
	}
	l.record(time.Now())
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				return
			case now := <-tick.C:
				l.record(now)
			}
		}
	}()
	return l
}

func (l *commitLog) record(now time.Time) {
	var v float64
	for _, c := range l.counters {
		v += float64(c.Value())
	}
	if n := len(l.total); n == 0 || v != l.total[n-1] {
		l.at, l.total = append(l.at, now), append(l.total, v)
	}
}

// stop ends sampling; the log is read only after it returns.
func (l *commitLog) stop() {
	close(l.quit)
	l.wg.Wait()
	l.record(time.Now())
}

// committedAt is the committed count at t.
func (l *commitLog) committedAt(t time.Time) float64 {
	i := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(t) })
	switch {
	case i == 0:
		return l.total[0]
	case i == len(l.at):
		return l.total[i-1]
	}
	a, b := l.at[i-1], l.at[i]
	f := float64(t.Sub(a)) / float64(b.Sub(a))
	return l.total[i-1] + f*(l.total[i]-l.total[i-1])
}

func (l *commitLog) between(a, b time.Time) float64 { return l.committedAt(b) - l.committedAt(a) }

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
