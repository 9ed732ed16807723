// Package vload is the load plane: fedsim's population, availability,
// and link models driven against the real HTTP serving stack, from a
// wall-clock fleet of a few hundred devices up to a million-device
// diurnal day in compressed virtual time.
//
// Each worker goroutine owns a partition of the fleet and an event heap
// (internal/vclock) keyed in *virtual* seconds, and replays wake → poll →
// train → update protocol traffic through a bounded keep-alive
// connection pool. The virtual clock runs at Compression virtual seconds
// per wall second — at 1 (the default) it is the wall clock, and the
// think, training and session defaults switch to an always-on live
// fleet; at 360 a full diurnal cycle over a million devices
// compresses into minutes. The clock is allowed to fall behind when the
// system under test (or the generator host) cannot keep up; the
// achieved compression is reported so a shortfall is a measurement, not
// a silent distortion.
//
// The clock contract: every timing a device reports to the server
// (X-Flint-Down-Ms, X-Flint-Train-Ms, X-Flint-Up-Bytes/Up-Ms) is
// computed from its *simulated* link and compute in virtual seconds, so
// the scheduler's EWMAs converge to the true simulated rates no matter
// how hard time is compressed. The server is run with
// Sched.TimeCompression set to the same factor: its estimate plane
// divides virtual-domain estimates back into wall seconds, making the
// deadline gate and cohort decisions identical to an equivalent
// wall-clock fleet's (see sched.Config.TimeCompression).
package vload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/network"
	"flint/internal/shard"
	"flint/internal/tensor"
	"flint/internal/transport"
	"flint/internal/vclock"
)

// The virtual clock starts at 19:00, the diurnal peak, so a short run
// begins with devices awake. The Table 1 device-state marginals are
// modulated per session hour by the availability curves.
const (
	startHour       = 19
	wifiProb        = 0.70
	batteryHighProb = 0.34
	modernOSProb    = 0.93
)

// Config drives one load run.
type Config struct {
	// BaseURL is the server root (a flint-server, or a flint-gateway
	// when Gateway is set).
	BaseURL string
	// Gateway marks BaseURL as a shard-tier gateway: the run waits for
	// tier health and watches the rollup's top-level version for round
	// progress; device traffic is routed per device transparently
	// (batched check-ins are split across shards by the gateway).
	Gateway bool
	// Devices is the virtual fleet size.
	Devices int
	// Compression is the virtual-time rate: virtual seconds per wall
	// second (>= 1; default 1, the wall clock). The server must run
	// with the same value in Sched.TimeCompression for telemetry-driven
	// decisions to match a wall-clock fleet. At 1 the Think,
	// TrainMedianSec, SessionsPerDay and SessionMedianSec defaults make
	// the always-on wall fleet: every device wakes within about a
	// second, stays in session for a day, re-polls every 20ms and
	// trains for about 10ms.
	Compression float64
	// VirtualDuration is how much virtual time to simulate (default one
	// full diurnal cycle, 24h).
	VirtualDuration time.Duration
	// Rounds, when > 0, stops the run early once the server has
	// committed that many rounds past the starting version.
	Rounds int
	Seed   int64
	// Workers is the event-loop goroutine count; each multiplexes
	// Devices/Workers virtual devices (default 4 x GOMAXPROCS, capped
	// at 64). It also bounds concurrent in-flight HTTP requests — the
	// connection-pool sizing knob.
	Workers int
	// Batch is the registration/check-in batch size for
	// POST /v1/checkin/batch (default 2048).
	Batch int
	// Think is the mean *virtual* re-poll interval while a device sits
	// in a session without work (default 120 virtual seconds under
	// compression).
	Think time.Duration
	// SessionsPerDay is the per-device mean session count per virtual
	// day, modulated by the diurnal curve (default 3 under compression,
	// the paper's ads case study). SessionMedianSec is the log-normal
	// session-duration median in virtual seconds (default 150 under
	// compression).
	SessionsPerDay   float64
	SessionMedianSec float64
	// TrainMedianSec is the log-normal median of the simulated local
	// training duration in virtual seconds (default 20 under
	// compression).
	TrainMedianSec float64
	// Bandwidth samples each device's persistent simulated link
	// (downlink from the model, uplink at 40% of it); nil gets the
	// fleet generator's default mixed-link model.
	Bandwidth *network.BandwidthModel
	// Timeout bounds the whole run in wall time.
	Timeout time.Duration
	// Client overrides the HTTP client (tests inject the httptest
	// client); the default sizes its idle pool to Workers.
	Client *http.Client
	// Job routes device traffic at one tenant of a multi-job server
	// (/v1/jobs/<Job>/... instead of the bare /v1 default-job alias);
	// Token is its bearer token, sent on every request when non-empty.
	Job   string
	Token string
	// IDOffset shifts device IDs (1..Devices become IDOffset+1..) so
	// concurrent runs against different jobs use disjoint identities.
	IDOffset int64
	// JSONFraction of the fleet speaks the JSON task and update
	// protocol; the next DeltaFraction (by device ID) names the version
	// it holds in X-Flint-Base-Version so the server can answer with a
	// delta frame. The rest fetch the full binary broadcast.
	JSONFraction  float64
	DeltaFraction float64
	// DeltaBias is a constant per-coordinate drift added to the
	// synthetic update every device submits (the alternating
	// ±deltaScale pattern), which moves the published model's norm
	// round over round — what poison drills watch.
	DeltaBias float64
	// PoisonFraction puts that share of the fleet under a sign-flip
	// adversary (stable per seed and device ID): compromised devices
	// submit the honest delta negated and boosted by PoisonScale
	// (default 10).
	PoisonFraction float64
	PoisonScale    float64

	api string // BaseURL plus the /v1 or /v1/jobs/<Job> prefix
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("vload: need a base URL")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	c.api = c.BaseURL + "/v1"
	if c.Job != "" {
		c.api += "/jobs/" + c.Job
	}
	if c.JSONFraction < 0 || c.DeltaFraction < 0 || c.JSONFraction+c.DeltaFraction > 1 {
		return c, fmt.Errorf("vload: JSON fraction %v and delta fraction %v must be non-negative and sum to at most 1",
			c.JSONFraction, c.DeltaFraction)
	}
	if c.PoisonFraction < 0 || c.PoisonFraction > 1 {
		return c, fmt.Errorf("vload: poison fraction %v outside [0, 1]", c.PoisonFraction)
	}
	if c.PoisonScale <= 0 {
		c.PoisonScale = 10
	}
	if c.Devices <= 0 {
		c.Devices = 100_000
	}
	if c.Compression == 0 {
		c.Compression = 1
	}
	if c.Compression < 1 {
		return c, fmt.Errorf("vload: compression %v below 1", c.Compression)
	}
	// The device-behaviour defaults: the always-on fleet on the wall
	// clock, the ads case study's diurnal sessions under compression.
	think, trainSec, sessionsPerDay, sessionSec := 120*time.Second, 20.0, 3.0, 150.0
	if c.Compression == 1 {
		think, trainSec, sessionsPerDay, sessionSec = 20*time.Millisecond, 0.01, 86400, 86400
	}
	if c.VirtualDuration <= 0 {
		c.VirtualDuration = 24 * time.Hour
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
		if c.Workers > 64 {
			c.Workers = 64
		}
	}
	if c.Workers > c.Devices {
		c.Workers = c.Devices
	}
	if c.Batch <= 0 {
		c.Batch = 2048
	}
	if c.Think <= 0 {
		c.Think = think
	}
	if c.SessionsPerDay <= 0 {
		c.SessionsPerDay = sessionsPerDay
	}
	if c.SessionMedianSec <= 0 {
		c.SessionMedianSec = sessionSec
	}
	if c.TrainMedianSec <= 0 {
		c.TrainMedianSec = trainSec
	}
	if c.Bandwidth == nil {
		c.Bandwidth = &network.BandwidthModel{MedianMbps: 4, Sigma: 0.9, SlowFrac: 0.2, FloorMbps: 0.05}
	}
	if err := c.Bandwidth.Validate(); err != nil {
		return c, fmt.Errorf("vload: %w", err)
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Minute
	}
	if c.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        2 * c.Workers,
			MaxIdleConnsPerHost: 2 * c.Workers,
			IdleConnTimeout:     90 * time.Second,
		}
		c.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return c, nil
}

// hourAt maps a virtual timestamp (seconds since run start) to its
// virtual hour of day.
func hourAt(v float64) int {
	return int(math.Mod(startHour+v/3600, 24))
}

// Report is the load plane's result.
type Report struct {
	Devices int `json:"devices"`
	// JSONDevices, DeltaDevices and FullDevices split the fleet by
	// protocol; PoisonedDevices is how many the adversary compromised.
	JSONDevices     int `json:"json_devices"`
	DeltaDevices    int `json:"delta_devices"`
	FullDevices     int `json:"full_devices"`
	PoisonedDevices int `json:"poisoned_devices,omitempty"`
	Workers         int `json:"workers"`
	// Compression is the configured virtual rate;
	// AchievedCompression the rate actually sustained (virtual seconds
	// simulated per wall second — lower means the system under test or
	// the generator host was the bottleneck).
	Compression         float64 `json:"compression"`
	AchievedCompression float64 `json:"achieved_compression"`
	// VirtualSimulated is the virtual time the slowest worker reached.
	VirtualSimulated time.Duration `json:"virtual_simulated_ns"`
	Wall             time.Duration `json:"wall_ns"`
	// RegisterWall is the wall time of the initial registration storm;
	// RegisterPerSec its batched check-in throughput in devices/second.
	RegisterWall    time.Duration `json:"register_wall_ns"`
	RegisterPerSec  float64       `json:"register_devices_per_sec"`
	CheckIns        int64         `json:"checkins"`
	BatchRequests   int64         `json:"batch_requests"`
	Polls           int64         `json:"task_polls"`
	Tasks           int64         `json:"tasks_received"`
	DeltaTasks      int64         `json:"delta_tasks"`
	UpdatesOK       int64         `json:"updates_accepted"`
	UpdatesErr      int64         `json:"updates_rejected"`
	NetErrors       int64         `json:"net_errors"`
	BytesSent       int64         `json:"bytes_sent"`
	BytesRecv       int64         `json:"bytes_received"`
	RoundsCommitted int           `json:"rounds_committed"`
	StartVersion    int           `json:"start_version"`
	EndVersion      int           `json:"end_version"`
	// CheckInLatency (per batch request), TaskLatency and UpdateLatency
	// are the client-observed request latencies.
	CheckInLatency LatencySummary `json:"checkin_latency"`
	TaskLatency    LatencySummary `json:"task_latency"`
	UpdateLatency  LatencySummary `json:"update_latency"`
	TierShards     int            `json:"tier_shards,omitempty"`
	// FinalStatus is the job's status document at shutdown (nil in
	// gateway mode, where the tier document nests one per shard).
	FinalStatus *coord.StatusReport `json:"final_status,omitempty"`
}

// String renders the operator-facing summary flint-fleet prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices (%d full, %d delta, %d json), %d workers: simulated %s virtual in %.1fs wall (x%.0f asked, x%.0f achieved)\n",
		r.Devices, r.FullDevices, r.DeltaDevices, r.JSONDevices, r.Workers, r.VirtualSimulated.Round(100*time.Millisecond),
		r.Wall.Seconds(), r.Compression, r.AchievedCompression)
	fmt.Fprintf(&b, "  registration: %d devices in %.2fs (%.0f devices/sec over %d batch requests)\n",
		r.Devices, r.RegisterWall.Seconds(), r.RegisterPerSec, r.BatchRequests)
	fmt.Fprintf(&b, "  rounds: v%d -> v%d (%d committed)\n", r.StartVersion, r.EndVersion, r.RoundsCommitted)
	if r.PoisonedDevices > 0 {
		fmt.Fprintf(&b, "  adversary: %d devices compromised\n", r.PoisonedDevices)
	}
	if st := r.FinalStatus; st != nil {
		fmt.Fprintf(&b, "  model: L2 norm %.4f after v%d", st.ModelNorm, r.EndVersion)
		if p := st.Privacy; p != nil {
			fmt.Fprintf(&b, " (ε spent %.3f over %d DP rounds, δ=%.0e)", p.EpsilonSpent, p.DPRounds, p.Delta)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  requests: %d check-ins, %d polls, %d tasks (%d delta), %d updates accepted, %d rejected, %d net errors\n",
		r.CheckIns, r.Polls, r.Tasks, r.DeltaTasks, r.UpdatesOK, r.UpdatesErr, r.NetErrors)
	fmt.Fprintf(&b, "  wire: sent %.1f MiB, received %.1f MiB\n",
		float64(r.BytesSent)/(1<<20), float64(r.BytesRecv)/(1<<20))
	for _, row := range []struct {
		name string
		l    LatencySummary
	}{{"checkin", r.CheckInLatency}, {"task", r.TaskLatency}, {"update", r.UpdateLatency}} {
		fmt.Fprintf(&b, "  %-8s n=%-7d p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms\n",
			row.name, row.l.Count, row.l.P50, row.l.P90, row.l.P99, row.l.Max)
	}
	if st := r.FinalStatus; st != nil && st.Scheduler.Footprint.RegistryBytesPerDev > 0 {
		fmt.Fprintf(&b, "  footprint: %.0f B/device registry, %.0f B/device scheduler (census %d)\n",
			st.Scheduler.Footprint.RegistryBytesPerDev, st.Scheduler.Footprint.SchedulerBytesPerDev, st.Scheduler.Devices)
	}
	if r.TierShards > 0 {
		fmt.Fprintf(&b, "  tier: routed through a %d-shard gateway\n", r.TierShards)
	}
	return b.String()
}

// LatencySummary is one request kind's client-observed latency
// distribution in milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// Latency histogram kinds, one fixed histogram of each per worker.
const (
	latCheckIn = iota
	latTask
	latUpdate
	latKinds
)

// latBuckets bounds the histogram: four buckets per doubling from 1µs
// reach past an hour.
const latBuckets = 128

// latHist is a fixed-size latency histogram: bucket b counts requests
// that took [2^(b/4), 2^((b+1)/4)) microseconds, so its memory does not
// grow with the run and a quantile is exact to one bucket (~19%).
type latHist struct {
	n   [latBuckets]int64
	max time.Duration
}

func (h *latHist) add(d time.Duration) {
	b := 0
	if us := float64(d) / float64(time.Microsecond); us > 1 {
		b = min(int(4*math.Log2(us)), latBuckets-1)
	}
	h.n[b]++
	h.max = max(h.max, d)
}

func (h *latHist) merge(o *latHist) {
	for i, n := range o.n {
		h.n[i] += n
	}
	h.max = max(h.max, o.max)
}

// summary reports each quantile as its bucket's upper edge, capped at
// the exact maximum.
func (h *latHist) summary() LatencySummary {
	var s LatencySummary
	for _, n := range h.n {
		s.Count += n
	}
	maxMs := float64(h.max) / float64(time.Millisecond)
	quantile := func(q float64) float64 {
		want, seen := int64(math.Ceil(q*float64(s.Count))), int64(0)
		for b, n := range h.n {
			if seen += n; seen >= want {
				return min(math.Exp2(float64(b+1)/4)/1000, maxMs)
			}
		}
		return maxMs
	}
	if s.Count > 0 {
		s.P50, s.P90, s.P99, s.Max = quantile(0.5), quantile(0.9), quantile(0.99), maxMs
	}
	return s
}

// Event kinds, packed with the device index into one int64 payload so
// heap events cost one small boxed integer, not a struct allocation.
const (
	evWake   = iota // session start: enqueue batched check-in, schedule first poll
	evPoll          // GET /v1/task
	evFinish        // POST /v1/update after simulated download + training
	evKinds
)

// Device protocol kinds (vdev.kind).
const (
	kindFull  uint8 = iota // binary tensor protocol, full broadcast every task
	kindDelta              // binary, names its held version for delta frames
	kindJSON               // JSON task and update
)

// vdev is one virtual device's resident state — a few dozen bytes, so a
// million-device fleet fits in the generator's memory the same way it
// must fit in the server's.
type vdev struct {
	id             int64
	downBps, upBps float32
	weight         float32
	sessionEnd     float64 // virtual seconds; 0 = offline
	wifi           bool
	battery        bool
	modern         bool
	pending        bool // awaiting batched check-in flush
	kind           uint8
	poisoned       bool
	// In-flight task state (valid between evPoll's 200 and evFinish);
	// base is also the version a delta device names on its next poll.
	round     uint64
	base      int32
	dim       int32
	scheme    string
	downBytes int32
	downV     float32 // virtual seconds the download took
	trainV    float32 // virtual seconds training will take
}

// totals aggregates counters across workers.
type totals struct {
	checkins, batches, polls, tasks, deltaTasks atomic.Int64
	updatesOK, updatesErr, netErrs              atomic.Int64
	bytesSent, bytesRecv                        atomic.Int64
}

// worker multiplexes a partition of the fleet over one goroutine: a
// vclock event heap in virtual seconds, paced against the wall clock at
// the configured compression (sleeping when ahead, running flat out when
// behind), with at most one HTTP request in flight per worker — the
// worker count IS the connection-pool bound.
type worker struct {
	cfg     *Config
	rng     *rand.Rand
	q       vclock.Queue
	devs    []vdev
	pending []int32
	vmax    float64
	vnow    float64
	tot     *totals
	blobs   *blobCache
	lat     [latKinds]latHist
	// diurnalMean normalizes session-rate thinning (precomputed).
	diurnalMean float64
	buf         bytes.Buffer // pooled response-body scratch
	jbuf        []byte       // JSON update body scratch
}

func (w *worker) schedule(v float64, idx int32, kind int) {
	w.q.Push(vclock.Seconds(v), int64(idx)*evKinds+int64(kind))
}

// nextSessionStart samples the device's next wake-up by Poisson thinning
// against the diurnal intensity curve: candidate gaps are drawn at the
// peak rate and accepted with probability curve(hour)/peak, so the
// fleet's session arrivals breathe with the same daily shape the trace
// generator produces — without materializing a million-device session
// log.
func (w *worker) nextSessionStart(v float64) float64 {
	peakRate := w.cfg.SessionsPerDay / 86400 / w.diurnalMean
	for i := 0; i < 1_000_000; i++ {
		v += w.rng.ExpFloat64() / peakRate
		if w.rng.Float64() < availability.DiurnalIntensity(hourAt(v)) {
			return v
		}
	}
	return v
}

// wake opens a session: duration log-normal around the configured
// median, device state re-drawn with the hour-of-day shifts, and the
// check-in queued for the next batch flush. The first poll lands a few
// virtual seconds in (forcing the flush if the batch hasn't filled).
func (w *worker) wake(ctx context.Context, idx int32) {
	d := &w.devs[idx]
	hour := hourAt(w.vnow)
	dur := w.cfg.SessionMedianSec * math.Exp(w.rng.NormFloat64()*1.1)
	d.sessionEnd = w.vnow + dur
	d.wifi = w.rng.Float64() < clamp01(wifiProb+availability.WiFiShift(hour))
	d.battery = w.rng.Float64() < clamp01(batteryHighProb+availability.BatteryShift(hour))
	if !d.pending {
		d.pending = true
		w.pending = append(w.pending, idx)
	}
	if len(w.pending) >= w.cfg.Batch {
		w.flushCheckIns(ctx)
	}
	w.schedule(w.vnow+1+4*w.rng.Float64(), idx, evPoll)
}

// endSession schedules the device's next diurnal wake-up (if it lands
// inside the simulated horizon).
func (w *worker) endSession(idx int32) {
	next := w.nextSessionStart(w.vnow)
	if next < w.vmax {
		w.schedule(next, idx, evWake)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// acceptAll advertises every codec kind this build decodes, at check-in
// and on each binary task poll.
var acceptAll = transport.FormatAccept(transport.AllKinds())

// checkInReq renders the device's current session state as a check-in
// wire record. SessionSec is converted to the wall domain: the server's
// TTLs and deadlines run on the wall clock, so a virtual-domain number
// would overstate availability by the compression factor.
func (w *worker) checkInReq(idx int32) coord.CheckInRequest {
	d := &w.devs[idx]
	left := d.sessionEnd - w.vnow
	if left < 0 {
		left = 0
	}
	return coord.CheckInRequest{
		DeviceID:      d.id,
		Model:         "vload-sim",
		Platform:      "android",
		WiFi:          d.wifi,
		BatteryHigh:   d.battery,
		ModernOS:      d.modern,
		SessionSec:    left / w.cfg.Compression,
		Weight:        float64(d.weight),
		AcceptSchemes: acceptAll,
	}
}

// flushCheckIns posts the pending batch. Check-ins are idempotent, so a
// failed batch is just retried by each device's next wake; the devices
// are unmarked either way.
func (w *worker) flushCheckIns(ctx context.Context) {
	if len(w.pending) == 0 || ctx.Err() != nil {
		return
	}
	req := coord.BatchCheckInRequest{Devices: make([]coord.CheckInRequest, 0, len(w.pending))}
	for _, idx := range w.pending {
		req.Devices = append(req.Devices, w.checkInReq(idx))
		w.devs[idx].pending = false
	}
	n := len(w.pending)
	w.pending = w.pending[:0]
	raw, err := json.Marshal(req)
	if err != nil {
		w.tot.netErrs.Add(1)
		return
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.api+"/checkin/batch", bytes.NewReader(raw))
	if err != nil {
		w.tot.netErrs.Add(1)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	w.tot.bytesSent.Add(int64(len(raw)))
	resp, _, err := w.do(hreq, latCheckIn)
	if err != nil {
		if ctx.Err() == nil {
			w.tot.netErrs.Add(1)
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		w.tot.netErrs.Add(1)
		return
	}
	w.tot.batches.Add(1)
	w.tot.checkins.Add(int64(n))
}

// do sends req with the job's token, drains the response body into the
// worker's reusable scratch buffer, and records the round trip in the
// kind's latency histogram.
func (w *worker) do(req *http.Request, kind int) (*http.Response, []byte, error) {
	w.cfg.authorize(req)
	t0 := time.Now()
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	w.tot.bytesRecv.Add(int64(w.buf.Len()))
	if err != nil {
		return nil, nil, err
	}
	w.lat[kind].add(time.Since(t0))
	return resp, w.buf.Bytes(), nil
}

// authorize attaches the job's bearer token to a request.
func (c *Config) authorize(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

// poll is one GET /v1/task. It returns true when a task was accepted and
// evFinish scheduled; false means the device should re-poll (or its
// session lapsed).
func (w *worker) poll(ctx context.Context, idx int32) bool {
	d := &w.devs[idx]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.cfg.api+"/task?device="+strconv.FormatInt(d.id, 10), nil)
	if err != nil {
		w.tot.netErrs.Add(1)
		return false
	}
	if d.kind != kindJSON {
		req.Header.Set("Accept", coord.ContentTypeTensor)
		req.Header.Set("X-Flint-Accept-Schemes", acceptAll)
		if d.kind == kindDelta && d.base > 0 {
			req.Header.Set("X-Flint-Base-Version", strconv.Itoa(int(d.base)))
		}
	}
	w.tot.polls.Add(1)
	resp, body, err := w.do(req, latTask)
	if err != nil {
		if ctx.Err() == nil {
			w.tot.netErrs.Add(1)
		}
		return false
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return false
	case http.StatusNotFound:
		// Unknown device: swept between sessions (or the batch that
		// carried its check-in failed). Re-enqueue the registration; the
		// next poll finds it live.
		if !d.pending {
			d.pending = true
			w.pending = append(w.pending, idx)
		}
		return false
	default:
		w.tot.netErrs.Add(1)
		return false
	}
	var t struct {
		RoundID     uint64 `json:"round_id"`
		BaseVersion int    `json:"base_version"`
		Dim         int    `json:"dim"`
	}
	h := resp.Header
	if d.kind == kindJSON {
		err = json.Unmarshal(body, &t)
	} else {
		var err1, err2, err3 error
		t.RoundID, err1 = strconv.ParseUint(h.Get("X-Flint-Round"), 10, 64)
		t.BaseVersion, err2 = strconv.Atoi(h.Get("X-Flint-Base-Version"))
		t.Dim, err3 = strconv.Atoi(h.Get("X-Flint-Dim"))
		err = errors.Join(err1, err2, err3)
	}
	if err != nil || t.Dim <= 0 {
		w.tot.netErrs.Add(1)
		return false
	}
	if delta := h.Get("X-Flint-Delta"); delta != "" {
		// A delta frame is only decodable against the version the device
		// named.
		if delta != strconv.Itoa(int(d.base)) {
			w.tot.netErrs.Add(1)
			return false
		}
		w.tot.deltaTasks.Add(1)
	}
	w.tot.tasks.Add(1)
	d.round, d.base, d.dim = t.RoundID, int32(t.BaseVersion), int32(t.Dim)
	d.scheme = h.Get("X-Flint-Update-Scheme")
	// The blob download and local training cost *virtual* time: the
	// device's simulated link rate and compute, not the loopback wire.
	downV := float64(len(body)) / float64(d.downBps)
	trainV := w.cfg.TrainMedianSec * math.Exp(w.rng.NormFloat64()*0.8)
	d.downBytes, d.downV, d.trainV = int32(len(body)), float32(downV), float32(trainV)
	w.schedule(w.vnow+downV+trainV, idx, evFinish)
	return true
}

// blobCache shares one run's update payloads per blobKey: every virtual
// device's "training result" is the same synthetic delta, encoded once
// and replayed verbatim — at a million devices the load plane cannot
// afford an O(dim) encode per update.
// deltaScale is the magnitude of the synthetic update's alternating
// pattern.
const deltaScale = 1e-3

type blobCache struct {
	mu sync.Mutex
	m  map[blobKey][]byte
}

type blobKey struct {
	scheme   string
	dim      int32
	json     bool // a JSON number array rather than a codec blob
	poisoned bool
}

// get returns the payload for k: the honest delta is the alternating
// ±deltaScale pattern plus DeltaBias, and a poisoned one is the
// sign-flip attack applied to it.
func (c *blobCache) get(cfg *Config, k blobKey) ([]byte, error) {
	c.mu.Lock()
	blob, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return blob, nil
	}
	delta := make(tensor.Vector, k.dim)
	for i := range delta {
		delta[i] = deltaScale*(1-2*float64(i%2)) + cfg.DeltaBias
	}
	if k.poisoned {
		delta = aggregator.SignFlip{Scale: cfg.PoisonScale}.Poison(aggregator.Update{Delta: delta}, nil).Delta
	}
	var err error
	if k.json {
		blob, err = json.Marshal([]float64(delta))
	} else {
		sch, perr := codec.ParseScheme(k.scheme)
		if perr != nil {
			sch = codec.F32
		}
		blob, err = codec.Encode(delta, sch)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[k] = blob
	c.mu.Unlock()
	return blob, nil
}

// finish is one POST /v1/update: the cached payload with the device's
// virtual-clock telemetry headers — download transfer, training
// duration, and (because the wall-clock body transfer is loopback noise
// under compression) the uplink transfer too, all in virtual
// milliseconds. This is the feed that makes the scheduler's EWMAs equal
// the simulated link rates.
func (w *worker) finish(ctx context.Context, idx int32) {
	d := &w.devs[idx]
	body, err := w.blobs.get(w.cfg, blobKey{scheme: d.scheme, dim: d.dim, json: d.kind == kindJSON, poisoned: d.poisoned})
	if err != nil {
		w.tot.netErrs.Add(1)
		return
	}
	ctype := coord.ContentTypeTensor
	if d.kind == kindJSON {
		// The JSON body wraps the cached delta array in the device's
		// update metadata.
		w.jbuf = fmt.Appendf(w.jbuf[:0], `{"device_id":%d,"round_id":%d,"base_version":%d,"weight":%g,"delta":`,
			d.id, d.round, d.base, d.weight)
		w.jbuf = append(append(w.jbuf, body...), '}')
		body, ctype = w.jbuf, "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.api+"/update", bytes.NewReader(body))
	if err != nil {
		w.tot.netErrs.Add(1)
		return
	}
	upV := float64(len(body)) / float64(d.upBps)
	h := req.Header
	h.Set("Content-Type", ctype)
	h.Set("X-Flint-Device", strconv.FormatInt(d.id, 10))
	h.Set("X-Flint-Round", strconv.FormatUint(d.round, 10))
	h.Set("X-Flint-Base-Version", strconv.Itoa(int(d.base)))
	h.Set("X-Flint-Weight", strconv.FormatFloat(float64(d.weight), 'g', -1, 64))
	h.Set("X-Flint-Down-Bytes", strconv.Itoa(int(d.downBytes)))
	h.Set("X-Flint-Down-Ms", strconv.FormatFloat(float64(d.downV)*1000, 'g', -1, 64))
	h.Set("X-Flint-Train-Ms", strconv.FormatFloat(float64(d.trainV)*1000, 'g', -1, 64))
	h.Set("X-Flint-Up-Bytes", strconv.Itoa(len(body)))
	h.Set("X-Flint-Up-Ms", strconv.FormatFloat(upV*1000, 'g', -1, 64))
	w.tot.bytesSent.Add(int64(len(body)))
	resp, _, err := w.do(req, latUpdate)
	if err != nil {
		if ctx.Err() == nil {
			w.tot.netErrs.Add(1)
		}
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		w.tot.updatesOK.Add(1)
	} else {
		w.tot.updatesErr.Add(1)
	}
}

// run is the worker's event loop: pop the next virtual event, pace the
// wall clock to the compression rate (sleep when ahead of schedule, run
// flat out when behind), handle it. It returns the virtual time reached.
func (w *worker) run(ctx context.Context, start time.Time) float64 {
	for {
		ev, ok := w.q.Pop()
		if !ok || float64(ev.Time) > w.vmax {
			// Horizon reached (or no device has anything left to do).
			w.flushCheckIns(ctx)
			return w.vmax
		}
		w.vnow = float64(ev.Time)
		targetWall := time.Duration(w.vnow / w.cfg.Compression * float64(time.Second))
		if ahead := targetWall - time.Since(start); ahead > 0 {
			if !sleepCtx(ctx, ahead) {
				return w.vnow
			}
		}
		if ctx.Err() != nil {
			return w.vnow
		}
		p := ev.Payload.(int64)
		idx, kind := int32(p/evKinds), int(p%evKinds)
		d := &w.devs[idx]
		switch kind {
		case evWake:
			w.wake(ctx, idx)
		case evPoll:
			if d.pending {
				// The device's check-in is still queued: flush before the
				// poll so the server knows it.
				w.flushCheckIns(ctx)
			}
			if w.vnow >= d.sessionEnd {
				w.endSession(idx)
				continue
			}
			if !w.poll(ctx, idx) {
				think := float64(w.cfg.Think) / float64(time.Second) * (0.5 + w.rng.Float64())
				w.schedule(w.vnow+think, idx, evPoll)
			}
		case evFinish:
			w.finish(ctx, idx)
			if w.vnow >= d.sessionEnd {
				w.endSession(idx)
			} else {
				think := float64(w.cfg.Think) / float64(time.Second) * (0.5 + w.rng.Float64())
				w.schedule(w.vnow+think, idx, evPoll)
			}
		}
	}
}

// Run executes the load plane and blocks until the simulated horizon is
// reached, the configured round count commits, or the wall timeout
// fires.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	var tot totals
	meanD := 0.0
	for h := 0; h < 24; h++ {
		meanD += availability.DiurnalIntensity(h)
	}
	meanD /= 24

	// Partition the fleet across workers (contiguous ranges; device IDs
	// are IDOffset+1..IDOffset+Devices) and sample each device's
	// persistent link and identity attributes. Protocol kinds go by
	// position: JSON devices first, then delta devices.
	jsonN := int(math.Round(cfg.JSONFraction * float64(cfg.Devices)))
	deltaN := min(int(math.Round(cfg.DeltaFraction*float64(cfg.Devices))), cfg.Devices-jsonN)
	adversary := aggregator.Adversary{Fraction: cfg.PoisonFraction, Seed: cfg.Seed}
	poisoned := 0
	blobs := &blobCache{m: make(map[blobKey][]byte)}
	workers := make([]*worker, cfg.Workers)
	per := (cfg.Devices + cfg.Workers - 1) / cfg.Workers
	for wi := range workers {
		lo, hi := wi*per, (wi+1)*per
		if hi > cfg.Devices {
			hi = cfg.Devices
		}
		if lo >= hi {
			workers[wi] = &worker{cfg: &cfg, rng: rand.New(rand.NewSource(cfg.Seed + int64(wi))), tot: &tot,
				vmax: cfg.VirtualDuration.Seconds(), diurnalMean: meanD}
			continue
		}
		w := &worker{
			cfg:         &cfg,
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(wi)*7919)),
			devs:        make([]vdev, hi-lo),
			vmax:        cfg.VirtualDuration.Seconds(),
			tot:         &tot,
			blobs:       blobs,
			diurnalMean: meanD,
		}
		for i := range w.devs {
			d := &w.devs[i]
			d.id = cfg.IDOffset + int64(lo+i+1)
			switch {
			case lo+i < jsonN:
				d.kind = kindJSON
			case lo+i < jsonN+deltaN:
				d.kind = kindDelta
			}
			if adversary.Compromised(d.id) {
				d.poisoned = true
				poisoned++
			}
			down := cfg.Bandwidth.SampleBps(w.rng)
			d.downBps, d.upBps = float32(down), float32(down*0.4)
			d.weight = float32(20 + w.rng.Intn(180))
			d.modern = w.rng.Float64() < modernOSProb
			d.wifi = w.rng.Float64() < wifiProb
			d.battery = w.rng.Float64() < batteryHighProb
		}
		workers[wi] = w
	}

	tierShards := 0
	if cfg.Gateway {
		tier, err := waitTierHealthy(ctx, cfg)
		if err != nil {
			return nil, err
		}
		tierShards = tier.Tier.Shards
	}
	startVersion, _, err := fetchVersion(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("vload: cannot reach server: %w", err)
	}

	// Phase 1 — the registration storm: every device batch-checked-in
	// flat out. This is the devices/sec figure: pure batched check-in
	// throughput against the live registry.
	regStart := time.Now()
	var regWG sync.WaitGroup
	for _, w := range workers {
		if len(w.devs) == 0 {
			continue
		}
		regWG.Add(1)
		go func(w *worker) {
			defer regWG.Done()
			for i := range w.devs {
				w.devs[i].pending = true
				w.pending = append(w.pending, int32(i))
				if len(w.pending) >= cfg.Batch {
					w.flushCheckIns(ctx)
				}
			}
			w.flushCheckIns(ctx)
		}(w)
	}
	regWG.Wait()
	regWall := time.Since(regStart)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("vload: timed out during registration")
	}

	// Phase 2 — the diurnal day: each device's first wake-up sampled
	// from the intensity curve, then the event loops run the protocol.
	for _, w := range workers {
		for i := range w.devs {
			if v := w.nextSessionStart(0); v < w.vmax {
				w.schedule(v, int32(i), evWake)
			}
		}
	}

	// Round watcher: stop early once the target version lands.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	var endVersion atomic.Int64
	endVersion.Store(int64(startVersion))
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if v, _, err := fetchVersion(runCtx, cfg); err == nil {
					endVersion.Store(int64(v))
					if cfg.Rounds > 0 && v >= startVersion+cfg.Rounds {
						stopRun()
						return
					}
				}
			}
		}
	}()

	start := time.Now()
	reached := make([]float64, len(workers))
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			reached[wi] = w.run(runCtx, start)
		}(wi, w)
	}
	wg.Wait()
	stopRun()
	<-watchDone
	wall := time.Since(start)

	vmin := cfg.VirtualDuration.Seconds()
	for wi, w := range workers {
		if len(w.devs) > 0 && reached[wi] < vmin {
			vmin = reached[wi]
		}
	}
	var lat [latKinds]latHist
	for _, w := range workers {
		for k := range lat {
			lat[k].merge(&w.lat[k])
		}
	}
	rep := &Report{
		Devices:          cfg.Devices,
		JSONDevices:      jsonN,
		DeltaDevices:     deltaN,
		FullDevices:      cfg.Devices - jsonN - deltaN,
		PoisonedDevices:  poisoned,
		Workers:          cfg.Workers,
		Compression:      cfg.Compression,
		VirtualSimulated: time.Duration(vmin * float64(time.Second)),
		Wall:             wall,
		RegisterWall:     regWall,
		RegisterPerSec:   float64(cfg.Devices) / regWall.Seconds(),
		CheckIns:         tot.checkins.Load(),
		BatchRequests:    tot.batches.Load(),
		Polls:            tot.polls.Load(),
		Tasks:            tot.tasks.Load(),
		DeltaTasks:       tot.deltaTasks.Load(),
		UpdatesOK:        tot.updatesOK.Load(),
		UpdatesErr:       tot.updatesErr.Load(),
		NetErrors:        tot.netErrs.Load(),
		BytesSent:        tot.bytesSent.Load(),
		BytesRecv:        tot.bytesRecv.Load(),
		StartVersion:     startVersion,
		CheckInLatency:   lat[latCheckIn].summary(),
		TaskLatency:      lat[latTask].summary(),
		UpdateLatency:    lat[latUpdate].summary(),
		TierShards:       tierShards,
	}
	if wall > 0 {
		rep.AchievedCompression = vmin / wall.Seconds()
	}
	// Final status (fresh context: the run context may have expired).
	finalCtx, cancelFinal := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelFinal()
	if v, st, err := fetchVersion(finalCtx, cfg); err == nil {
		endVersion.Store(int64(v))
		rep.FinalStatus = st
	}
	rep.EndVersion = int(endVersion.Load())
	rep.RoundsCommitted = rep.EndVersion - rep.StartVersion
	if cfg.Rounds > 0 && rep.RoundsCommitted < cfg.Rounds {
		return rep, fmt.Errorf("vload: stopped at version %d (wanted %d committed rounds past %d)",
			rep.EndVersion, cfg.Rounds, rep.StartVersion)
	}
	return rep, nil
}

// fetchVersion reads the server's current published version — from the
// top level of the gateway's shard.Rollup in tier mode, else from the
// job's coord.StatusReport, which is also returned for the shutdown
// snapshot.
func fetchVersion(ctx context.Context, cfg Config) (int, *coord.StatusReport, error) {
	if cfg.Gateway {
		var roll shard.Rollup
		if err := getStatus(ctx, cfg, &roll); err != nil {
			return 0, nil, err
		}
		return roll.Version, nil, nil
	}
	var st coord.StatusReport
	if err := getStatus(ctx, cfg, &st); err != nil {
		return 0, nil, err
	}
	return st.Version, &st, nil
}

// getStatus decodes the server's status document into out: the tier
// document at the gateway's bare /v1/status, else the job's own.
func getStatus(ctx context.Context, cfg Config, out any) error {
	url := cfg.api + "/status"
	if cfg.Gateway {
		url = cfg.BaseURL + "/v1/status"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	cfg.authorize(req)
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("vload: status probe: HTTP %d (%v)", resp.StatusCode, err)
	}
	return json.Unmarshal(raw, out)
}

// waitTierHealthy blocks until the gateway reports every shard alive
// (launching a million virtual devices into a halted tier would only
// measure the halt gate).
func waitTierHealthy(ctx context.Context, cfg Config) (*shard.Rollup, error) {
	for {
		var roll shard.Rollup
		if getStatus(ctx, cfg, &roll) == nil && roll.Tier.Healthy {
			return &roll, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("vload: gave up waiting for tier health: %w", ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// sleepCtx sleeps for d unless the context ends first; it reports
// whether the run should continue.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
