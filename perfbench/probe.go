package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/coord"
)

// route is the protocol verb a request addresses.
type route uint8

const (
	rCheckinBatch route = iota
	rTask
	rUpdate
	rStatus
	rPartial
	rOther
	nRoutes
)

var routeNames = [nRoutes]string{"checkin_batch", "task", "update", "status", "partial", "other"}

// clientRoutes are the device-API routes vload drives.
var clientRoutes = []route{rCheckinBatch, rTask, rUpdate, rStatus}

func routeOf(path string) route {
	switch path {
	case "/v1/checkin/batch":
		return rCheckinBatch
	case "/v1/task":
		return rTask
	case "/v1/update":
		return rUpdate
	case "/v1/status":
		return rStatus
	case "/shard/v1/partial":
		return rPartial
	}
	return rOther
}

// okStatus is the failure rule: every non-2xx response is a failure
// except a /v1/task 404, which tells a swept device to register again.
func okStatus(rt route, code int) bool {
	return code/100 == 2 || (rt == rTask && code == http.StatusNotFound)
}

// client is the load generator's HTTP client: an http.RoundTripper that
// counts wire bytes at the connection, counts attempted and failed
// requests, and hands every request to the current run's observer.
type client struct {
	http      *http.Client
	tr        *http.Transport
	down, up  atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	obs       atomic.Pointer[observer]
}

func newClient(workers int) *client {
	c := &client{}
	var d net.Dialer
	c.tr = &http.Transport{
		MaxIdleConns:        4 * workers,
		MaxIdleConnsPerHost: 4 * workers,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, c: c}, nil
		},
	}
	// No client timeout: the only cancellation is the run's own stop,
	// which the failure accounting recognizes by the request context.
	c.http = &http.Client{Transport: c}
	return c
}

type countingConn struct {
	net.Conn
	c *client
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.down.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.up.Add(int64(n))
	return n, err
}

// RoundTrip implements http.RoundTripper.
func (c *client) RoundTrip(req *http.Request) (*http.Response, error) {
	o := c.obs.Load()
	rt := routeOf(req.URL.Path)
	var call *call
	if o != nil {
		req, call = o.begin(req, rt)
	}
	start := time.Now()
	resp, err := c.tr.RoundTrip(req)
	if err != nil {
		c.finish(o, call, req, rt, 0, start, err)
		return nil, err
	}
	if o != nil {
		o.headers(call, rt, req, resp)
	}
	resp.Body = &observedBody{ReadCloser: resp.Body, c: c, o: o, call: call, req: req, rt: rt,
		status: resp.StatusCode, start: start, tee: call.teeFor(rt, resp.StatusCode)}
	return resp, nil
}

// finish accounts one completed request. A request that failed because
// the run's own stop cancelled its context is neither attempted nor
// failed: vload stops by cancelling its context mid-request.
func (c *client) finish(o *observer, call *call, req *http.Request, rt route, status int, start time.Time, err error) {
	end := time.Now()
	if err != nil && req.Context().Err() != nil {
		if o != nil && rt == rUpdate && status == 0 {
			o.cancelledUpdates.Add(1)
		}
		return
	}
	c.attempted.Add(1)
	failed := err != nil || !okStatus(rt, status)
	if failed {
		c.failed.Add(1)
	}
	if o != nil {
		o.end(call, rt, status, start, end)
	}
}

// observedBody times a response until vload closes its body, so the
// client-side latency includes the body transfer.
type observedBody struct {
	io.ReadCloser
	c       *client
	o       *observer
	call    *call
	req     *http.Request
	rt      route
	status  int
	start   time.Time
	tee     *bytes.Buffer
	readErr error
	closed  bool
}

func (b *observedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.tee != nil {
		b.tee.Write(p[:n])
	}
	if err != nil && err != io.EOF {
		b.readErr = err
	}
	return n, err
}

func (b *observedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.c.finish(b.o, b.call, b.req, b.rt, b.status, b.start, b.readErr)
		if b.tee != nil && b.readErr == nil {
			b.o.parseStatus(b.tee.Bytes())
		}
	}
	return err
}

// call is the observer's per-request state.
type call struct {
	slot   int32
	traced bool
	span   uint64
	shard  int
	minVer int
}

// teeFor says whether to keep a copy of the response body: the
// measured run's /v1/status documents carry the round summaries the
// correctness checks read.
func (c *call) teeFor(rt route, status int) *bytes.Buffer {
	if c == nil || rt != rStatus || status != http.StatusOK {
		return nil
	}
	return new(bytes.Buffer)
}

// sighting is the first time a published model version was seen in a
// task response.
type sighting struct {
	at      time.Time
	version int
}

// observer watches one vload run through the client: it finds where
// set-up ends, assigns requests to measured slots, collects client latencies,
// version sightings, accepted updates and round summaries, and checks
// that no shard's served version goes down.
type observer struct {
	sys     *system
	tr      *tracer
	regSeen atomic.Bool
	setupAt atomic.Int64 // unix ns when set-up ended; 0 before
	onSetup func(time.Time)
	// slot is the measured slot requests starting now belong to: 0 is
	// set-up, 1..n the measured slots, n+1 the tail after measurement.
	slot atomic.Int32

	accepted         atomic.Int64 // 202 responses to /v1/update
	cancelledUpdates atomic.Int64
	regressions      atomic.Int64

	mu        sync.Mutex
	lat       []*slotStats // by slot
	shardVer  map[int]int  // newest version sighted per shard, by response arrival
	sightings []sighting   // versions in first-sighting order, strictly increasing
	accepts   map[int][]time.Time
	summaries map[[2]uint64]coord.RoundSummary // (shard, round) → committed summary
	statusErr error
}

// slotStats are the client-side figures of one slot.
type slotStats struct {
	// lat is client latency by route, µs. Task polls answered with a
	// task (200 and a model blob) are kept apart in fetch: the two are
	// different work, and a percentile over both moves with their mix.
	lat   [nRoutes][]float64
	fetch []float64
}

// stats returns slot i's figures (empty when nothing was recorded).
func (o *observer) stats(i int) *slotStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.statsLocked(i)
}

func (o *observer) statsLocked(i int) *slotStats {
	for len(o.lat) <= i {
		o.lat = append(o.lat, new(slotStats))
	}
	return o.lat[i]
}

func newObserver(sys *system, tr *tracer) *observer {
	return &observer{
		sys:       sys,
		tr:        tr,
		shardVer:  make(map[int]int),
		accepts:   make(map[int][]time.Time),
		summaries: make(map[[2]uint64]coord.RoundSummary),
	}
}

// setupEnd is when set-up ended: the start of the first request after
// the registration storm that is not itself a batch check-in.
func (o *observer) setupEnd() (time.Time, bool) {
	ns := o.setupAt.Load()
	return time.Unix(0, ns), ns != 0
}

func (o *observer) begin(req *http.Request, rt route) (*http.Request, *call) {
	if rt == rCheckinBatch {
		o.regSeen.Store(true)
	} else if o.regSeen.Load() && o.setupAt.Load() == 0 {
		now := time.Now()
		if o.setupAt.CompareAndSwap(0, now.UnixNano()) && o.onSetup != nil {
			o.onSetup(now)
		}
	}
	c := &call{slot: o.slot.Load(), traced: o.tr.on()}
	if rt == rTask {
		id, _ := strconv.ParseInt(req.URL.Query().Get("device"), 10, 64)
		c.shard = o.sys.shardOf(id)
		o.mu.Lock()
		c.minVer = o.shardVer[c.shard]
		o.mu.Unlock()
	}
	if c.traced {
		c.span = o.tr.newID()
		req = req.Clone(req.Context())
		req.Header.Set(hdrTrace, strconv.FormatUint(c.span, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(c.span, 10))
	}
	return req, c
}

// headers records what a response's headers say: the model version a
// task trains from, and accepted updates by the base version they
// trained on.
func (o *observer) headers(c *call, rt route, req *http.Request, resp *http.Response) {
	now := time.Now()
	switch {
	case rt == rTask && resp.StatusCode == http.StatusOK:
		v, err := strconv.Atoi(resp.Header.Get("X-Flint-Base-Version"))
		if err != nil {
			return
		}
		o.mu.Lock()
		if v < c.minVer {
			// A request sent after shard s was seen serving minVer must
			// not be served an older version by s.
			o.regressions.Add(1)
		}
		if v > o.shardVer[c.shard] {
			o.shardVer[c.shard] = v
		}
		if n := len(o.sightings); n == 0 || v > o.sightings[n-1].version {
			o.sightings = append(o.sightings, sighting{at: now, version: v})
		}
		o.mu.Unlock()
	case rt == rUpdate && resp.StatusCode == http.StatusAccepted:
		o.accepted.Add(1)
		base, err := strconv.Atoi(req.Header.Get("X-Flint-Base-Version"))
		if err != nil {
			return
		}
		o.mu.Lock()
		o.accepts[base] = append(o.accepts[base], now)
		o.mu.Unlock()
	}
}

func (o *observer) end(c *call, rt route, status int, start, end time.Time) {
	o.mu.Lock()
	st := o.statsLocked(int(c.slot))
	d := float64(end.Sub(start).Nanoseconds()) / 1e3
	if rt == rTask && status == http.StatusOK {
		st.fetch = append(st.fetch, d)
	} else {
		st.lat[rt] = append(st.lat[rt], d)
	}
	o.mu.Unlock()
	if c.span != 0 {
		o.tr.add(span{trace: c.span, id: c.span, layer: layerClient, route: rt, status: status, start: start, end: end})
	}
}

// parseStatus keeps the committed round summaries of a /v1/status
// document: a coordinator's own, or each shard's inside the gateway's
// rollup.
func (o *observer) parseStatus(raw []byte) {
	type doc struct {
		Recent []coord.RoundSummary `json:"recent_rounds"`
	}
	docs := map[int]doc{}
	if o.sys.gw == nil {
		var d doc
		if err := json.Unmarshal(raw, &d); err != nil {
			o.noteStatusErr(err)
			return
		}
		docs[0] = d
	} else {
		var rollup struct {
			Shards []struct {
				Index  int             `json:"index"`
				Status json.RawMessage `json:"status"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(raw, &rollup); err != nil {
			o.noteStatusErr(err)
			return
		}
		for _, s := range rollup.Shards {
			var d doc
			if err := json.Unmarshal(s.Status, &d); err != nil {
				o.noteStatusErr(err)
				return
			}
			docs[s.Index] = d
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for shardIdx, d := range docs {
		for _, s := range d.Recent {
			if s.Phase == coord.PhaseCommitted {
				o.summaries[[2]uint64{uint64(shardIdx), s.ID}] = s
			}
		}
	}
}

func (o *observer) noteStatusErr(err error) {
	o.mu.Lock()
	if o.statusErr == nil {
		o.statusErr = err
	}
	o.mu.Unlock()
}

// roundSamples turns the version sightings inside [from, to) into
// commit-to-commit intervals, each ending at its sighting: a gap
// spanning k versions counts as k samples of gap/k, so runs whose
// sighted versions skip still count.
func (o *observer) roundSamples(from, to time.Time) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []float64
	for i := 1; i < len(o.sightings); i++ {
		a, b := o.sightings[i-1], o.sightings[i]
		if b.at.Before(from) || !b.at.Before(to) {
			continue
		}
		k := b.version - a.version
		gap := float64(b.at.Sub(a.at).Nanoseconds()) / 1e6 / float64(k)
		for j := 0; j < k; j++ {
			out = append(out, gap)
		}
	}
	return out
}

// commitLags measures, for every version first sighted inside
// [from, to), the time from the last 202 for an update trained on the
// previous version to that sighting: queue, screen, reduce, clip and
// noise, publish and encode, and in the tier the partial exchange.
func (o *observer) commitLags(from, to time.Time) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []float64
	for _, s := range o.sightings {
		if s.at.Before(from) || !s.at.Before(to) {
			continue
		}
		ts := o.accepts[s.version-1]
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		i := sort.Search(len(ts), func(i int) bool { return !ts[i].Before(s.at) })
		if i > 0 {
			out = append(out, float64(s.at.Sub(ts[i-1]).Nanoseconds())/1e6)
		}
	}
	return out
}

// Benchmark-set headers linking spans across layers. The gateway clones
// request headers to the shard it proxies to, so they cross that hop.
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
)

// layer names a span's source.
type layer uint8

const (
	layerClient layer = iota
	layerGateway
	layerServer
	layerExchange
	layerLeader
)

var layerNames = [...]string{"client", "gateway", "server", "exchange", "leader"}

type span struct {
	trace, id, parent uint64
	layer             layer
	route             route
	status            int
	start, end        time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records spans in memory while tracing is on.
type tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	// pending maps a partial in flight, by (shard, round), to its
	// exchange span, so the leader's handler span can name its parent.
	pending sync.Map
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerHandler wraps a coord.Server or shard.Gateway. With tracing off
// it calls straight through.
type layerHandler struct {
	layer layer
	inner http.Handler
	tr    *tracer
}

func (h *layerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on() {
		h.inner.ServeHTTP(w, r)
		return
	}
	rt := routeOf(r.URL.Path)
	s := span{id: h.tr.newID(), layer: h.layer, route: rt}
	s.trace, _ = strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
	s.parent, _ = strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	if rt == rPartial {
		// The gateway hosts the leader's partial verb; its caller is an
		// exchange span, found by shard and round.
		s.layer = layerLeader
		key := r.Header.Get("X-Flint-Shard") + "/" + r.Header.Get("X-Flint-Round")
		if v, ok := h.tr.pending.Load(key); ok {
			s.parent = v.(uint64)
			s.trace = s.parent
		}
	}
	if h.layer == layerGateway && s.trace != 0 {
		r.Header.Set(hdrParent, strconv.FormatUint(s.id, 10))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.start = time.Now()
	h.inner.ServeHTTP(sw, r)
	s.end = time.Now()
	s.status = sw.status
	h.tr.add(s)
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// exchangeProbe decorates a shard's coord.PartialExchange.
type exchangeProbe struct {
	inner coord.PartialExchange
	tr    *tracer
}

func (x *exchangeProbe) SubmitPartial(pc coord.PartialCommit) (coord.GlobalInstall, error) {
	if !x.tr.on() {
		return x.inner.SubmitPartial(pc)
	}
	s := span{id: x.tr.newID(), layer: layerExchange, route: rPartial, status: http.StatusOK}
	s.trace = s.id
	key := strconv.Itoa(pc.ShardID) + "/" + strconv.FormatUint(pc.Round, 10)
	x.tr.pending.Store(key, s.id)
	s.start = time.Now()
	inst, err := x.inner.SubmitPartial(pc)
	s.end = time.Now()
	x.tr.pending.Delete(key)
	if err != nil {
		s.status = http.StatusServiceUnavailable
		if !errors.Is(err, coord.ErrTierHalted) {
			s.status = http.StatusBadGateway
		}
	}
	x.tr.add(s)
	return inst, err
}
