package vload

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// streamRecorder is a fake server that answers just enough of the /v1
// API to keep a run going and records what each request carried.
type streamRecorder struct {
	schemes []string // update scheme named to device id % len
	dim     int

	mu       sync.Mutex
	version  int
	updates  int
	headers  map[string]map[string]bool // "METHOD path" -> header keys seen
	values   map[string]bool            // "route header: value" seen off /v1/status
	checkins map[string]bool            // JSON keys of check-in records
	bodies   map[string][]byte          // update body per scheme
	odd      []string                   // requests that broke the pinned shape
}

// transportHeaders are added by net/http itself, not by the generator.
var transportHeaders = map[string]bool{"User-Agent": true, "Accept-Encoding": true, "Content-Length": true}

func (s *streamRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	route := r.Method + " " + r.URL.Path
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.headers[route] == nil {
		s.headers[route] = map[string]bool{}
	}
	for k := range r.Header {
		if !transportHeaders[k] {
			s.headers[route][k] = true
		}
	}
	for _, k := range []string{"Accept", "X-Flint-Accept-Schemes", "Content-Type"} {
		if v := r.Header.Get(k); v != "" && r.URL.Path != "/v1/status" {
			s.values[route+" "+k+": "+v] = true
		}
	}
	switch route {
	case "GET /v1/status":
		writeTestJSON(w, http.StatusOK, map[string]int{"version": s.version})
	case "POST /v1/checkin/batch":
		var req struct{ Devices []map[string]any }
		if err := json.Unmarshal(body, &req); err != nil || len(req.Devices) == 0 {
			s.odd = append(s.odd, "unparseable batch")
		}
		for _, d := range req.Devices {
			for k := range d {
				s.checkins[k] = true
			}
		}
		writeTestJSON(w, http.StatusOK, coord.BatchCheckInResponse{Accepted: len(req.Devices)})
	case "GET /v1/task":
		id, err := strconv.Atoi(r.URL.Query().Get("device"))
		if err != nil || len(r.URL.Query()) != 1 {
			s.odd = append(s.odd, "task query "+r.URL.RawQuery)
		}
		h := w.Header()
		h.Set("Content-Type", coord.ContentTypeTensor)
		h.Set("X-Flint-Round", "1")
		h.Set("X-Flint-Base-Version", strconv.Itoa(s.version))
		h.Set("X-Flint-Dim", strconv.Itoa(s.dim))
		h.Set("X-Flint-Update-Scheme", s.schemes[id%len(s.schemes)])
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, 64))
	case "POST /v1/update":
		id, _ := strconv.Atoi(r.Header.Get("X-Flint-Device"))
		scheme := s.schemes[id%len(s.schemes)]
		if prev, ok := s.bodies[scheme]; ok && !bytes.Equal(prev, body) {
			s.odd = append(s.odd, "update bodies differ for "+scheme)
		}
		s.bodies[scheme] = body
		if s.updates++; s.updates%16 == 0 {
			s.version++
		}
		writeTestJSON(w, http.StatusAccepted, coord.UpdateResponse{Accepted: true})
	default:
		s.odd = append(s.odd, "unexpected "+route)
		w.WriteHeader(http.StatusNotFound)
	}
}

func writeTestJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func keys(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestBenchmarkRequestStream pins the request stream of the config the
// benchmark (perfbench) builds — BaseURL, Devices, Compression,
// VirtualDuration, Seed, Workers, Client and nothing else — so options
// added for the wall-clock fleet cannot change what the benchmark
// measures: the same routes and header sets, no token, no base version,
// no JSON task, and the alternating ±1e-3 update blob for every scheme.
// It also pins the per-device record's size, about a third of the
// benchmark's heap_bytes_per_device at half a million devices.
func TestBenchmarkRequestStream(t *testing.T) {
	if got := unsafe.Sizeof(vdev{}); got != 88 {
		t.Fatalf("vdev is %d bytes, want 88", got)
	}
	rec := &streamRecorder{
		schemes:  []string{"f32", "q8", "raw64", "topk:32"},
		dim:      256,
		version:  1,
		headers:  map[string]map[string]bool{},
		values:   map[string]bool{},
		checkins: map[string]bool{},
		bodies:   map[string][]byte{},
	}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	rep, err := Run(Config{
		BaseURL:         srv.URL,
		Devices:         400,
		Compression:     1e6,
		VirtualDuration: 3650 * 24 * time.Hour,
		Seed:            1,
		Workers:         runtime.GOMAXPROCS(0),
		Client:          srv.Client(),
		Rounds:          3,
		Timeout:         60 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v (report: %+v)", err, rep)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.odd) > 0 {
		t.Fatalf("unexpected requests: %v", rec.odd)
	}
	if rep.NetErrors != 0 || rep.UpdatesErr != 0 || rep.DeltaTasks != 0 {
		t.Fatalf("report: %+v", rep)
	}
	wantHeaders := map[string]string{
		"GET /v1/status":         "",
		"POST /v1/checkin/batch": "Content-Type",
		"GET /v1/task":           "Accept,X-Flint-Accept-Schemes",
		"POST /v1/update": "Content-Type,X-Flint-Base-Version,X-Flint-Device,X-Flint-Down-Bytes," +
			"X-Flint-Down-Ms,X-Flint-Round,X-Flint-Train-Ms,X-Flint-Up-Bytes,X-Flint-Up-Ms,X-Flint-Weight",
	}
	if len(rec.headers) != len(wantHeaders) {
		t.Fatalf("routes %v, want %v", rec.headers, wantHeaders)
	}
	for route, want := range wantHeaders {
		if got := keys(rec.headers[route]); got != want {
			t.Errorf("%s headers = %q, want %q", route, got, want)
		}
	}
	accept := transport.FormatAccept(transport.AllKinds())
	wantValues := "GET /v1/task Accept: " + coord.ContentTypeTensor + "," +
		"GET /v1/task X-Flint-Accept-Schemes: " + accept + "," +
		"POST /v1/checkin/batch Content-Type: application/json," +
		"POST /v1/update Content-Type: " + coord.ContentTypeTensor
	if got := keys(rec.values); got != wantValues {
		t.Errorf("header values = %q, want %q", got, wantValues)
	}
	if got, want := keys(rec.checkins), "accept_schemes,battery_high,device_id,model,modern_os,platform,session_sec,weight,wifi"; got != want {
		t.Errorf("check-in record keys = %q, want %q", got, want)
	}
	delta := make(tensor.Vector, rec.dim)
	for i := range delta {
		delta[i] = 1e-3 * (1 - 2*float64(i%2))
	}
	for _, name := range rec.schemes {
		sch, err := codec.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Encode(delta, sch)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := rec.bodies[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s update body differs from the alternating 1e-3 blob (%d bytes, want %d)", name, len(got), len(want))
		}
	}
}

// TestRoundsStopCountsNoNetErrors stops a run by Rounds while its
// workers are inside batched check-ins against a healthy (if slow)
// server: requests the stop cancels are not network errors.
func TestRoundsStopCountsNoNetErrors(t *testing.T) {
	const devices = 200
	var (
		mu         sync.Mutex
		registered = map[int64]bool{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/status":
			mu.Lock()
			v := 1
			if len(registered) == devices {
				v = 2 // one round commits once the fleet is registered
			}
			mu.Unlock()
			writeTestJSON(w, http.StatusOK, map[string]int{"version": v})
		case "/v1/checkin/batch":
			var req coord.BatchCheckInRequest
			json.NewDecoder(r.Body).Decode(&req)
			mu.Lock()
			again := true
			for _, d := range req.Devices {
				again = again && registered[d.DeviceID]
				registered[d.DeviceID] = true
			}
			mu.Unlock()
			if again {
				// Session check-ins are slow, so the stop lands mid-batch.
				select {
				case <-r.Context().Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
			writeTestJSON(w, http.StatusOK, coord.BatchCheckInResponse{Accepted: len(req.Devices)})
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()
	rep, err := Run(Config{
		BaseURL:        srv.URL,
		Devices:        devices,
		Compression:    1000,
		Rounds:         1,
		Seed:           1,
		Workers:        4,
		Batch:          1,
		SessionsPerDay: 86400,
		Timeout:        30 * time.Second,
		Client:         srv.Client(),
	})
	if err != nil {
		t.Fatalf("run: %v (report: %+v)", err, rep)
	}
	if rep.CheckIns <= devices {
		t.Fatalf("only %d check-ins: the stop never met a session check-in", rep.CheckIns)
	}
	if rep.NetErrors != 0 {
		t.Fatalf("%d net errors from a healthy server", rep.NetErrors)
	}
}

// TestLatencyHistogram pins the fixed-bucket quantiles: exact to one
// bucket and never above the observed maximum.
func TestLatencyHistogram(t *testing.T) {
	var h, other latHist
	for i := 1; i <= 100; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	other.add(2 * time.Second)
	h.merge(&other)
	s := h.summary()
	if s.Count != 101 || s.Max != 2000 {
		t.Fatalf("summary %+v", s)
	}
	for _, c := range []struct{ got, want float64 }{{s.P50, 51}, {s.P90, 91}, {s.P99, 100}} {
		if c.got < c.want || c.got > c.want*1.19 {
			t.Errorf("quantile %v ms, want within one bucket above %v ms", c.got, c.want)
		}
	}
	if (&latHist{}).summary() != (LatencySummary{}) {
		t.Error("empty histogram reported latencies")
	}
}
