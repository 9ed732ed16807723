package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/tensor"
)

// recordingBackend is a fake shard replica: it records which paths and
// devices reached it and answers enough of the /v1 API for the gateway
// tests.
type recordingBackend struct {
	mu   sync.Mutex
	hits []string // "METHOD path device"
}

func (b *recordingBackend) handler(index int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		device := r.URL.Query().Get("device")
		if device == "" {
			device = r.Header.Get("X-Flint-Device")
		}
		if device == "" {
			var req struct {
				DeviceID int64 `json:"device_id"`
			}
			body, _ := io.ReadAll(r.Body)
			if json.Unmarshal(body, &req) == nil && req.DeviceID != 0 {
				device = strconv.FormatInt(req.DeviceID, 10)
			}
		}
		b.mu.Lock()
		b.hits = append(b.hits, fmt.Sprintf("%s %s %s", r.Method, r.URL.Path, device))
		b.mu.Unlock()
		if r.URL.Path == "/v1/status" {
			writeJSON(w, http.StatusOK, map[string]any{"shard_index": index, "version": 1})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
}

func (b *recordingBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.hits)
}

func newTestGateway(t *testing.T, backends int) (*Gateway, *Leader, []*recordingBackend) {
	t.Helper()
	leader, err := NewLeader(LeaderConfig{Shards: backends, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recordingBackend, backends)
	urls := make([]string, backends)
	for i := range recs {
		recs[i] = &recordingBackend{}
		srv := httptest.NewServer(recs[i].handler(i))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	gw, err := NewGateway(GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	return gw, leader, recs
}

func TestGatewayHaltsTasksWhileUnhealthy(t *testing.T) {
	gw, leader, recs := newTestGateway(t, 2)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	// No shard has pinged: the tier is unhealthy and task assignment is
	// halted at the front door.
	resp, err := http.Get(srv.URL + "/v1/task?device=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("halted tier served a task: %s", resp.Status)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("halt response missing Retry-After")
	}
	// The header carries jitter (±25% around 1s) so a halted fleet does
	// not retry in lockstep when the tier heals.
	secs, err := strconv.ParseFloat(ra, 64)
	if err != nil {
		t.Fatalf("Retry-After %q is not a number: %v", ra, err)
	}
	if secs < 0.75 || secs > 1.25 {
		t.Fatalf("Retry-After %v outside the ±25%% jitter band around 1s", secs)
	}
	if recs[0].count()+recs[1].count() != 0 {
		t.Fatal("halted task leaked through to a shard")
	}
	// Heartbeats and check-ins still pass during a halt — only new work
	// stops.
	resp, err = http.Post(srv.URL+"/v1/heartbeat?device=5", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat blocked during halt: %s", resp.Status)
	}

	leader.Ping(0)
	leader.Ping(1)
	resp, err = http.Get(srv.URL + "/v1/task?device=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy tier refused a task: %s", resp.Status)
	}
}

func TestGatewayRoutesByDeviceID(t *testing.T) {
	gw, leader, recs := newTestGateway(t, 2)
	leader.Ping(0)
	leader.Ping(1)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	ring := gw.Ring()
	perShard := [2]int{}
	for id := int64(1); id <= 20; id++ {
		want := ring.Shard(id)
		perShard[want]++

		// Query-string verbs.
		resp, err := http.Get(fmt.Sprintf("%s/v1/task?device=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// JSON body verb (buffered, id extracted, body replayed).
		body, _ := json.Marshal(map[string]any{"device_id": id, "model": "Pixel-6"})
		resp, err = http.Post(srv.URL+"/v1/checkin", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// Binary update (header id, streamed body).
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/update", bytes.NewReader([]byte{1, 2, 3}))
		req.Header.Set("Content-Type", coord.ContentTypeTensor)
		req.Header.Set("X-Flint-Device", strconv.FormatInt(id, 10))
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// Tenant-prefixed path routes by the same rule.
		resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/other/task?device=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for s, rec := range recs {
		if got, want := rec.count(), perShard[s]*4; got != want {
			t.Fatalf("shard %d saw %d requests, ring owed it %d\nhits: %v", s, got, want, rec.hits)
		}
		// Every hit must carry the id of a device the ring maps here.
		rec.mu.Lock()
		for _, h := range rec.hits {
			var method, path, device string
			fmt.Sscanf(h, "%s %s %s", &method, &path, &device)
			id, err := strconv.ParseInt(device, 10, 64)
			if err != nil || ring.Shard(id) != s {
				t.Fatalf("shard %d served misrouted request %q", s, h)
			}
		}
		rec.mu.Unlock()
	}
}

func TestGatewayRollup(t *testing.T) {
	gw, leader, _ := newTestGateway(t, 2)
	leader.Ping(0)
	if err := leader.EnsureJob(""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup status %s", resp.Status)
	}
	var roll Rollup
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	if roll.Version != 1 {
		t.Fatalf("rollup version = %d, want 1 (eager default job)", roll.Version)
	}
	if roll.Tier.Healthy {
		t.Fatal("rollup reports healthy with shard 1 silent")
	}
	if len(roll.Shards) != 2 || !roll.Shards[0].OK || !roll.Shards[1].OK {
		t.Fatalf("rollup shard rows wrong: %+v", roll.Shards)
	}
	var st struct {
		ShardIndex int `json:"shard_index"`
	}
	if err := json.Unmarshal(roll.Shards[1].Status, &st); err != nil || st.ShardIndex != 1 {
		t.Fatalf("shard row 1 carries wrong status doc: %s", roll.Shards[1].Status)
	}
	// The leader's view is served once, as the rollup's tier section.
	tier, err := http.Get(srv.URL + "/shard/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	tier.Body.Close()
	if tier.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /shard/v1/status = %s, want 404", tier.Status)
	}
}

// TestHTTPExchangeRoundTrip drives the wire form of the exchange: a
// partial posted through HTTPExchange must reach the leader as the
// exact codec blob, and a behind shard must get the raw64 install blob
// back — both directions in codec wire form, no JSON re-framing.
func TestHTTPExchangeRoundTrip(t *testing.T) {
	gw, leader, _ := newTestGateway(t, 2)
	srv := httptest.NewServer(gw)
	defer srv.Close()
	x := NewHTTPExchange(srv.URL)

	if err := x.Ping(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Ping(1); err != nil {
		t.Fatal(err)
	}

	_, init := leader.Global("")
	if init == nil {
		if err := leader.EnsureJob(""); err != nil {
			t.Fatal(err)
		}
		_, init = leader.Global("")
	}
	partial := tensor.NewVector(len(init))
	for j := range partial {
		partial[j] = float64(j%7) / 50
	}
	blob, err := codec.Encode(partial, codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}

	// First partial buffers: version stays 1, no install blob.
	inst, err := x.SubmitPartial(coord.PartialCommit{
		ShardID: 0, Round: 1, BaseVersion: 1, Updates: 4, Weight: 40, Blob: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Version != 1 || len(inst.Blob) != 0 {
		t.Fatalf("buffered partial got install v%d (%d bytes), want noop v1", inst.Version, len(inst.Blob))
	}

	// Second partial completes the fold: version 2 plus the full raw64
	// global, which must decode to init + partial (lr=1, equal weights,
	// both partials identical).
	inst, err = x.SubmitPartial(coord.PartialCommit{
		ShardID: 1, Round: 1, BaseVersion: 1, Updates: 4, Weight: 40, Blob: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Version != 2 || len(inst.Blob) == 0 {
		t.Fatalf("fold-completing partial got v%d (%d bytes), want v2 with blob", inst.Version, len(inst.Blob))
	}
	got, scheme, err := codec.Decode(inst.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if scheme != codec.RawF64 {
		t.Fatalf("install blob scheme %v, want raw64", scheme)
	}
	_, tier := leader.Global("")
	for j := range got {
		if got[j] != tier[j] {
			t.Fatalf("install blob diverges from leader at %d", j)
		}
	}

	// Halted exchange surfaces as ErrTierHalted across the wire.
	leader2, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := NewGateway(GatewayConfig{Shards: []string{"http://unused0", "http://unused1"}, Leader: leader2})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(gw2)
	defer srv2.Close()
	x2 := NewHTTPExchange(srv2.URL)
	if _, err := x2.SubmitPartial(coord.PartialCommit{ShardID: 0, BaseVersion: 1, Blob: blob}); err != coord.ErrTierHalted {
		t.Fatalf("halted exchange returned %v, want ErrTierHalted", err)
	}
}
