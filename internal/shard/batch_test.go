package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tenant"
)

// batchBackend is a fake shard that understands /v1/checkin/batch: it
// records which devices its sub-batch carried and answers with
// shard-distinct version/round numbers so the merge rule is observable.
type batchBackend struct {
	index int
	mu    sync.Mutex
	seen  []int64
	fail  bool
}

func (b *batchBackend) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/checkin/batch" {
			writeJSON(w, http.StatusOK, map[string]any{"ok": true})
			return
		}
		if b.fail {
			http.Error(w, "shard down", http.StatusInternalServerError)
			return
		}
		var req coord.BatchCheckInRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		for _, d := range req.Devices {
			b.seen = append(b.seen, d.DeviceID)
		}
		b.mu.Unlock()
		writeJSON(w, http.StatusOK, coord.BatchCheckInResponse{
			Accepted: len(req.Devices),
			New:      len(req.Devices),
			Eligible: len(req.Devices) - 1,
			Version:  10 + b.index,
			RoundID:  uint64(100 + b.index),
		})
	})
}

// TestGatewayCheckInBatchSplit pins the batched check-in fan-out: one
// client batch is partitioned by the ring, each shard sees exactly its
// own devices, and the reply merges counts (sums) and version/round
// (max — shards publish independent sequences).
func TestGatewayCheckInBatchSplit(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 3, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	backs := make([]*batchBackend, 3)
	urls := make([]string, 3)
	for i := range backs {
		backs[i] = &batchBackend{index: i}
		srv := httptest.NewServer(backs[i].handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	gw, err := NewGateway(GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()

	var req coord.BatchCheckInRequest
	for id := int64(1); id <= 60; id++ {
		req.Devices = append(req.Devices, coord.CheckInRequest{DeviceID: id, Model: "Pixel-6"})
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through gateway: %s", resp.Status)
	}
	var out coord.BatchCheckInResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 60 || out.New != 60 {
		t.Fatalf("merged counts %+v, want 60 accepted/new", out)
	}
	ring := gw.Ring()
	shardsHit := 0
	for s, b := range backs {
		b.mu.Lock()
		for _, id := range b.seen {
			if ring.Shard(id) != s {
				t.Fatalf("shard %d got device %d owned by shard %d", s, id, ring.Shard(id))
			}
		}
		n := len(b.seen)
		b.mu.Unlock()
		if n > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Fatalf("only %d shards saw sub-batches for 60 devices", shardsHit)
	}
	// Eligible: each hit shard under-reports by one in the fake.
	if out.Eligible != 60-shardsHit {
		t.Fatalf("merged eligible %d, want %d", out.Eligible, 60-shardsHit)
	}
	// Version/round merge as max across the shards that answered.
	wantVer := 0
	for s, b := range backs {
		b.mu.Lock()
		if len(b.seen) > 0 && 10+s > wantVer {
			wantVer = 10 + s
		}
		b.mu.Unlock()
	}
	if out.Version != wantVer || out.RoundID != uint64(wantVer+90) {
		t.Fatalf("merged version/round %d/%d, want %d/%d", out.Version, out.RoundID, wantVer, wantVer+90)
	}

	// One shard failing poisons the whole batch: check-ins are
	// idempotent, so the client retries everything against 502.
	backs[1].fail = true
	resp2, err := http.Post(front.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial shard failure returned %s, want 502", resp2.Status)
	}
}

// TestGatewayCheckInBatchForwardsJobToken splits a batched check-in for
// a token-protected job across tenant-plane shards: each shard
// authenticates its sub-batch, so the client's Authorization header
// must ride along, and a batch without it must not get through.
func TestGatewayCheckInBatchForwardsJobToken(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*tenant.Registry, 2)
	urls := make([]string, 2)
	for i := range regs {
		regs[i] = tenant.NewRegistry(coord.Config{ModelKind: model.KindA, Seed: 1, RoundDeadline: time.Minute})
		t.Cleanup(regs[i].Close)
		if _, err := regs[i].Register(tenant.JobSpec{Name: "secure", Token: "t0ken"}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(tenant.NewServer(regs[i], false))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	gw, err := NewGateway(GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()

	var req coord.BatchCheckInRequest
	for id := int64(1); id <= 60; id++ {
		req.Devices = append(req.Devices, coord.CheckInRequest{DeviceID: id, Model: "Pixel-6", WiFi: true})
	}
	raw, _ := json.Marshal(req)
	post := func(token string) *http.Response {
		r, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs/secure/checkin/batch", bytes.NewReader(raw))
		r.Header.Set("Content-Type", "application/json")
		if token != "" {
			r.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(""); resp.StatusCode == http.StatusOK {
		t.Fatal("tokenless batch check-in for a protected job succeeded")
	}
	resp := post("t0ken")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch check-in with the job token: %s", resp.Status)
	}
	var out coord.BatchCheckInResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, reg := range regs {
		known += reg.Get("secure").Coord.Status().Devices.Known
	}
	if out.Accepted != 60 || known != 60 {
		t.Fatalf("accepted %d, shards know %d devices; want 60", out.Accepted, known)
	}
}
