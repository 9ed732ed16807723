package coord_test

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/transport"
	"flint/internal/vload"
)

// The tests in this file drive a live httptest server with the load
// generator (internal/vload) on the wall clock: compression 1, devices
// that wake within about a second and stay in session for the whole
// run, short think and training times.

// wallFleet is the always-on wall-clock fleet the tests below start
// from.
func wallFleet(url string, devices, rounds int, seed int64) vload.Config {
	return vload.Config{
		BaseURL: url,
		Devices: devices,
		Rounds:  rounds,
		Seed:    seed,
		Timeout: 90 * time.Second,
	}
}

// startServer runs a coordinator behind its HTTP API for one test.
func startServer(t *testing.T, cfg coord.Config) (*coord.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(coord.NewServer(c))
	t.Cleanup(srv.Close)
	return c, srv
}

// requireModelMoved fails unless the published model differs from the
// initial one: aggregation really ran.
func requireModelMoved(t *testing.T, c *coord.Coordinator) {
	t.Helper()
	final, _, err := c.Store().Latest(c.Config().ModelName)
	if err != nil {
		t.Fatal(err)
	}
	init, err := c.Store().Get(c.Config().ModelName, 1)
	if err != nil {
		t.Fatal(err)
	}
	diff := final.Params().Clone()
	diff.Sub(init.Params())
	if diff.Norm2() == 0 {
		t.Fatal("model parameters unchanged after committed rounds")
	}
}

// TestFleetEndToEnd drives a wall-clock fleet through a live httptest
// server until at least 3 rounds commit, in both serving modes. Run
// with -race: this is the subsystem's concurrency gauntlet.
func TestFleetEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		cfg  coord.Config
	}{
		{
			name: "SyncFedAvg",
			cfg: coord.Config{
				Mode:          coord.ModeSync,
				ModelKind:     model.KindA,
				Seed:          1,
				TargetUpdates: 12,
				Quorum:        4,
				OverCommit:    2,
				RoundDeadline: 5 * time.Second,
				QueueDepth:    128,
				KeepVersions:  -1,
				Criteria:      availability.Criteria{RequireWiFi: true},
			},
		},
		{
			name: "AsyncFedBuff",
			cfg: coord.Config{
				Mode:           coord.ModeAsync,
				ModelKind:      model.KindA,
				Seed:           1,
				TargetUpdates:  12,
				Quorum:         4,
				MaxInflight:    256,
				RoundDeadline:  5 * time.Second,
				MaxStaleness:   4,
				StalenessAlpha: 0.5,
				QueueDepth:     128,
				KeepVersions:   -1,
				Criteria:       availability.Criteria{RequireWiFi: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, srv := startServer(t, tc.cfg)
			rep, err := vload.Run(wallFleet(srv.URL, 150, 3, 7))
			if err != nil {
				t.Fatalf("fleet: %v (report: %+v)", err, rep)
			}
			if rep.RoundsCommitted < 3 {
				t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
			}
			if rep.UpdatesOK < int64(3*tc.cfg.Quorum) {
				t.Fatalf("only %d updates accepted", rep.UpdatesOK)
			}
			if rep.CheckInLatency.Count == 0 || rep.UpdateLatency.Count == 0 {
				t.Fatalf("latency histograms empty: %+v", rep)
			}
			_, v, err := c.Store().Latest(c.Config().ModelName)
			if err != nil {
				t.Fatal(err)
			}
			if v < 4 {
				t.Fatalf("store latest version = %d, want >= 4", v)
			}
			requireModelMoved(t, c)
		})
	}
}

// TestFleetMixedProtocols runs binary-tensor and JSON clients against
// the same server in the same rounds: the content-negotiation contract
// is that neither cohort can tell the other exists.
func TestFleetMixedProtocols(t *testing.T) {
	c, srv := startServer(t, coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 10,
		Quorum:        4,
		OverCommit:    2,
		RoundDeadline: 5 * time.Second,
		QueueDepth:    128,
		KeepVersions:  -1,
		Transport:     transport.Config{Default: transport.Policy{Update: codec.Q8}},
		Criteria:      availability.Criteria{RequireWiFi: true},
	})
	cfg := wallFleet(srv.URL, 80, 2, 11)
	cfg.JSONFraction = 0.5
	rep, err := vload.Run(cfg)
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.FullDevices != 40 || rep.JSONDevices != 40 {
		t.Fatalf("cohorts: %d binary, %d json", rep.FullDevices, rep.JSONDevices)
	}
	if rep.BytesSent == 0 || rep.BytesRecv == 0 {
		t.Fatalf("wire stats empty: %+v", rep)
	}
	// Both protocols actually carried traffic on both directions.
	for _, counter := range []string{"task_sent_binary", "task_sent_json", "update_recv_binary", "update_recv_json"} {
		if c.Counters().Counter(counter).Value() == 0 {
			t.Errorf("counter %s = 0: that protocol path never ran", counter)
		}
	}
	// Quantized binary updates aggregated alongside JSON ones.
	requireModelMoved(t, c)
}

// TestFleetTransportMix is the acceptance gauntlet scaled for CI:
// delta-capable, full-broadcast, and JSON devices share the same rounds
// in both serving modes, deltas actually flow, and the downlink wire
// stats surface in /v1/status.
func TestFleetTransportMix(t *testing.T) {
	for _, mode := range []coord.Mode{coord.ModeSync, coord.ModeAsync} {
		t.Run(string(mode), func(t *testing.T) {
			c, srv := startServer(t, coord.Config{
				Mode:          mode,
				ModelKind:     model.KindA,
				Seed:          1,
				TargetUpdates: 12,
				Quorum:        4,
				OverCommit:    2,
				MaxInflight:   256,
				RoundDeadline: 5 * time.Second,
				MaxStaleness:  4,
				QueueDepth:    128,
				KeepVersions:  -1,
				Criteria:      availability.Criteria{}, // admit cellular: both cohorts serve
			})
			// Rounds must exceed Devices/TargetUpdates (= 5): the fast
			// commit pipeline can otherwise finish every round from
			// devices' *first* task fetches alone, and delta frames only
			// flow on a device's second fetch (when it holds a base).
			cfg := wallFleet(srv.URL, 60, 8, 23)
			cfg.JSONFraction, cfg.DeltaFraction = 0.3, 0.4
			rep, err := vload.Run(cfg)
			if err != nil {
				t.Fatalf("fleet: %v (report: %+v)", err, rep)
			}
			if rep.RoundsCommitted < 3 {
				t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
			}
			if rep.JSONDevices != 18 || rep.DeltaDevices != 24 || rep.FullDevices != 18 {
				t.Fatalf("cohorts: %d json, %d delta, %d full",
					rep.JSONDevices, rep.DeltaDevices, rep.FullDevices)
			}
			if rep.DeltaTasks == 0 {
				t.Fatal("no delta frames flowed in a delta-capable fleet")
			}
			counters := c.Counters()
			for _, name := range []string{
				"task_sent_binary", "task_sent_json", "task_sent_delta",
				"update_recv_binary", "update_recv_json",
				"broadcast_bytes_full", "broadcast_bytes_delta",
			} {
				if counters.Counter(name).Value() == 0 {
					t.Errorf("counter %s = 0: that path never ran", name)
				}
			}
			if hits, misses := counters.Counter("delta_cache_hits").Value(),
				counters.Counter("delta_cache_misses").Value(); hits+misses == 0 {
				t.Error("delta cache never exercised")
			}
			// The downlink stats ride /v1/status like the uplink ones.
			st := rep.FinalStatus
			if st == nil {
				t.Fatal("no final status")
			}
			for _, name := range []string{"broadcast_bytes_full", "broadcast_bytes_delta", "delta_cache_hits"} {
				if _, ok := st.Counters[name]; !ok {
					t.Errorf("status counters missing %s", name)
				}
			}
			// Aggregation still converged across all three client kinds.
			requireModelMoved(t, c)
		})
	}
}

// TestFleetPoisonReplay is the live poison-replay drill in miniature —
// and, under -race, the concurrency hammer for the defended commit path:
// a fleet with a 25% sign-flip adversary drives wire-form poisoned and
// clean payloads through screen → trimmed-mean → clip → noise
// concurrently for 3+ rounds.
func TestFleetPoisonReplay(t *testing.T) {
	_, srv := startServer(t, coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 12,
		Quorum:        4,
		OverCommit:    2,
		RoundDeadline: 5 * time.Second,
		QueueDepth:    128,
		Aggregation:   coord.AggregationConfig{Strategy: "trimmed-mean"},
		DP:            coord.DPConfig{Epsilon: 8},
	})
	cfg := wallFleet(srv.URL, 60, 3, 7)
	cfg.DeltaBias, cfg.PoisonFraction = 0.05, 0.25
	rep, err := vload.Run(cfg)
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.RoundsCommitted < 3 {
		t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
	}
	if rep.PoisonedDevices == 0 || rep.PoisonedDevices >= 60 {
		t.Fatalf("adversary compromised %d of 60 devices", rep.PoisonedDevices)
	}
	st := rep.FinalStatus
	if st == nil {
		t.Fatal("fleet report missing final status")
	}
	if st.Counters["updates_screened_norm"] == 0 {
		t.Fatal("no poisoned update was ever norm-screened")
	}
	if st.Privacy == nil || st.Privacy.EpsilonSpent <= 0 || st.Counters["dp_rounds"] == 0 {
		t.Fatalf("privacy accounting missing: %+v", st.Privacy)
	}
	if math.IsNaN(st.ModelNorm) || math.IsInf(st.ModelNorm, 0) {
		t.Fatalf("model norm %v after poisoned rounds", st.ModelNorm)
	}
}
