package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tensor"
)

// compression is the virtual-time rate handed to vload and to the
// servers' schedulers. It is far above what the program sustains, so
// vload's workers never sleep: every worker keeps exactly one request
// in flight, which makes each run a closed loop whose throughput and
// latency measure the program, not a pacing schedule.
const compression = 1e6

// virtualHorizon is long enough that no run reaches it; runs end on
// their wall-clock timeout.
const virtualHorizon = 3650 * 24 * time.Hour

// workload is one traffic mix against one serving topology. WORKLOADS.md
// records why each exists and which layer metrics it should move.
type workload struct {
	name    string
	devices int
	// shards > 0 serves through shard.Gateway and a shard.Leader with
	// that many coordinators behind it, exchanging partials over HTTP;
	// 0 serves from one flat coord.Server.
	shards int
	cfg    coord.Config
}

var workloads = []workload{
	{
		name:    "robust-commit",
		devices: 10_000,
		cfg: coord.Config{
			Mode:          coord.ModeSync,
			ModelKind:     model.KindB,
			TargetUpdates: 32,
			OverCommit:    1.3,
			Aggregation:   coord.AggregationConfig{Strategy: "trimmed-mean"},
			DP:            coord.DPConfig{Epsilon: 8},
		},
	},
	{
		name:    "census-async",
		devices: 500_000,
		cfg: coord.Config{
			Mode:          coord.ModeAsync,
			ModelKind:     model.KindA,
			TargetUpdates: 64,
			// The default queue (4 x target) sheds a few closed-loop
			// updates with 503 while a status census holds the worker
			// back; the run is meant to measure work, not shedding.
			QueueDepth: 1024,
		},
	},
	{
		name:    "tier-2shard",
		devices: 10_000,
		shards:  2,
		cfg: coord.Config{
			Mode:          coord.ModeSync,
			ModelKind:     model.KindB,
			TargetUpdates: 16,
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// coordConfig completes a workload's coordinator template with the
// settings every workload shares.
func (w workload) coordConfig() coord.Config {
	cfg := w.cfg
	cfg.Seed = 1
	// Large enough that no run's committed rounds fall out of the log.
	cfg.HistoryLimit = 1 << 20
	cfg.Sched = sched.Config{TimeCompression: compression}
	return cfg
}

// system is one set-up serving topology, wrapped by the benchmark's
// probes: a flat server, or a gateway with a leader and shards.
type system struct {
	url    string
	coords []*coord.Coordinator
	leader *shard.Leader
	gw     *shard.Gateway
	ring   *shard.Ring
	hbs    []*shard.Heartbeat
	srvs   []*httptest.Server
}

// build sets up the workload's servers. Every handler and the tier's
// exchange client are wrapped by the tracer's probes, which pass calls
// straight through while tracing is off.
func build(w workload, tr *tracer) (*system, error) {
	cfg := w.coordConfig()
	sys := &system{}
	if w.shards == 0 {
		c, err := coord.New(cfg)
		if err != nil {
			return nil, err
		}
		sys.coords = []*coord.Coordinator{c}
		srv := httptest.NewServer(&layerHandler{layer: layerServer, inner: coord.NewServer(c), tr: tr})
		sys.srvs = append(sys.srvs, srv)
		sys.url = srv.URL
		return sys, nil
	}

	leader, err := shard.NewLeader(shard.LeaderConfig{
		Shards: w.shards,
		Params: func(string) (tensor.Vector, error) {
			m, err := model.New(cfg.ModelKind, cfg.Seed)
			if err != nil {
				return nil, err
			}
			return m.Params(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	if err := leader.EnsureJob(""); err != nil {
		return nil, err
	}
	sys.leader = leader
	// The shards' handlers are bound after their coordinators exist, and
	// the coordinators need the gateway's URL: start the listeners first.
	shardHandlers := make([]*layerHandler, w.shards)
	urls := make([]string, w.shards)
	for i := range shardHandlers {
		shardHandlers[i] = &layerHandler{layer: layerServer, tr: tr}
		srv := httptest.NewServer(shardHandlers[i])
		sys.srvs = append(sys.srvs, srv)
		urls[i] = srv.URL
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.gw, sys.ring = gw, gw.Ring()
	gwSrv := httptest.NewServer(&layerHandler{layer: layerGateway, inner: gw, tr: tr})
	sys.srvs = append(sys.srvs, gwSrv)
	sys.url = gwSrv.URL
	for i := range shardHandlers {
		sc := cfg
		sc.Exchange = &exchangeProbe{inner: shard.NewHTTPExchange(gwSrv.URL), tr: tr}
		sc.ShardID = i
		c, err := coord.New(sc)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.coords = append(sys.coords, c)
		shardHandlers[i].inner = coord.NewServer(c)
		sys.hbs = append(sys.hbs, shard.StartHeartbeat(shard.NewHTTPExchange(gwSrv.URL), i, time.Second))
	}
	return sys, nil
}

// close stops heartbeats, then coordinators, then listeners.
func (s *system) close() {
	for _, hb := range s.hbs {
		hb.Stop()
	}
	for _, c := range s.coords {
		c.Close()
	}
	for i := len(s.srvs) - 1; i >= 0; i-- {
		s.srvs[i].Close()
	}
}

// counters sums the coordinators' serving counters.
func (s *system) counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, c := range s.coords {
		for k, v := range c.Counters().Snapshot() {
			sum[k] += v
		}
	}
	if s.gw != nil {
		for k, v := range s.gw.Counters().Snapshot() {
			sum["gateway."+k] += v
		}
	}
	return sum
}

// shardOf is the shard a device's traffic lands on (0 when flat).
func (s *system) shardOf(device int64) int {
	if s.ring == nil {
		return 0
	}
	return s.ring.Shard(device)
}
