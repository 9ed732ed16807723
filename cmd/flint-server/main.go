// Command flint-server runs the live federated coordination service: the
// wall-clock serving counterpart of cmd/flint-sim's virtual-clock simulator.
// Devices check in, receive training tasks, and submit updates over the
// /v1 JSON API; the server runs sync FedAvg or async FedBuff rounds and
// publishes model versions. Pair it with cmd/flint-fleet for load.
//
// With -jobs, the server hosts multiple FL jobs as tenants of one
// process: each spec in the JSON file becomes an independent job behind
// /v1/jobs/<name>/..., the first spec is the default job the bare /v1/*
// paths alias to, and per-job device quotas and bearer tokens gate
// admission. Without -jobs a single default job is built from the flags
// — the classic single-tenant server, now served through the same
// routing plane.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/transport"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mode := flag.String("mode", "sync", "training mode: sync (FedAvg) or async (FedBuff)")
	kind := flag.String("model", "A", "Table 5 model kind to train (A–E)")
	name := flag.String("name", "served", "modelstore name for published versions")
	seed := flag.Int64("seed", 1, "model init seed")
	target := flag.Int("target", 32, "updates per aggregation (round size / async buffer K)")
	quorum := flag.Int("quorum", 0, "minimum updates accepted at the round deadline (default target/2)")
	overCommit := flag.Float64("overcommit", 1.3, "sync assignment multiplier over target")
	deadline := flag.Duration("deadline", 15*time.Second, "round wall-clock deadline")
	maxStale := flag.Int("max-staleness", 6, "async: reject updates older than this many versions (0 = unbounded)")
	queue := flag.Int("queue", 0, "ingest queue depth (default 4x target)")
	shards := flag.Int("shards", 64, "device registry lock stripes")
	ttl := flag.Duration("ttl", 2*time.Minute, "device liveness TTL")
	wifi := flag.Bool("require-wifi", true, "participation criterion A: WiFi")
	battery := flag.Bool("require-battery", true, "participation criterion B: battery >= 80%")
	modernOS := flag.Bool("require-modern-os", false, "participation criterion C: modern OS")
	minSession := flag.Float64("min-session", 0, "minimum expected session seconds")
	serverLR := flag.Float64("server-lr", 1, "async FedBuff server learning rate")
	alpha := flag.Float64("alpha", 0.5, "async FedBuff staleness-discount exponent")
	aggregation := flag.String("aggregation", "", "commit reducer: fedavg, fedbuff, trimmed-mean, or coordinate-median (default: the mode's standard reducer)")
	trimFrac := flag.Float64("trim-frac", 0, "trimmed-mean: per-side trim fraction in [0, 0.5) (default 0.1)")
	screenMaxNorm := flag.Float64("screen-max-norm", 0, "reject updates with L2 norm above this cap before the reduce (0 disables)")
	screenMedianFactor := flag.Float64("screen-median-factor", 0, "reject updates with norm above this multiple of the round's median norm (0 disables; robust reducers default it to 4)")
	dpEpsilon := flag.Float64("dp-epsilon", 0, "central DP: per-round epsilon target (0 disables noise)")
	dpDelta := flag.Float64("dp-delta", 0, "central DP: delta (default 1e-5)")
	dpClip := flag.Float64("dp-clip", 0, "central DP: aggregate-delta L2 clip norm (default 1 when -dp-epsilon is set; alone enables clip-only)")
	dpSeed := flag.Int64("dp-seed", 0, "central DP: noise seed (default -seed)")
	localSteps := flag.Int("local-steps", 20, "local training steps hint sent to devices")
	taskScheme := flag.String("task-scheme", "f32", "default cohort: broadcast encoding for /v1/task (raw64, f32, q8, or topk[:k])")
	updateScheme := flag.String("update-scheme", "q8", "default cohort: delta encoding binary devices use on /v1/update")
	deltaScheme := flag.String("delta-scheme", "q8", "default cohort: delta-broadcast encoding served against a device's last-seen version")
	lowbwTaskScheme := flag.String("lowbw-task-scheme", "topk", "low-bandwidth cohort: broadcast encoding for /v1/task")
	lowbwUpdateScheme := flag.String("lowbw-update-scheme", "q8", "low-bandwidth cohort: /v1/update delta encoding")
	lowbwDeltaScheme := flag.String("lowbw-delta-scheme", "topk", "low-bandwidth cohort: delta-broadcast encoding")
	deltaHistory := flag.Int("delta-history", 8, "published versions retained as delta-broadcast bases (negative disables delta broadcast)")
	lowbwDeltaHistory := flag.Int("lowbw-delta-history", 0, "low-bandwidth cohort delta window override (0 inherits -delta-history, negative disables deltas for the cohort)")
	jobsFile := flag.String("jobs", "", "multi-tenant mode: JSON file of job specs (each spec overlays the flag-derived base config)")
	admin := flag.Bool("admin", false, "enable POST /v1/jobs job registration")
	maxDevices := flag.Int("max-devices", 0, "default job device quota (0 = unlimited; per-job specs override)")
	schedOn := flag.Bool("sched", true, "enable the measured scheduling plane (bandwidth cohorts, deadline gate, dynamic over-commit)")
	schedLowBWMbps := flag.Float64("sched-lowbw-mbps", 1.5, "measured downlink below this maps a device to the lowbw cohort")
	schedAlpha := flag.Float64("sched-alpha", 0.3, "telemetry EWMA smoothing factor")
	schedMaxOC := flag.Float64("sched-max-overcommit", 3, "cap on the deadline-driven sync assignment multiplier")
	schedRebuild := flag.Duration("sched-rebuild", 2*time.Second, "scheduler fleet-view rebuild period")
	schedCompression := flag.Float64("sched-time-compression", 1, "virtual-time fleets: device-reported timings arrive this many times faster than wall clock (match flint-fleet -compression)")
	exchange := flag.String("exchange", "", "shard mode: gateway base URL for the tier exchange (the server becomes one replica of a sharded tier)")
	shardID := flag.Int("shard-id", 0, "shard mode: this replica's index on the gateway's ring")
	shardHB := flag.Duration("shard-heartbeat", time.Second, "shard mode: tier heartbeat interval (must be well under the leader's grace window)")
	persistBarrier := flag.Int("persist-barrier", 8, "fsync the write-behind snapshot every N commits (negative disables the barrier)")
	storeDir := flag.String("store-dir", "", "persist published model versions to this directory")
	keepVersions := flag.Int("keep-versions", 8, "published model versions to retain (negative keeps all)")
	statusEvery := flag.Duration("status-every", 5*time.Second, "periodic status log interval (0 disables)")
	flag.Parse()

	m, err := coord.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	scheme := func(flagName, value string) codec.Scheme {
		s, err := codec.ParseScheme(value)
		if err != nil {
			log.Fatalf("-%s: %v", flagName, err)
		}
		return s
	}
	transportCfg := transport.Config{
		Default: transport.Policy{
			Task:   scheme("task-scheme", *taskScheme),
			Update: scheme("update-scheme", *updateScheme),
			Delta:  scheme("delta-scheme", *deltaScheme),
		},
		LowBW: transport.Policy{
			Task:       scheme("lowbw-task-scheme", *lowbwTaskScheme),
			Update:     scheme("lowbw-update-scheme", *lowbwUpdateScheme),
			Delta:      scheme("lowbw-delta-scheme", *lowbwDeltaScheme),
			DeltaDepth: *lowbwDeltaHistory,
		},
		DeltaHistory: *deltaHistory,
	}
	cfg := coord.Config{
		Mode:           m,
		ModelKind:      model.Kind(*kind),
		ModelName:      *name,
		Seed:           *seed,
		TargetUpdates:  *target,
		Quorum:         *quorum,
		OverCommit:     *overCommit,
		RoundDeadline:  *deadline,
		MaxStaleness:   *maxStale,
		QueueDepth:     *queue,
		RegistryShards: *shards,
		DeviceTTL:      *ttl,
		Criteria: availability.Criteria{
			RequireWiFi:        *wifi,
			RequireBatteryHigh: *battery,
			RequireModernOS:    *modernOS,
			MinSessionSec:      *minSession,
		},
		ServerLR:       *serverLR,
		StalenessAlpha: *alpha,
		Aggregation: coord.AggregationConfig{
			Strategy:           *aggregation,
			TrimFrac:           *trimFrac,
			ScreenMaxNorm:      *screenMaxNorm,
			ScreenMedianFactor: *screenMedianFactor,
		},
		DP: coord.DPConfig{
			Epsilon:  *dpEpsilon,
			Delta:    *dpDelta,
			ClipNorm: *dpClip,
			Seed:     *dpSeed,
		},
		LocalSteps: *localSteps,
		MaxDevices: *maxDevices,
		Transport:  transportCfg,
		Sched: sched.Config{
			Disable:         !*schedOn,
			Alpha:           *schedAlpha,
			LowBWBps:        *schedLowBWMbps * 1e6 / 8,
			MaxOverCommit:   *schedMaxOC,
			RebuildEvery:    *schedRebuild,
			TimeCompression: *schedCompression,
		},
		PersistBarrier: *persistBarrier,
		StoreDir:       *storeDir,
		KeepVersions:   *keepVersions,
	}
	if *exchange != "" {
		// Shard mode: commits reduce to partials shipped to the tier
		// leader behind the gateway, and a heartbeat keeps this replica
		// counted in the tier's membership (stop pinging and the tier
		// halts — the paper's §3.4 rule run horizontally).
		cfg.Exchange = shard.NewHTTPExchange(*exchange)
		cfg.ShardID = *shardID
	}
	// Every server is a tenant registry now: without -jobs it hosts one
	// flag-derived default job and the bare /v1 API behaves exactly as
	// before; with -jobs each spec overlays the flag config.
	specs := []tenant.JobSpec{{Name: *name, MaxDevices: *maxDevices}}
	if *jobsFile != "" {
		data, err := os.ReadFile(*jobsFile)
		if err != nil {
			log.Fatalf("-jobs: %v", err)
		}
		if specs, err = tenant.LoadSpecs(data); err != nil {
			log.Fatalf("-jobs: %v", err)
		}
		if len(specs) == 0 {
			log.Fatalf("-jobs: %s declares no jobs", *jobsFile)
		}
	}
	reg := tenant.NewRegistry(cfg)
	defer reg.Close()
	for _, sp := range specs {
		if _, err := reg.Register(sp); err != nil {
			log.Fatal(err)
		}
	}
	if *exchange != "" {
		hb := shard.StartHeartbeat(shard.NewHTTPExchange(*exchange), *shardID, *shardHB)
		defer hb.Stop()
		fmt.Printf("shard %d of tier at %s (heartbeat every %s)\n", *shardID, *exchange, *shardHB)
	}

	if *statusEvery > 0 {
		go func() {
			for range time.Tick(*statusEvery) {
				for _, j := range reg.Jobs() {
					st := j.Coord.Status()
					log.Printf("[%s] v%d round=%d phase=%s collected=%d/%d devices: %d live, %d eligible, %d assigned",
						j.Spec.Name, st.Version, st.Round.ID, st.Round.Phase, st.Round.Collected, st.Round.Target,
						st.Devices.Live, st.Devices.Eligible, st.Devices.Assigned)
				}
			}
		}()
	}

	for _, j := range reg.Jobs() {
		eff := j.Coord.Config()
		guard := "open"
		switch {
		case j.Spec.Token != "" && eff.MaxDevices > 0:
			guard = fmt.Sprintf("token auth, quota %d", eff.MaxDevices)
		case j.Spec.Token != "":
			guard = "token auth"
		case eff.MaxDevices > 0:
			guard = fmt.Sprintf("quota %d", eff.MaxDevices)
		}
		fmt.Printf("job %s: %s mode, model %s (%d params), target %d, quorum %d, deadline %s (%s)\n",
			j.Spec.Name, eff.Mode, eff.ModelKind, mustParams(eff.ModelKind, eff.Seed),
			eff.TargetUpdates, eff.Quorum, eff.RoundDeadline, guard)
		tr := eff.Transport
		fmt.Printf("  wire: default cohort %s/%s/%s (delta depth %d); lowbw %s/%s/%s (delta depth %d)\n",
			tr.Default.Task, tr.Default.Update, tr.Default.Delta, tr.DepthFor(transport.CohortDefault),
			tr.LowBW.Task, tr.LowBW.Update, tr.LowBW.Delta, tr.DepthFor(transport.CohortLowBW))
		if agg := eff.Aggregation; agg.Strategy != "" || agg.ScreenMaxNorm > 0 || agg.ScreenMedianFactor > 0 {
			line := "  robust: " + j.Coord.Status().Aggregation
			if agg.Strategy == "trimmed-mean" {
				line += fmt.Sprintf(" (trim %.2f/side)", agg.TrimFrac)
			}
			if agg.ScreenMaxNorm > 0 {
				line += fmt.Sprintf(", norm screen ≤ %.3g", agg.ScreenMaxNorm)
			}
			if agg.ScreenMedianFactor > 0 {
				line += fmt.Sprintf(", norm screen ≤ %.3g× median", agg.ScreenMedianFactor)
			}
			fmt.Println(line)
		}
		if eff.DP.Enabled() {
			if eff.DP.Epsilon > 0 {
				fmt.Printf("  privacy: central DP, ε=%.3g/round at δ=%.0e, clip %.3g, seed %d\n",
					eff.DP.Epsilon, eff.DP.Delta, eff.DP.ClipNorm, eff.DP.Seed)
			} else {
				fmt.Printf("  privacy: aggregate clip %.3g (no noise)\n", eff.DP.ClipNorm)
			}
		}
	}
	def := reg.Default()
	if sc := def.Coord.Config().Sched; !sc.Disable {
		fmt.Printf("sched: lowbw < %.2f Mbps measured downlink, deadline gate (sync), over-commit ≤ %.1fx, rebuild every %s, telemetry TTL %s\n",
			sc.LowBWBps*8/1e6, sc.MaxOverCommit, sc.RebuildEvery, sc.TelemetryTTL)
	} else {
		fmt.Println("sched: disabled (radio-label cohorts, static over-commit)")
	}
	fmt.Printf("listening on %s (/v1/* → default job %q, /v1/jobs/<job>/*, GET /v1/status rollup; admin registration %v)\n",
		*addr, def.Spec.Name, *admin)
	srv := tenant.NewServer(reg, *admin)
	log.Fatal(tenant.ListenAndServe(*addr, srv))
}

func mustParams(kind model.Kind, seed int64) int {
	m, err := model.New(kind, seed)
	if err != nil {
		log.Fatal(err)
	}
	return m.NumParams()
}
