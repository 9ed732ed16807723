// Command flint-fleet is the load generator for cmd/flint-server: a
// fleet of simulated devices (internal/vload) drives full training
// rounds over the /v1 API — batched check-in, task poll, simulated
// download and local training, update — and reports throughput and
// client-side latency percentiles.
//
// By default the fleet runs on the wall clock (-compression 1): every
// device wakes within about a second, stays in session for the whole
// run, and re-polls every -think. That is the always-on fleet for
// driving a server through a few rounds:
//
//	flint-server -mode async -target 64 &
//	flint-fleet -server http://127.0.0.1:8080 -devices 2000 -rounds 5
//
// Raising -compression runs the same devices in compressed virtual time
// over the diurnal availability model, scaling the protocol traffic to
// hundreds of thousands or millions of devices. Think, training and
// session flags are then virtual durations, and the server must run
// with a matching -sched-time-compression so device-reported virtual
// timings land in the right clock domain:
//
//	flint-server -mode sync -target 64 -sched-time-compression 360 &
//	flint-fleet -devices 1000000 -compression 360 -duration 24h \
//	  -sessions 3 -session 150s -think 120s -train 20s
//
// Against a multi-tenant server, -jobs splits the device budget across
// tenants — "-jobs ads,messaging=s3cret" drives half the devices at job
// ads and half at job messaging (authenticating with its token), with
// disjoint device IDs per job. Against a sharded coordination tier,
// -gateway points the fleet at cmd/flint-gateway: the run waits for the
// tier to report healthy and watches the rollup for round progress.
//
// -poison-fraction puts a sign-flip adversary in the fleet (the §4.2
// poison replay); -delta-bias gives honest updates a drift so poisoning
// shows in the model norm. -json-fraction and -delta-fraction mix JSON
// and delta-broadcast clients into the same rounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"flint/internal/network"
	"flint/internal/vload"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "coordination server (or -gateway) base URL")
	devices := flag.Int("devices", 1000, "simulated device count")
	rounds := flag.Int("rounds", 3, "committed rounds to drive before stopping")
	seed := flag.Int64("seed", 1, "population and behavior seed")
	compression := flag.Float64("compression", 1, "virtual seconds per wall second (1 = wall clock; the server needs a matching -sched-time-compression)")
	duration := flag.Duration("duration", 24*time.Hour, "virtual time to simulate (24h = one diurnal cycle)")
	think := flag.Duration("think", 0, "mean re-poll interval while a device has no work (virtual time; 0 = 20ms on the wall clock, 120s under compression)")
	train := flag.Duration("train", 0, "median simulated local-training time (virtual time; 0 = 10ms on the wall clock, 20s under compression)")
	sessions := flag.Float64("sessions", 0, "mean sessions per device per virtual day (0 = 86400 on the wall clock, waking every device within about a second; 3 under compression)")
	session := flag.Duration("session", 0, "median session length (virtual time; 0 = 24h on the wall clock, 150s under compression)")
	workers := flag.Int("workers", 0, "event-loop workers / connection-pool bound (0 = 4 x GOMAXPROCS)")
	bandwidth := flag.Float64("bandwidth", 0, "median simulated downlink Mbps (0 = the default mixed-link model; uplink at 40%)")
	deltaBias := flag.Float64("delta-bias", 0, "constant per-coordinate drift added to honest deltas (makes poison-induced divergence visible in model_norm)")
	poisonFraction := flag.Float64("poison-fraction", 0, "share of devices under sign-flip adversary control (deterministic per seed; 0 disables)")
	poisonScale := flag.Float64("poison-scale", 10, "sign-flip attack boost factor")
	jsonFraction := flag.Float64("json-fraction", 0, "share of devices on the JSON protocol")
	deltaFraction := flag.Float64("delta-fraction", 0, "share of devices that name their held version to receive delta broadcasts")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run deadline (wall time)")
	jobs := flag.String("jobs", "", "multi-tenant: comma-separated job list (name or name=token); devices split evenly across jobs with disjoint IDs")
	gateway := flag.Bool("gateway", false, "-server is a shard-tier gateway (flint-gateway): wait for tier health, then watch the rollup for round progress")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	flag.Parse()

	cfg := vload.Config{
		BaseURL:          *server,
		Gateway:          *gateway,
		Devices:          *devices,
		Compression:      *compression,
		VirtualDuration:  *duration,
		Rounds:           *rounds,
		Seed:             *seed,
		Workers:          *workers,
		Think:            *think,
		SessionsPerDay:   *sessions,
		SessionMedianSec: session.Seconds(),
		TrainMedianSec:   train.Seconds(),
		Timeout:          *timeout,
		JSONFraction:     *jsonFraction,
		DeltaFraction:    *deltaFraction,
		DeltaBias:        *deltaBias,
		PoisonFraction:   *poisonFraction,
		PoisonScale:      *poisonScale,
	}
	if *bandwidth > 0 {
		m := network.Default
		m.MedianMbps = *bandwidth
		cfg.Bandwidth = &m
	}
	targets := []jobTarget{{}}
	if *jobs != "" {
		targets = parseJobs(*jobs)
	}
	reps, errs := runJobs(cfg, targets)
	failed := false
	for i, t := range targets {
		if rep := reps[i]; rep != nil {
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				var v any = rep
				if t.name != "" {
					v = struct {
						Job string `json:"job"`
						*vload.Report
					}{t.name, rep}
				}
				if err := enc.Encode(v); err != nil {
					log.Fatal(err)
				}
			} else {
				if t.name != "" {
					fmt.Printf("=== job %s ===\n", t.name)
				}
				fmt.Print(rep.String())
				printServer(rep)
			}
		}
		if err := errs[i]; err != nil {
			failed = true
			if t.name != "" {
				err = fmt.Errorf("job %s: %w", t.name, err)
			}
			log.Print(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// jobTarget is one -jobs entry; the zero value drives the server's bare
// /v1 default job.
type jobTarget struct {
	name, token string
}

func parseJobs(list string) []jobTarget {
	var targets []jobTarget
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, token, _ := strings.Cut(part, "=")
		targets = append(targets, jobTarget{name: name, token: token})
	}
	if len(targets) == 0 {
		log.Fatal("-jobs: no job names given")
	}
	return targets
}

// runJobs drives one fleet per target concurrently: the device budget
// splits evenly (remainder to the first jobs), each job's fleet gets a
// disjoint device-ID range and its own seed, and tokens ride along from
// the name=token syntax.
func runJobs(base vload.Config, targets []jobTarget) ([]*vload.Report, []error) {
	per, rem := base.Devices/len(targets), base.Devices%len(targets)
	reps := make([]*vload.Report, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	offset := int64(0)
	for i, t := range targets {
		cfg := base
		cfg.Job, cfg.Token = t.name, t.token
		cfg.Devices = per
		if i < rem {
			cfg.Devices++
		}
		cfg.IDOffset = offset
		offset += int64(cfg.Devices)
		cfg.Seed = base.Seed + int64(i)*1_000_003
		wg.Add(1)
		go func(i int, cfg vload.Config) {
			defer wg.Done()
			reps[i], errs[i] = vload.Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	return reps, errs
}

// printServer renders the flat server's counters from the report's
// shutdown snapshot (a gateway's rollup carries tier state instead).
func printServer(rep *vload.Report) {
	st := rep.FinalStatus
	if st == nil || rep.TierShards > 0 {
		return
	}
	c := st.Counters
	fmt.Printf("  server: mode=%s model=%s committed=%d abandoned=%d accepted=%d shed=%d\n",
		st.Mode, st.ModelKind, c["rounds_committed"], c["rounds_abandoned"],
		c["update_accepted"], c["update_rejected_busy"])
	fmt.Printf("  protocol: %d binary tasks (%d delta), %d json tasks, %d binary updates, %d json updates\n",
		c["task_sent_binary"], c["task_sent_delta"], c["task_sent_json"],
		c["update_recv_binary"], c["update_recv_json"])
	if c["updates_screened_norm"] > 0 || st.Privacy != nil {
		fmt.Printf("  defense: %s, %d updates norm-screened, %d rounds aborted all-screened\n",
			st.Aggregation, c["updates_screened_norm"], c["round_aggregate_robust_error"])
	}
	fmt.Printf("  downlink: %.2f MiB full broadcast, %.2f MiB delta (%d cache hits, %d misses, %d aged bases)\n",
		float64(c["broadcast_bytes_full"])/(1<<20), float64(c["broadcast_bytes_delta"])/(1<<20),
		c["delta_cache_hits"], c["delta_cache_misses"], c["delta_base_aged"])
	if sr := st.Scheduler; sr.Enabled {
		fmt.Printf("  sched: %d/%d devices measured, %d remapped off their radio label; on-time %.0f%%, over-commit x%.2f, est task p50/p90/p99 %.2f/%.2f/%.2fs (%d deadline denials)\n",
			sr.Measured, sr.Devices, sr.Remapped, sr.OnTimeFraction*100, sr.OverCommitScale,
			sr.EstTaskP50Sec, sr.EstTaskP90Sec, sr.EstTaskP99Sec, c["task_denied_deadline"])
	}
}
