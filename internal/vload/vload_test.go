package vload

import (
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/network"
	"flint/internal/sched"
)

// TestVirtualFleetSchedulerParity is the scheduling plane's end-to-end
// gauntlet: a virtual fleet two hours of diurnal time deep, 120x
// compressed, with churning sessions and mixed simulated bandwidth,
// drives sync rounds over the live HTTP API with a server whose
// scheduler runs the matching TimeCompression. Every committed round
// must close within its (wall) deadline, the scheduler must measure
// devices from their virtual-clock telemetry and remap them off their
// radio labels, and the census histograms must fill — plus the
// batch-check-in path must carry the registrations and the footprint
// accounting must be live.
func TestVirtualFleetSchedulerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live virtual-fleet run")
	}
	const compression = 120
	cfg := coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 12,
		Quorum:        4,
		OverCommit:    1.3,
		RoundDeadline: 6 * time.Second,
		QueueDepth:    256,
		KeepVersions:  -1,
		Criteria:      availability.Criteria{RequireWiFi: true},
		Sched: sched.Config{
			RebuildEvery:    150 * time.Millisecond,
			MinSamples:      1,
			TimeCompression: compression,
		},
	}
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(coord.NewServer(c))
	defer srv.Close()

	rep, err := Run(Config{
		BaseURL:         srv.URL,
		Devices:         3000,
		Compression:     compression,
		VirtualDuration: 2 * time.Hour,
		Rounds:          3,
		Seed:            7,
		Batch:           512,
		Think:           60 * time.Second,
		SessionsPerDay:  24,
		Bandwidth:       &network.BandwidthModel{MedianMbps: 4, Sigma: 0.9, SlowFrac: 0.2, FloorMbps: 0.05},
		Timeout:         90 * time.Second,
		Client:          srv.Client(),
	})
	if err != nil {
		t.Fatalf("vload: %v (report: %+v)", err, rep)
	}
	if rep.RoundsCommitted < 3 {
		t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
	}
	if rep.BatchRequests == 0 || rep.CheckIns < int64(rep.Devices) {
		t.Fatalf("registration storm missing: %d check-ins over %d batch requests", rep.CheckIns, rep.BatchRequests)
	}
	if rep.RegisterPerSec <= 0 {
		t.Fatalf("no registration throughput measured: %+v", rep)
	}
	if rep.UpdatesOK < int64(3*cfg.TargetUpdates)-int64(cfg.TargetUpdates) {
		// Rounds close at TargetUpdates; allow the last round's partial.
		t.Errorf("only %d updates accepted across %d rounds", rep.UpdatesOK, rep.RoundsCommitted)
	}

	st := rep.FinalStatus
	if st == nil {
		t.Fatal("no final status snapshot")
	}
	committed := 0
	for _, r := range st.Recent {
		if r.Phase != coord.PhaseCommitted {
			continue
		}
		committed++
		if r.Duration > cfg.RoundDeadline {
			t.Errorf("round %d closed in %s, past its %s wall deadline", r.ID, r.Duration, cfg.RoundDeadline)
		}
	}
	if committed < 3 {
		t.Fatalf("only %d committed rounds in history", committed)
	}
	if st.Counters["task_assigned"] < int64(3*cfg.TargetUpdates) {
		t.Errorf("task_assigned = %d, want >= %d", st.Counters["task_assigned"], 3*cfg.TargetUpdates)
	}
	if st.Counters["checkin_batch"] == 0 {
		t.Error("server saw no batched check-ins")
	}

	sr := st.Scheduler
	if !sr.Enabled || sr.Measured == 0 {
		t.Fatalf("scheduler measured nothing from virtual telemetry: %+v", sr)
	}
	if sr.Remapped == 0 {
		t.Errorf("no device was remapped off its radio label (measured %d)", sr.Measured)
	}
	hist := 0
	for _, cs := range sr.Cohorts {
		for _, n := range cs.BandwidthHist {
			hist += n
		}
	}
	if hist == 0 {
		t.Error("per-cohort bandwidth histograms are empty")
	}
	fp := sr.Footprint
	if fp.Devices < rep.Devices || fp.RegistryBytesPerDev <= 0 {
		t.Errorf("footprint accounting not live: %+v", fp)
	}
	if rep.RegistryBytesPerDev <= 0 || rep.SchedDevices == 0 {
		t.Errorf("report did not surface footprint: %+v", rep)
	}
	if rep.AchievedCompression <= 0 {
		t.Errorf("achieved compression not measured: %+v", rep)
	}
	t.Logf("virtual fleet: %d rounds, %.0f devices/sec registration, x%.0f/%.0f compression, %d/%d measured, %d remapped, %d B/device registry",
		rep.RoundsCommitted, rep.RegisterPerSec, rep.AchievedCompression, rep.Compression,
		sr.Measured, sr.Devices, sr.Remapped, int(rep.RegistryBytesPerDev))
}

// TestConfigValidation pins the load plane's config contract.
func TestConfigValidation(t *testing.T) {
	if _, err := (Config{}).withDefaults(); err == nil {
		t.Fatal("empty base URL accepted")
	}
	if _, err := (Config{BaseURL: "http://x", Compression: 0.5}).withDefaults(); err == nil {
		t.Fatal("compression below 1 accepted")
	}
	if _, err := (Config{BaseURL: "http://x", StartHour: 25}).withDefaults(); err == nil {
		t.Fatal("start hour 25 accepted")
	}
	if _, err := (Config{BaseURL: "http://x", JSONFraction: 0.6, DeltaFraction: 0.5}).withDefaults(); err == nil {
		t.Fatal("JSON + delta fractions above 1 accepted")
	}
	if _, err := (Config{BaseURL: "http://x", PoisonFraction: 1.5}).withDefaults(); err == nil {
		t.Fatal("poison fraction 1.5 accepted")
	}
	cfg, err := (Config{BaseURL: "http://x/"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BaseURL != "http://x" || cfg.Compression != 1 || cfg.StartHour != 19 ||
		cfg.VirtualDuration != 24*time.Hour || cfg.Batch != 2048 ||
		cfg.PoisonScale != 10 || cfg.api != "http://x/v1" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// The zero value is the always-on wall-clock fleet; compressed time
	// gets the ads case study's diurnal device behaviour.
	if cfg.Think != 20*time.Millisecond || cfg.TrainMedianSec != 0.01 ||
		cfg.SessionsPerDay != 86400 || cfg.SessionMedianSec != 86400 {
		t.Fatalf("unexpected wall-clock fleet defaults: %+v", cfg)
	}
	cfg, err = (Config{BaseURL: "http://x", Compression: 60}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Think != 120*time.Second || cfg.TrainMedianSec != 20 ||
		cfg.SessionsPerDay != 3 || cfg.SessionMedianSec != 150 {
		t.Fatalf("unexpected compressed-time defaults: %+v", cfg)
	}
	if cfg.Workers <= 0 || cfg.Client == nil || cfg.Bandwidth == nil {
		t.Fatalf("defaults left zero fields: %+v", cfg)
	}
	// StartHour -1 is the explicit midnight spelling.
	cfg, err = (Config{BaseURL: "http://x", StartHour: -1}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StartHour != 0 {
		t.Fatalf("StartHour -1 mapped to %d, want 0", cfg.StartHour)
	}
	// A job routes device traffic under its tenant prefix.
	cfg, err = (Config{BaseURL: "http://x", Job: "ads"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.api != "http://x/v1/jobs/ads" {
		t.Fatalf("job prefix %q", cfg.api)
	}
}
