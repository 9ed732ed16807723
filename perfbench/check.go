package main

import (
	"fmt"
	"math"
)

// checker collects correctness violations; any violation fails the run.
type checker struct{ violations []string }

func (k *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		k.violations = append(k.violations, fmt.Sprintf(format, args...))
	}
}

func (k *checker) ok() bool { return len(k.violations) == 0 }

// check runs the correctness checks on a finished run.
func (o *outcome) check() {
	k := &o.checks
	var enqueued, aggregated int64
	for i, f := range o.final {
		c := f.counters
		enqueued += c["update_enqueued"]
		aggregated += c["updates_aggregated"]
		k.expect(c["round_aggregate_nonfinite"] == 0, "coordinator %d: round_aggregate_nonfinite = %d", i, c["round_aggregate_nonfinite"])
		k.expect(c["round_fsm_error"] == 0, "coordinator %d: round_fsm_error = %d", i, c["round_fsm_error"])
		k.expect(!math.IsNaN(f.modelNorm) && !math.IsInf(f.modelNorm, 0), "coordinator %d: published model norm %v is not finite", i, f.modelNorm)
		// Every committed round aggregated (or screened) at least a
		// quorum: a bound over all rounds, where the summaries below
		// cover only the rounds the status documents showed.
		committed := c["rounds_committed"]
		k.expect(c["updates_aggregated"]+c["updates_screened_norm"] >= int64(f.quorum)*committed,
			"coordinator %d: %d updates over %d committed rounds, below quorum %d each", i, c["updates_aggregated"], committed, f.quorum)
	}
	// A 202 means the update was enqueued. Updates whose request the
	// run's stop cancelled may have been enqueued without the client
	// seeing the 202.
	accepted, cancelled := o.obs.accepted.Load(), o.obs.cancelledUpdates.Load()
	k.expect(enqueued >= accepted && enqueued <= accepted+cancelled,
		"the client saw %d 202 responses (%d more updates cancelled by the stop) but the servers enqueued %d", accepted, cancelled, enqueued)
	k.expect(aggregated <= enqueued, "updates_aggregated %d exceeds update_enqueued %d", aggregated, enqueued)
	k.expect(o.obs.regressions.Load() == 0, "%d task responses served an older version than one already seen from the same shard", o.obs.regressions.Load())

	o.obs.mu.Lock()
	for key, s := range o.obs.summaries {
		q := o.final[key[0]].quorum
		k.expect(s.Updates >= q, "shard %d round %d committed with %d updates, below quorum %d", key[0], s.ID, s.Updates, q)
	}
	k.expect(o.obs.statusErr == nil, "a status document did not parse: %v", o.obs.statusErr)
	o.obs.mu.Unlock()

	if o.sys.leader != nil {
		top := 0
		for _, v := range o.shardsV {
			top = max(top, v)
		}
		k.expect(top == o.leaderV, "the leader is at version %d but the shards serve %v", o.leaderV, o.shardsV)
	}
}
