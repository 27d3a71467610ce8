package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spaceodyssey/internal/bench"
)

// committed maps each serving experiment to its report at the repository
// root.
var committed = map[string]string{
	"async": "BENCH_async.json", "sharing": "BENCH_sharing.json", "cache": "BENCH_cache.json",
	"faults": "BENCH_faults.json", "cluster": "BENCH_cluster.json", "scenarios": "BENCH_scenarios.json",
}

func loadReport(t *testing.T, file string) *report {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return &r
}

// TestCommittedReports checks every committed serving report against all
// of its experiment's gates, structural and headline.
func TestCommittedReports(t *testing.T) {
	for name, file := range committed {
		r := loadReport(t, file)
		if r.Experiment != name {
			t.Errorf("%s: experiment %q, want %q", file, r.Experiment, name)
			continue
		}
		for _, g := range failedGates(experiments[name], r, true) {
			t.Errorf("%s: gate failed: %s", file, g)
		}
	}
}

// TestGatesFailOnPerturbedReports copies each committed report, perturbs the
// one field a gate reads and checks that the gate fails, so no gate is
// vacuous. Every gate of every committed experiment has a case.
func TestGatesFailOnPerturbedReports(t *testing.T) {
	set := func(arm, key string, v float64) func(*report) {
		return func(r *report) { r.arm(arm).Counters[key] = v }
	}
	unset := func(arm, key string) func(*report) { return func(r *report) { delete(r.arm(arm).Counters, key) } }
	derived := func(key string, v float64) func(*report) { return func(r *report) { r.Derived[key] = v } }
	notIdentical := func(r *report) { r.ResultsIdentical = false }
	dropArm := func(name string) func(*report) {
		return func(r *report) {
			r.Arms = slices.DeleteFunc(r.Arms, func(a *armReport) bool { return a.Name == name })
		}
	}
	cases := []struct {
		experiment, gate string
		perturb          func(*report)
	}{
		{"async", "arm probe reported", dropArm("probe")},
		{"async", "[sync async]: report counters [metrics.refinements metrics.partitions_merged metrics.merge_files maintenance_budget disk.throttled_ops disk.queued_delay_seconds convergence_wall_seconds]",
			unset("async", "convergence_wall_seconds")},
		{"async", "sync, async: convergence_passes >= 1 and converged", func(r *report) { r.arm("sync").Converged = false }},
		{"async", "async: maint.queued > 0", set("async", "maint.queued", 0)},
		{"async", "async: maint.failed == 0", set("async", "maint.failed", 1)},
		{"async", "async: maint.completed == maint.queued - maint.dropped", func(r *report) { r.arm("async").Counters["maint.completed"]-- }},
		{"async", "async: maint.queue_depth_high_water >= 1", set("async", "maint.queue_depth_high_water", 0)},
		{"async", "throttled: maintenance_budget > 0", set("throttled", "maintenance_budget", 0)},
		{"async", "derived arrival_gap_seconds > 0", derived("arrival_gap_seconds", 0)},
		{"async", "derived foreground_datasets >= 1", derived("foreground_datasets", 0)},
		{"async", "unthrottled: churn_queries > 0", set("unthrottled", "churn_queries", 0)},
		{"async", "throttled: churn_queries > 0", set("throttled", "churn_queries", 0)},
		{"async", "unthrottled: disk.throttled_ops == 0", set("unthrottled", "disk.throttled_ops", 1)},
		{"async", "unthrottled, throttled: latency_p99_seconds > 0", func(r *report) { r.arm("throttled").LatencyP99 = 0 }},
		{"async", "every arm served every query", func(r *report) { r.arm("sync").Served-- }},
		{"async", "throttled: disk.throttled_ops > 0", set("throttled", "disk.throttled_ops", 0)},

		{"sharing", "arm on reported", dropArm("on")},
		{"sharing", "[off on]: report counters [disk.cache_hits sharing.attached_scans sharing.shared_builds sharing.invalidations admission.batches]",
			unset("off", "sharing.attached_scans")},
		{"sharing", "off: sharing.coalesced_reads == 0", set("off", "sharing.coalesced_reads", 1)},
		{"sharing", "off: sharing.pages_saved == 0", set("off", "sharing.pages_saved", 1)},
		{"sharing", "on: sharing.coalesced_reads > 0", set("on", "sharing.coalesced_reads", 0)},
		{"sharing", "on: sharing.pages_saved > 0", set("on", "sharing.pages_saved", 0)},
		{"sharing", "on: admission.batched_queries == queries", func(r *report) { r.arm("on").Counters["admission.batched_queries"]-- }},
		{"sharing", "on: pages_read < off: pages_read", func(r *report) { r.arm("on").PagesRead = r.arm("off").PagesRead }},
		{"sharing", "derived pages_read_reduction > 0", derived("pages_read_reduction", 0)},
		{"sharing", "results_identical", notIdentical},
		{"sharing", "every arm served every query", func(r *report) { r.arm("on").Served-- }},

		{"cache", "arm off reported", dropArm("off")},
		{"cache", "[off on]: report counters [cache.misses cache.inserts cache.evictions cache.invalidations cache.entries cache.cached_objects]",
			unset("on", "cache.entries")},
		{"cache", "off: cache.hits == 0", set("off", "cache.hits", 1)},
		{"cache", "off: cache.zero_read_queries == 0", set("off", "cache.zero_read_queries", 1)},
		{"cache", "on: cache.hits > 0", set("on", "cache.hits", 0)},
		{"cache", "on: cache.containment_hits > 0", set("on", "cache.containment_hits", 0)},
		{"cache", "on: cache.zero_read_queries / queries >= 0.3", func(r *report) {
			r.arm("on").Counters["cache.zero_read_queries"] = 0.29 * float64(r.arm("on").Queries)
		}},
		{"cache", "on: pages_read < off: pages_read", func(r *report) { r.arm("on").PagesRead = r.arm("off").PagesRead }},
		{"cache", "results_identical", notIdentical},
		{"cache", "every arm served every query", func(r *report) { r.arm("off").Served-- }},

		{"faults", "arm storm reported", dropArm("storm")},
		{"faults", "constants retry_max_attempts > 1", func(r *report) { r.Inputs.Constants["retry_max_attempts"] = 1 }},
		{"faults", "[clean storm]: report counters [disk.permanent_faults disk.latency_spikes disk.retry_exhausted cache.zero_read_queries]",
			unset("storm", "disk.retry_exhausted")},
		{"faults", "clean: failed == 0 and served fraction == 1", func(r *report) { r.arm("clean").Served--; r.arm("clean").Failed++ }},
		{"faults", "clean: disk.transient_faults == 0", set("clean", "disk.transient_faults", 1)},
		{"faults", "clean: disk.retried_ops == 0", set("clean", "disk.retried_ops", 1)},
		{"faults", "storm: disk.transient_faults > 0", set("storm", "disk.transient_faults", 0)},
		{"faults", "storm: disk.retried_ops > 0", set("storm", "disk.retried_ops", 0)},
		{"faults", "storm: served fraction >= 0.95", func(r *report) { a := r.arm("storm"); a.Served = int(0.94 * float64(a.Queries)) }},
		{"faults", "results_identical", notIdentical},

		{"cluster", "arm oracle reported", dropArm("oracle")},
		{"cluster", "clean: served == queries and failed == 0", func(r *report) { r.arm("clean").Served--; r.arm("clean").Failed++ }},
		{"cluster", "results_identical", notIdentical},
		{"cluster", "crash: router.shard_rejects > 0", set("crash", "router.shard_rejects", 0)},
		{"cluster", "crash: router.failovers > 0", set("crash", "router.failovers", 0)},
		{"cluster", "crash: availability >= 0.99", func(r *report) {
			a := r.arm("crash")
			a.Served, a.Partial = int(0.98*float64(a.Queries)), 0
		}},
		{"cluster", "slow-hedged: router.hedges_fired > 0", set("slow-hedged", "router.hedges_fired", 0)},
		{"cluster", "slow-hedged: latency_p99_seconds < slow-unhedged: latency_p99_seconds", func(r *report) {
			r.arm("slow-hedged").LatencyP99 = r.arm("slow-unhedged").LatencyP99
		}},
		{"cluster", "clean: router.charge_imbalance_ns == 0", set("clean", "router.charge_imbalance_ns", 1)},
		{"cluster", "crash: router.charge_imbalance_ns == 0", set("crash", "router.charge_imbalance_ns", -1)},
		{"cluster", "slow-unhedged: router.charge_imbalance_ns == 0", set("slow-unhedged", "router.charge_imbalance_ns", 1)},
		{"cluster", "slow-hedged: router.charge_imbalance_ns == 0", set("slow-hedged", "router.charge_imbalance_ns", 1)},
		{"cluster", "clean: router.shards_reporting_health == 4", set("clean", "router.shards_reporting_health", 3)},

		{"scenarios", "arm drift/adaptive reported", dropArm("drift/adaptive")},
		{"scenarios", "results_identical", notIdentical},
		{"scenarios", "adaptive: report counters cache.hits, cache.containment_hits, admission.batch_window_seconds",
			unset("zipf/adaptive", "admission.batch_window_seconds")},
		{"scenarios", "adaptive: admission.batches > 0", set("drift/adaptive", "admission.batches", 0)},
		{"scenarios", "adaptive: admission.window_grows + admission.window_shrinks > 0", func(r *report) {
			r.arm("diurnal/adaptive").Counters["admission.window_grows"] = 0
			r.arm("diurnal/adaptive").Counters["admission.window_shrinks"] = 0
		}},
		{"scenarios", "adaptive: cache.capacity != small_capacity or cache.capacity_grows + cache.capacity_shrinks + cache.ghost_hits > 0", func(r *report) {
			c := r.arm("scanheavy/adaptive").Counters
			c["cache.capacity"], c["cache.capacity_grows"], c["cache.capacity_shrinks"], c["cache.ghost_hits"] = scenarioSmallCap, 0, 0, 0
		}},
		{"scenarios", "every arm served every query", func(r *report) { r.arm("adversarial/static-w0-small").Served-- }},
		{"scenarios", "all six scenarios ran", func(r *report) {
			r.Inputs.Scenario = "drift"
			r.Arms = slices.DeleteFunc(r.Arms, func(a *armReport) bool { return a.Workload != "drift" })
		}},
		{"scenarios", "drift: adaptive latency_p99_seconds < best static latency_p99_seconds", func(r *report) {
			_, best := adaptiveVsStatic(r, "drift")
			r.arm("drift/adaptive").LatencyP99 = best
		}},
		{"scenarios", "zipf: adaptive latency_p99_seconds <= 1.10 x best static latency_p99_seconds", func(r *report) {
			_, best := adaptiveVsStatic(r, "zipf")
			r.arm("zipf/adaptive").LatencyP99 = 1.11 * best
		}},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.experiment+"|"+c.gate] = true
		r := loadReport(t, committed[c.experiment])
		c.perturb(r)
		if !slices.Contains(failedGates(experiments[c.experiment], r, true), c.gate) {
			t.Errorf("%s: gate %q passes on its perturbed report", c.experiment, c.gate)
		}
	}
	for name := range committed {
		for _, g := range experiments[name].gates {
			if !covered[name+"|"+g.name] {
				t.Errorf("%s: gate %q has no perturbation case", name, g.name)
			}
		}
	}
}

// TestExperimentsRunSmall runs every serving experiment at toy scale with
// emulation off: each arm must finish, serve every query it is expected to
// and agree with its reference arm.
func TestExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cfg := bench.DefaultConfig()
	cfg.Datasets, cfg.ObjectsPerDataset = 4, 1500
	for name, e := range experiments {
		in := inputs{Datasets: cfg.Datasets, Objects: cfg.ObjectsPerDataset, Queries: 40, QueryVolume: 1e-3, Seed: 7,
			DataSeed: 1, Workers: 3, Devices: 1, Channels: 1, Placement: "affinity", Gap: 50_000}
		if name == "scenarios" {
			in.Scenario = "drift"
		}
		r, err := runExperiment(name, e, in, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Arms) != len(e.arms(in)) || !r.ResultsIdentical {
			t.Errorf("%s: %d arms, results identical %v", name, len(r.Arms), r.ResultsIdentical)
		}
	}
}
