package main

import (
	"errors"
	"fmt"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/cluster"
	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/workload"
)

// experiment is one serving experiment as data: the workloads it replays,
// the arms it compares on them, the ratios it derives and the gates its
// report must pass.
type experiment struct {
	workers   int     // default pool size (-parallel overrides)
	scale     float64 // default real-time scale (-realtime-scale overrides)
	passes    int     // convergence bound in replay passes
	constants map[string]float64
	workloads func(in inputs, cfg bench.Config) (map[string]workload.ScenarioWorkload, error)
	arms      func(in inputs) []arm
	derive    func(r *report)
	gates     []gate
}

// gate is one check on a report. Structural gates hold at any scale and run
// after every run; headline gates need full benchmark scale and are checked
// on the committed reports.
type gate struct {
	name     string
	headline bool
	ok       func(r *report) bool
}

// Spec constants, recorded in each report's inputs.
const (
	maintWorkers     = 2
	maintBudget      = 0.2 // background I/O share while foreground queries run
	probeUtilization = 0.6 // contention arrivals target this share of capacity
	batchWindow      = 2 * time.Millisecond
	faultRate        = 0.01 // transient faults per read attempt; 10x in storms
	retryAttempts    = 4
	shards           = 4
	replicas         = 2
	slowDelay        = 25 * time.Millisecond
	scenarioSmallCap = 16
	scenarioLargeCap = 1 << 10
)

var experiments = map[string]*experiment{"serving": {
	workers: 8, scale: 1, passes: 4,
	workloads: one("fig4a", fig4a()),
	arms: func(in inputs) []arm {
		o := odyssey.Options{DropCachesPerQuery: true}
		adm := odyssey.AdmissionConfig{MaxInFlight: in.MaxInFlight, Deadline: in.Deadline, QueueWait: in.QueueWait}
		return []arm{{name: "serial", workload: "fig4a", opts: o, workers: 1}, {name: "pool", workload: "fig4a", opts: o, adm: adm}}
	},
	derive: func(r *report) { r.Derived["speedup"] = ratio(r.arm("serial").WallSeconds, r.arm("pool").WallSeconds) },
}, "async": {
	workers: 8, scale: 0.05, passes: 10,
	constants: map[string]float64{"maintenance_workers": maintWorkers, "maintenance_budget": maintBudget,
		"probe_utilization": probeUtilization, "churn_workers": churnWorkers},
	workloads: asyncWorkloads,
	arms:      asyncArms,
	derive: func(r *report) {
		r.Derived["p99_speedup_sync_over_async"] = ratio(r.arm("sync").LatencyP99, r.arm("async").LatencyP99)
		r.Derived["p99_improvement_unthrottled_over_throttled"] = ratio(r.arm("unthrottled").LatencyP99, r.arm("throttled").LatencyP99)
		r.Derived["arrival_gap_seconds"] = contentionGap(r.Arms).Seconds()
		r.Derived["foreground_datasets"] = float64(foregroundDatasets(r.Inputs))
	},
	gates: []gate{
		hasCounters([]string{"sync", "async"}, "metrics.refinements", "metrics.partitions_merged", "metrics.merge_files",
			"maintenance_budget", "disk.throttled_ops", "disk.queued_delay_seconds", "convergence_wall_seconds"),
		{name: "sync, async: convergence_passes >= 1 and converged", ok: func(r *report) bool {
			s, a := r.arm("sync"), r.arm("async")
			return s.ConvergencePasses >= 1 && s.Converged && a.ConvergencePasses >= 1 && a.Converged
		}},
		counter("async", "maint.queued", ">", 0),
		counter("async", "maint.failed", "==", 0),
		{name: "async: maint.completed == maint.queued - maint.dropped", ok: func(r *report) bool {
			return r.c("async", "maint.completed") == r.c("async", "maint.queued")-r.c("async", "maint.dropped")
		}},
		counter("async", "maint.queue_depth_high_water", ">=", 1),
		counter("throttled", "maintenance_budget", ">", 0),
		{name: "derived arrival_gap_seconds > 0", ok: func(r *report) bool { return r.Derived["arrival_gap_seconds"] > 0 }},
		{name: "derived foreground_datasets >= 1", ok: func(r *report) bool { return r.Derived["foreground_datasets"] >= 1 }},
		counter("unthrottled", "churn_queries", ">", 0),
		counter("throttled", "churn_queries", ">", 0),
		counter("unthrottled", "disk.throttled_ops", "==", 0),
		{name: "unthrottled, throttled: latency_p99_seconds > 0", ok: func(r *report) bool {
			return r.arm("unthrottled").LatencyP99 > 0 && r.arm("throttled").LatencyP99 > 0
		}},
		allServed,
		{name: "throttled: disk.throttled_ops > 0", headline: true, ok: func(r *report) bool { return r.c("throttled", "disk.throttled_ops") > 0 }},
	},
}, "sharing": {
	workers: 8, scale: 0.3, passes: 4,
	constants: map[string]float64{"batch_window_ms": float64(batchWindow / time.Millisecond)},
	workloads: one("hot", workload.Config{RangeDist: workload.RangeClustered, CombDist: workload.CombHeavyHitter,
		ClusterCenters: 2, SigmaFactor: 0.25, HeavyHitterShare: 0.7}),
	arms:   offOn("hot", odyssey.Options{ShareScans: true}, odyssey.AdmissionConfig{BatchWindow: batchWindow}),
	derive: offOnRatios,
	gates: []gate{
		hasCounters([]string{"off", "on"}, "disk.cache_hits", "sharing.attached_scans", "sharing.shared_builds",
			"sharing.invalidations", "admission.batches"),
		counter("off", "sharing.coalesced_reads", "==", 0),
		counter("off", "sharing.pages_saved", "==", 0),
		counter("on", "sharing.coalesced_reads", ">", 0),
		counter("on", "sharing.pages_saved", ">", 0),
		{name: "on: admission.batched_queries == queries", ok: func(r *report) bool { return r.c("on", "admission.batched_queries") == float64(r.arm("on").Queries) }},
		fewerPagesOn,
		{name: "derived pages_read_reduction > 0", ok: func(r *report) bool { return r.Derived["pages_read_reduction"] > 0 }},
		resultsIdentical, allServed,
	},
}, "cache": {
	workers: 8, scale: 0.3, passes: 4,
	workloads: one("zipf", zipfHot),
	arms:      offOn("zipf", odyssey.Options{CacheResults: true}, odyssey.AdmissionConfig{}),
	derive:    offOnRatios,
	gates: []gate{
		hasCounters([]string{"off", "on"}, "cache.misses", "cache.inserts", "cache.evictions",
			"cache.invalidations", "cache.entries", "cache.cached_objects"),
		counter("off", "cache.hits", "==", 0),
		counter("off", "cache.zero_read_queries", "==", 0),
		counter("on", "cache.hits", ">", 0),
		counter("on", "cache.containment_hits", ">", 0),
		{name: "on: cache.zero_read_queries / queries >= 0.3", ok: func(r *report) bool { return r.c("on", "cache.zero_read_queries") >= 0.3*float64(r.arm("on").Queries) }},
		fewerPagesOn, resultsIdentical, allServed,
	},
}, "faults": {
	workers: 8, scale: 0.3, passes: 4,
	constants: map[string]float64{"fault_rate": faultRate, "storm_every": 2048, "storm_length": 256,
		"storm_factor": 10, "retry_max_attempts": retryAttempts, "share_scans": 1, "cache_results": 1},
	workloads: one("zipf", zipfHot),
	arms:      faultArms,
	gates: []gate{
		{name: "constants retry_max_attempts > 1", ok: func(r *report) bool { return r.Inputs.Constants["retry_max_attempts"] > 1 }},
		hasCounters([]string{"clean", "storm"}, "disk.permanent_faults", "disk.latency_spikes",
			"disk.retry_exhausted", "cache.zero_read_queries"),
		{name: "clean: failed == 0 and served fraction == 1", ok: func(r *report) bool { return r.arm("clean").Failed == 0 && r.arm("clean").served() == 1 }},
		counter("clean", "disk.transient_faults", "==", 0),
		counter("clean", "disk.retried_ops", "==", 0),
		counter("storm", "disk.transient_faults", ">", 0),
		counter("storm", "disk.retried_ops", ">", 0),
		{name: "storm: served fraction >= 0.95", ok: func(r *report) bool { return r.arm("storm").served() >= 0.95 }},
		resultsIdentical,
	},
}, "cluster": {
	workers: 8, scale: 0, passes: 4,
	constants: map[string]float64{"shards": shards, "replicas": replicas, "slow_delay_ms": float64(slowDelay / time.Millisecond),
		"hedge_min_delay_ms": 2, "probe_interval_ms": 2, "failover_attempts": 3},
	workloads: one("zipf", zipfHot),
	arms:      clusterArms,
	derive: func(r *report) {
		r.Derived["hedge_p99_speedup"] = ratio(r.arm("slow-unhedged").LatencyP99, r.arm("slow-hedged").LatencyP99)
	},
	gates: []gate{
		{name: "clean: served == queries and failed == 0", ok: func(r *report) bool { return r.arm("clean").served() == 1 && r.arm("clean").Failed == 0 }},
		resultsIdentical,
		counter("crash", "router.shard_rejects", ">", 0),
		counter("crash", "router.failovers", ">", 0),
		{name: "crash: availability >= 0.99", ok: func(r *report) bool { return r.arm("crash").available() >= 0.99 }},
		counter("slow-hedged", "router.hedges_fired", ">", 0),
		{name: "slow-hedged: latency_p99_seconds < slow-unhedged: latency_p99_seconds", ok: func(r *report) bool {
			return r.arm("slow-hedged").LatencyP99 < r.arm("slow-unhedged").LatencyP99
		}},
		counter("clean", "router.charge_imbalance_ns", "==", 0),
		counter("crash", "router.charge_imbalance_ns", "==", 0),
		counter("slow-unhedged", "router.charge_imbalance_ns", "==", 0),
		counter("slow-hedged", "router.charge_imbalance_ns", "==", 0),
		counter("clean", "router.shards_reporting_health", "==", shards),
	},
}, "scenarios": {
	workers: 4, scale: 1, passes: 4,
	constants: map[string]float64{"small_capacity": scenarioSmallCap, "large_capacity": scenarioLargeCap,
		"static_window_ms": 4, "adaptive_window_ms": 2, "adaptive_min_window_ms": 0.25, "adaptive_max_window_ms": 8,
		"heat_half_life": 64},
	workloads: scenarioWorkloads,
	arms:      scenarioArms,
	derive:    scenarioRatios,
	gates: []gate{
		resultsIdentical,
		adaptiveGate("report counters cache.hits, cache.containment_hits, admission.batch_window_seconds", func(a *armReport) bool {
			return a.has("cache.hits", "cache.containment_hits", "admission.batch_window_seconds")
		}),
		adaptiveGate("admission.batches > 0", func(a *armReport) bool { return a.Counters["admission.batches"] > 0 }),
		adaptiveGate("admission.window_grows + admission.window_shrinks > 0", func(a *armReport) bool {
			return a.Counters["admission.window_grows"]+a.Counters["admission.window_shrinks"] > 0
		}),
		adaptiveGate("cache.capacity != small_capacity or cache.capacity_grows + cache.capacity_shrinks + cache.ghost_hits > 0", func(a *armReport) bool {
			c := a.Counters
			return c["cache.capacity"] != scenarioSmallCap || c["cache.capacity_grows"]+c["cache.capacity_shrinks"]+c["cache.ghost_hits"] > 0
		}),
		allServed,
		{name: "all six scenarios ran", headline: true, ok: func(r *report) bool { return len(scenarioSelection(r.Inputs)) == 6 }},
		{name: "drift: adaptive latency_p99_seconds < best static latency_p99_seconds", headline: true, ok: func(r *report) bool {
			ad, best := adaptiveVsStatic(r, "drift")
			return ad < best
		}},
		{name: "zipf: adaptive latency_p99_seconds <= 1.10 x best static latency_p99_seconds", headline: true, ok: func(r *report) bool {
			ad, best := adaptiveVsStatic(r, "zipf")
			return ad <= 1.10*best
		}},
	},
}}

var zipfHot = workload.Config{RangeDist: workload.RangeClustered, CombDist: workload.CombZipf, ClusterCenters: 4, SigmaFactor: 0.2}

func fig4a() workload.Config {
	spec, _ := bench.FigureByID("fig4a") // built in: cannot fail
	return workload.Config{RangeDist: spec.RangeDist, CombDist: spec.CombDist, ClusterCenters: spec.ClusterCenters}
}

// generated builds a workload of the run's size over datasets [0,n), each
// query touching min(3,n) of them.
func generated(in inputs, seed int64, n int, c workload.Config) (workload.ScenarioWorkload, error) {
	c.Seed, c.NumQueries, c.NumDatasets = seed, in.Queries, n
	c.DatasetsPerQuery, c.QueryVolumeFrac = min(3, n), in.QueryVolume
	w, err := workload.Generate(c)
	return workload.ScenarioWorkload{Workload: w}, err
}

// one is an experiment's single workload over every dataset.
func one(name string, c workload.Config) func(inputs, bench.Config) (map[string]workload.ScenarioWorkload, error) {
	return func(in inputs, _ bench.Config) (map[string]workload.ScenarioWorkload, error) {
		w, err := generated(in, in.Seed, in.Datasets, c)
		return map[string]workload.ScenarioWorkload{name: w}, err
	}
}

// offOn compares a feature off against on; both arms drop the page cache
// per query, so every miss pays platter time.
func offOn(w string, on odyssey.Options, adm odyssey.AdmissionConfig) func(inputs) []arm {
	on.DropCachesPerQuery = true
	return func(inputs) []arm {
		return []arm{{name: "off", workload: w, opts: odyssey.Options{DropCachesPerQuery: true}}, {name: "on", workload: w, opts: on, adm: adm}}
	}
}

func offOnRatios(r *report) {
	off, on := r.arm("off"), r.arm("on")
	r.Derived["pages_read_reduction"] = 1 - ratio(float64(on.PagesRead), float64(off.PagesRead))
	r.Derived["sim_speedup_off_over_on"] = ratio(off.SimSeconds, on.SimSeconds)
}

// The async experiment's contention arms converge a foreground workload on
// the first half of the datasets; churn replays cold over the second half,
// so every churn query schedules refinement and merge work.
func foregroundDatasets(in inputs) int { return max(in.Datasets/2, 1) }

func asyncWorkloads(in inputs, _ bench.Config) (map[string]workload.ScenarioWorkload, error) {
	fgN := foregroundDatasets(in)
	cold, err1 := generated(in, in.Seed, in.Datasets, fig4a())
	fg, err2 := generated(in, in.Seed+101, fgN, fig4a())
	ws := map[string]workload.ScenarioWorkload{"cold": cold, "foreground": fg}
	if bgN := in.Datasets - fgN; bgN > 0 {
		churn, err := generated(in, in.Seed+202, bgN, fig4a())
		if err != nil {
			return nil, err
		}
		// Copy each combination before shifting it: generated queries may
		// share one slice (the heavy-hitter combination).
		for i, q := range churn.Queries {
			shifted := make([]odyssey.DatasetID, len(q.Datasets))
			for j, d := range q.Datasets {
				shifted[j] = d + odyssey.DatasetID(fgN)
			}
			churn.Queries[i].Datasets = shifted
		}
		ws["churn"] = churn
	}
	return ws, errors.Join(err1, err2)
}

// asyncArms: sync and async pay a cold layout's builds, refinements and
// merges inline or in the background. The contention arms pace the
// foreground at probeUtilization of the probe arm's capacity while churn
// runs, and differ only in the maintenance I/O budget.
func asyncArms(inputs) []arm {
	async := odyssey.Options{DropCachesPerQuery: true, AsyncMaintenance: true, MaintenanceWorkers: maintWorkers}
	sync := async
	sync.AsyncMaintenance = false
	budget := func(t target, _ int64) { t.(explorerTarget).SetMaintenanceBudget(maintBudget) }
	return []arm{
		{name: "sync", workload: "cold", opts: sync, cold: true},
		{name: "async", workload: "cold", opts: async, cold: true},
		{name: "probe", workload: "foreground", opts: async},
		{name: "unthrottled", workload: "foreground", opts: async, churn: "churn", gap: contentionGap},
		{name: "throttled", workload: "foreground", opts: async, churn: "churn", gap: contentionGap, phase: budget},
	}
}

func contentionGap(done []*armReport) time.Duration {
	for _, a := range done {
		if a.Name == "probe" {
			return time.Duration(a.WallSeconds * float64(time.Second) / (probeUtilization * float64(a.Queries)))
		}
	}
	return 0
}

func faultArms(in inputs) []arm {
	o := odyssey.Options{DropCachesPerQuery: true, ShareScans: true, CacheResults: true,
		Retry: odyssey.RetryPolicy{MaxAttempts: retryAttempts, Backoff: 200 * time.Microsecond},
		// Brownout runs but should engage only in a real catastrophe: the
		// experiment measures retry-backed availability, not shedding.
		BrownoutThreshold: 0.5, BrownoutWindow: 10 * time.Millisecond}
	storm := func(t target, n int64) {
		t.(explorerTarget).SetFaultPlan(odyssey.FaultPlan{Seed: in.Seed + 101, TransientRate: faultRate,
			StormEvery: 2048, StormLength: 256, StormFactor: 10})
		flushResultCache(t, n)
	}
	return []arm{{name: "clean", workload: "zipf", opts: o, phase: flushResultCache}, {name: "storm", workload: "zipf", opts: o, phase: storm}}
}

func flushResultCache(t target, _ int64) { t.(explorerTarget).FlushResultCache() }

// clusterArms replay through Routers and compare every answer with the
// single-Explorer oracle arm.
func clusterArms(inputs) []arm {
	router := func(hedged bool) *cluster.Config {
		return &cluster.Config{
			Shards: shards, Replicas: replicas, Policy: cluster.ServePartial,
			Failover: odyssey.RetryPolicy{MaxAttempts: 3, Backoff: 200 * time.Microsecond, Budget: 50 * time.Millisecond},
			Health:   cluster.HealthConfig{ProbeInterval: 2 * time.Millisecond},
			Hedge:    cluster.HedgeConfig{Enabled: hedged, MinDelay: 2 * time.Millisecond},
		}
	}
	// Crash window, in query ordinals of the replay: shard 1 is down for the
	// middle third and, briefly, shard 2 too, so datasets replicated exactly
	// on that pair are unreachable and the partial path runs for real.
	crash := func(t target, n int64) {
		base := t.(routerTarget).Stats().Queries
		t.(routerTarget).SetShardFaultPlan(cluster.ShardFaultPlan{Faults: []cluster.ShardFault{
			{Shard: 1, CrashAfter: base + n/4, CrashFor: n / 3}, {Shard: 2, CrashAfter: base + n/3, CrashFor: n / 8}}})
	}
	// The same slow-shard storm for both hedging settings, so the p99 delta
	// is the hedging win.
	slow := func(t target, n int64) {
		base := t.(routerTarget).Stats().Queries
		t.(routerTarget).SetShardFaultPlan(cluster.ShardFaultPlan{Faults: []cluster.ShardFault{
			{Shard: 0, SlowAfter: base, SlowFor: n, SlowDelay: slowDelay}}})
	}
	return []arm{
		{name: "oracle", workload: "zipf", workers: 1},
		{name: "clean", workload: "zipf", cluster: router(true)},
		{name: "crash", workload: "zipf", cluster: router(true), phase: crash},
		{name: "slow-unhedged", workload: "zipf", cluster: router(false), phase: slow},
		{name: "slow-hedged", workload: "zipf", cluster: router(true), phase: slow},
	}
}

// The scenario lab's static grid crosses both batch-window and capacity
// extremes: the small capacity thrashes on any repeating hotspot, the large
// one holds one phase's working set but not a drifting workload's. The
// adaptive mode starts from the small budget and must grow its way out.
var scenarioModes = []struct {
	name     string
	window   time.Duration
	capacity int64
	adaptive bool
}{
	{"static-w0-small", 0, scenarioSmallCap, false},
	{"static-w0-large", 0, scenarioLargeCap, false},
	{"static-w4-small", 4 * time.Millisecond, scenarioSmallCap, false},
	{"static-w4-large", 4 * time.Millisecond, scenarioLargeCap, false},
	{"adaptive", 2 * time.Millisecond, scenarioSmallCap, true},
}

func scenarioSelection(in inputs) []string {
	if in.Scenario == "" {
		return workload.ScenarioNames()
	}
	return []string{in.Scenario}
}

func scenarioWorkloads(in inputs, cfg bench.Config) (map[string]workload.ScenarioWorkload, error) {
	ws := map[string]workload.ScenarioWorkload{}
	for _, name := range scenarioSelection(in) {
		w, err := workload.GenerateScenario(name, workload.ScenarioConfig{Seed: in.Seed, NumQueries: in.Queries,
			NumDatasets: in.Datasets, DatasetsPerQuery: min(3, in.Datasets), Bounds: cfg.Bounds, QueryVolumeFrac: in.QueryVolume})
		if err != nil {
			return nil, err
		}
		ws[name] = w
	}
	return ws, nil
}

// scenarioArms converge each mode's layout, flush the result cache so
// repeats re-earn their hits under the mode's capacity, and replay on the
// scenario's own arrival schedule with latency from scheduled arrival.
func scenarioArms(in inputs) []arm {
	var arms []arm
	for _, s := range scenarioSelection(in) {
		for _, m := range scenarioModes {
			opts := odyssey.Options{DropCachesPerQuery: true, ShareScans: true, CacheResults: true, CacheCapacity: m.capacity}
			adm := odyssey.AdmissionConfig{BatchWindow: m.window}
			if m.adaptive {
				opts.AdaptiveCache, opts.HeatHalfLife = true, 64
				adm.AdaptiveBatch, adm.MinBatchWindow, adm.MaxBatchWindow = true, 250*time.Microsecond, 8*time.Millisecond
			}
			arms = append(arms, arm{name: s + "/" + m.name, workload: s, opts: opts, adm: adm, e2e: true,
				gap: func([]*armReport) time.Duration { return in.Gap }, phase: flushResultCache})
		}
	}
	return arms
}

// adaptiveVsStatic returns one scenario's adaptive p99 and its best static p99.
func adaptiveVsStatic(r *report, scenario string) (adaptive, best float64) {
	for _, m := range scenarioModes {
		p99 := r.arm(scenario + "/" + m.name).LatencyP99
		switch {
		case m.adaptive:
			adaptive = p99
		case best == 0 || p99 < best:
			best = p99
		}
	}
	return adaptive, best
}

func scenarioRatios(r *report) {
	for _, s := range scenarioSelection(r.Inputs) {
		ad, best := adaptiveVsStatic(r, s)
		r.Derived[s+".adaptive_over_best_static_p99"] = ratio(ad, best)
	}
}

// adaptiveGate checks every scenario's adaptive arm.
func adaptiveGate(name string, ok func(a *armReport) bool) gate {
	return gate{name: "adaptive: " + name, ok: func(r *report) bool {
		for _, s := range scenarioSelection(r.Inputs) {
			if a := r.arm(s + "/adaptive"); !ok(a) {
				return false
			}
		}
		return true
	}}
}

var (
	resultsIdentical = gate{name: "results_identical", ok: func(r *report) bool { return r.ResultsIdentical }}
	allServed        = gate{name: "every arm served every query", ok: func(r *report) bool {
		for _, a := range r.Arms {
			if a.Served != a.Queries {
				return false
			}
		}
		return true
	}}
	fewerPagesOn = gate{name: "on: pages_read < off: pages_read", ok: func(r *report) bool { return r.arm("on").PagesRead < r.arm("off").PagesRead }}
	compare      = map[string]func(v, bound float64) bool{
		">": func(v, b float64) bool { return v > b }, ">=": func(v, b float64) bool { return v >= b }, "==": func(v, b float64) bool { return v == b },
	}
)

// counter gates one arm's counter against a bound; a missing counter fails.
func counter(arm, key, op string, bound float64) gate {
	return gate{name: fmt.Sprintf("%s: %s %s %g", arm, key, op, bound), ok: func(r *report) bool {
		v, ok := r.arm(arm).Counters[key]
		return ok && compare[op](v, bound)
	}}
}

// hasCounters checks that each named arm reports the given counters.
func hasCounters(arms []string, keys ...string) gate {
	return gate{name: fmt.Sprintf("%v: report counters %v", arms, keys), ok: func(r *report) bool {
		for _, name := range arms {
			if !r.arm(name).has(keys...) {
				return false
			}
		}
		return true
	}}
}

// arm returns the named arm, or an empty one with no counters.
func (r *report) arm(name string) *armReport {
	for _, a := range r.Arms {
		if a.Name == name {
			return a
		}
	}
	return &armReport{}
}

func (r *report) c(arm, counter string) float64 { return r.arm(arm).Counters[counter] }

func (a *armReport) has(keys ...string) bool {
	for _, k := range keys {
		if _, ok := a.Counters[k]; !ok {
			return false
		}
	}
	return true
}

// served is the fraction answered in full; available counts partial too.
func (a *armReport) served() float64 { return ratio(float64(a.Served), float64(a.Queries)) }
func (a *armReport) available() float64 {
	return ratio(float64(a.Served+a.Partial), float64(a.Queries))
}

// failedGates returns the names of the gates r fails, headline gates only
// when asked for. Every arm the spec runs must be in the report.
func failedGates(e *experiment, r *report, headline bool) []string {
	var failed []string
	for _, a := range e.arms(r.Inputs) {
		if r.arm(a.name).Counters == nil {
			failed = append(failed, "arm "+a.name+" reported")
		}
	}
	for _, g := range e.gates {
		if (headline || !g.headline) && !g.ok(r) {
			failed = append(failed, g.name)
		}
	}
	return failed
}
