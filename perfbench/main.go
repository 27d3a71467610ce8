// Command perfbench is the repository benchmark. It runs one named workload
// against the engine, checks every timed answer against the NaiveScan
// oracle, and prints one JSON object as the last line of its output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. METRICS.md defines every workload and metric.
//
//	bash perfbench/run.sh --workload steady-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is a reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every untraced run
// reports all of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"sim_total_s", "s"},
	{"wall_p50_us", "us"},
	{"qps", "1/s"},
	{"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"},
	{"alloc_bytes_per_query", "bytes"},
	{"heap_peak_mb", "MiB"},
	{"space_amp", "ratio"},
}

// perLayer are the metrics of single layers; every traced run reports all
// of them, 0 where a workload does not exercise or cannot measure one (see
// METRICS.md).
var perLayer = []metric{
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"wall_p99_us", "us"},
	{"failed_frac", "ratio"},
	{"dispatcher.queue_wait_p50_us", "us"},
	{"dispatcher.queue_wait_p99_us", "us"},
	{"dispatcher.batch_window_us", "us"},
	{"dispatcher.queries_per_batch", "count"},
	{"dispatcher.worker_busy_frac", "ratio"},
	{"dispatcher.rejected", "count"},
	{"dispatcher.self_us_per_query", "us"},
	{"core.self_us_per_query", "us"},
	{"core.partitions_per_query", "count"},
	{"core.merge_served_frac", "ratio"},
	{"core.results_per_query", "count"},
	{"core.phase.level0_build_s", "s"},
	{"core.phase.refine_s", "s"},
	{"core.phase.merge_write_s", "s"},
	{"core.phase.tree_read_s", "s"},
	{"core.phase.merge_read_s", "s"},
	{"core.merge_files", "count"},
	{"core.partitions_merged", "count"},
	{"core.cache_hit_frac", "ratio"},
	{"core.zero_read_frac", "ratio"},
	{"core.cache_evictions", "count"},
	{"core.cache_invalidations", "count"},
	{"core.scans_attached", "count"},
	{"core.maint_completed", "count"},
	{"core.maint_coalesced", "count"},
	{"core.maint_queue_high_water", "count"},
	{"octree.refinements", "count"},
	{"octree.trees_built", "count"},
	{"octree.leaves_per_query", "count"},
	{"octree.lookup_us_per_query", "us"},
	{"octree.leaf_read_self_us", "us"},
	{"rawfile.scan_pages", "count"},
	{"rawfile.scan_self_us", "us"},
	{"pagefile.read_runs_self_us", "us"},
	{"pagefile.decode_ns_per_page", "ns"},
	{"pagefile.objects_decoded_per_result", "ratio"},
	{"pagefile.allocs_per_leaf_read", "count"},
	{"simdisk.pages_read_per_query", "count"},
	{"simdisk.cache_hit_frac", "ratio"},
	{"simdisk.seeks_per_query", "count"},
	{"simdisk.seq_frac", "ratio"},
	{"simdisk.write_amp", "ratio"},
	{"simdisk.queued_delay_s", "s"},
	{"simdisk.coalesced_pages", "count"},
	{"simdisk.self_us_per_query", "us"},
	{"simdisk.calls_per_query", "count"},
	{"simdisk.bytes_returned_per_query", "bytes"},
	{"simdisk.retried_ops", "count"},
	{"simdisk.canceled_ops", "count"},
	{"go.gc_cycles_per_1k_queries", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_wall_p50_us", "us"},
	{"trace.overhead_cpu_us_per_query", "us"},
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
}

func newReport(attempted, failed int, firstErr error) *report {
	r := &report{attempted: attempted, failed: failed, values: make(map[string]float64)}
	if firstErr != nil {
		r.fail(firstErr)
	}
	return r
}

func (r *report) fail(err error)             { r.errs = append(r.errs, err.Error()) }
func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) correct() bool              { return r.failed == 0 && len(r.errs) == 0 }

// absent reports 0 for metrics of a layer the workload does not use or
// cannot measure (see METRICS.md).
func (r *report) absent(names ...string) {
	for _, name := range names {
		r.set(name, 0)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result renders the report against the metric list it must fill exactly.
func (r *report) result(want []metric) (result, error) {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	if len(r.values) != len(want) {
		var extra []string
		for name := range r.values {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return out, fmt.Errorf("metrics outside the list: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "cold-adapt, steady-read or serve-hot")
		seed     = flag.Int64("seed", 1, "seed of the workload's queries")
		dataSeed = flag.Int64("data-seed", 1, "seed of the datasets")
		seconds  = flag.Int("seconds", 10, "seconds of timed work per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *dataSeed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(name string, seed, dataSeed int64, seconds, trace int) error {
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	spans := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", name, seed)
	sc := scale{datasets: 10, objects: 100_000, queries: 1000, dataSeed: dataSeed, querySeed: seed}
	budget := time.Duration(seconds) * time.Second
	traced := trace == 1
	start := time.Now()
	rep, err := measure(name, sc, budget, traced, spans)
	if err != nil {
		return err
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	res, err := rep.result(want)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: %d queries, %d failed, %.1fs\n",
		name, seed, trace, rep.attempted, rep.failed, time.Since(start).Seconds())
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// measure runs the named workload.
func measure(name string, sc scale, budget time.Duration, traced bool, spans string) (*report, error) {
	switch name {
	case "cold-adapt":
		return closedWorkload{}.run(sc, budget, traced, spans)
	case "steady-read":
		return closedWorkload{steady: true}.run(sc, budget, traced, spans)
	case "serve-hot":
		return serveWorkload{}.run(sc, budget, traced, spans)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-adapt, steady-read or serve-hot)", name)
}
