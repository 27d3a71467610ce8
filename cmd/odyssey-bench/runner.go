package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode"

	odyssey "spaceodyssey"
	"spaceodyssey/cluster"
	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/workload"
)

// report is the one schema every serving experiment writes: the inputs that
// rerun it, one entry per arm, and the ratios the experiment derives.
type report struct {
	Experiment string       `json:"experiment"`
	Inputs     inputs       `json:"inputs"`
	Arms       []*armReport `json:"arms"`
	// ResultsIdentical is true when every arm's served answers fingerprint-
	// match the first arm that replayed the same workload.
	ResultsIdentical bool               `json:"results_identical"`
	Derived          map[string]float64 `json:"derived"`
}

// inputs is everything needed to rerun an experiment: sizing, seeds, pool,
// pacing, storage topology and the experiment's spec constants.
type inputs struct {
	Datasets      int                `json:"datasets"`
	Objects       int                `json:"objects"`
	Layout        string             `json:"layout"`
	Queries       int                `json:"queries"`
	QueryVolume   float64            `json:"qvol"`
	Seed          int64              `json:"seed"`
	DataSeed      int64              `json:"data_seed"`
	Workers       int                `json:"workers"`
	RealtimeScale float64            `json:"realtime_scale"`
	Gap           time.Duration      `json:"gap_ns,omitempty"`
	Devices       int                `json:"devices"`
	Channels      int                `json:"channels"`
	Placement     string             `json:"placement"`
	SeekUS        int                `json:"seek_us"`
	TransferUS    int                `json:"transfer_us"`
	Deadline      time.Duration      `json:"deadline_ns,omitempty"`
	MaxInFlight   int                `json:"max_in_flight,omitempty"`
	QueueWait     time.Duration      `json:"queue_wait_ns,omitempty"`
	Scenario      string             `json:"scenario,omitempty"`
	Constants     map[string]float64 `json:"constants"`
	Args          []string           `json:"args"`
}

// armReport is one arm's measured replay. Latency percentiles cover the
// answered (served or partial) queries. Counters are deltas over the replay,
// except end-of-run levels such as cache capacity and queue high water.
type armReport struct {
	Name              string             `json:"name"`
	Workload          string             `json:"workload"`
	Queries           int                `json:"queries"`
	Served            int                `json:"served"`
	Partial           int                `json:"partial"`
	Failed            int                `json:"failed"`
	WallSeconds       float64            `json:"wall_seconds"`
	SimSeconds        float64            `json:"sim_seconds"`
	PagesRead         int64              `json:"pages_read"`
	LatencyP50        float64            `json:"latency_p50_seconds"`
	LatencyP95        float64            `json:"latency_p95_seconds"`
	LatencyP99        float64            `json:"latency_p99_seconds"`
	Converged         bool               `json:"converged"`
	ConvergencePasses int                `json:"convergence_passes"`
	ResultsIdentical  bool               `json:"results_identical"`
	Counters          map[string]float64 `json:"counters"`

	prints map[int]uint64
}

// arm is one serving configuration of an experiment.
type arm struct {
	name     string
	workload string // key into the experiment's workloads
	// opts configures the Explorer, or each shard when cluster is set. The
	// runner fills in bounds, cost and storage topology.
	opts    odyssey.Options
	adm     odyssey.AdmissionConfig
	cluster *cluster.Config
	workers int    // pool size; 0 = the run's workers
	cold    bool   // replay the unconverged layout, converge afterwards
	churn   string // workload a side pool replays through the measured pass
	// gap paces the replay open-loop: query i is due Gaps[i] (1 without a
	// schedule) units after query i-1. nil submits every query at once.
	gap func(done []*armReport) time.Duration
	// e2e measures latency from scheduled arrival, so a mode that falls
	// behind pays for its backlog; otherwise it is service time.
	e2e   bool
	phase func(t target, n int64) // runs after convergence, before the reset
}

const churnWorkers = 2

// runExperiment generates the data once and runs every arm on it.
func runExperiment(name string, e *experiment, in inputs, cfg bench.Config) (*report, error) {
	ws, err := e.workloads(in, cfg)
	if err != nil {
		return nil, err
	}
	policy, err := bench.PlacementByName(cfg.Placement)
	if err != nil {
		return nil, err
	}
	data := datagen.GenerateDatasets(datagen.Config{
		Seed: cfg.DataSeed, NumObjects: cfg.ObjectsPerDataset, Bounds: cfg.Bounds, Layout: cfg.DataLayout,
	}, cfg.Datasets)
	r := &report{Experiment: name, Inputs: in, ResultsIdentical: true, Derived: map[string]float64{}}
	first := map[string]*armReport{}
	for _, a := range e.arms(in) {
		ar, err := runArm(e, a, in, cfg, policy, data, ws, r.Arms)
		if err != nil {
			return nil, fmt.Errorf("arm %s: %w", a.name, err)
		}
		if base, ok := first[a.workload]; ok {
			ar.ResultsIdentical = sameResults(base.prints, ar.prints)
		} else {
			first[a.workload], ar.ResultsIdentical = ar, true
		}
		r.ResultsIdentical = r.ResultsIdentical && ar.ResultsIdentical
		r.Arms = append(r.Arms, ar)
		fmt.Printf("%-24s %4d/%d served %3d partial  wall %7.3fs  sim %8.3fs  %7d pages  p50 %8.2fms  p99 %8.2fms  identical %v\n",
			ar.Name, ar.Served, ar.Queries, ar.Partial, ar.WallSeconds, ar.SimSeconds, ar.PagesRead,
			1e3*ar.LatencyP50, 1e3*ar.LatencyP99, ar.ResultsIdentical)
	}
	if e.derive != nil {
		e.derive(r)
	}
	return r, nil
}

// runArm builds the arm's serving stack, converges it, resets its clock and
// counters, replays the workload and collects the arm's report.
func runArm(e *experiment, a arm, in inputs, cfg bench.Config, policy odyssey.PlacementPolicy,
	data [][]odyssey.Object, ws map[string]workload.ScenarioWorkload, done []*armReport) (*armReport, error) {
	w := ws[a.workload]
	t, err := build(a, cfg, policy)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	for i, objs := range data {
		if err := t.AddDataset(odyssey.DatasetID(i), objs); err != nil {
			return nil, err
		}
	}
	ar := &armReport{Name: a.name, Workload: a.workload, Queries: len(w.Queries), prints: map[int]uint64{}}
	if !a.cold {
		if ar.ConvergencePasses, ar.Converged, err = converge(t, w, e.passes, 0); err != nil {
			return nil, err
		}
	}
	if a.phase != nil {
		a.phase(t, int64(len(w.Queries)))
	}
	t.reset()
	before, after := newCounters(), newCounters()
	t.snapshot(before)
	t.SetRealTimeScale(in.RealtimeScale)

	churned := make(chan []odyssey.BatchResult, 1) // an arm without churn replays an empty workload
	go func() {
		res, _ := replay(t.serve(churnWorkers, odyssey.AdmissionConfig{}), ws[a.churn], 0, false)
		churned <- res
	}()
	var unit time.Duration
	if a.gap != nil {
		unit = a.gap(done)
	}
	srv := t.serve(cmp.Or(a.workers, in.Workers), a.adm)
	t0 := time.Now()
	results, lat := replay(srv, w, unit, a.e2e)
	ar.WallSeconds = time.Since(t0).Seconds()
	if err := firstErr(<-churned); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	if err := t.Quiesce(context.Background()); err != nil {
		return nil, err
	}
	ar.SimSeconds = t.clock().Seconds()
	if a.cold { // converge through the pool, as the measured pass ran
		if ar.ConvergencePasses, ar.Converged, err = converge(t, w, e.passes, cmp.Or(a.workers, in.Workers)); err != nil {
			return nil, err
		}
		after.set("convergence_wall_seconds", time.Since(t0).Seconds())
	}
	if a.churn != "" {
		after.set("churn_queries", float64(len(ws[a.churn].Queries)))
	}
	t.snapshot(after)
	if d, ok := srv.(*odyssey.Dispatcher); ok { // a fresh pool: its ledger is all replay
		after.record("admission", d.AdmissionStats())
		for _, st := range d.WorkerStats() {
			after.record(fmt.Sprintf("worker%d", st.Worker), st, "Worker")
		}
	}
	if err := t.close(after); err != nil {
		return nil, err
	}
	ar.Counters = after.level
	for k, v := range after.delta {
		ar.Counters[k] = v - before.delta[k]
	}
	ar.PagesRead = int64(ar.Counters["disk.page_reads"])

	var answered []time.Duration
	for i, res := range results {
		switch {
		case res.Err == nil:
			ar.Served++
			ar.prints[i] = fingerprint(res.Objects)
		case errors.Is(res.Err, cluster.ErrPartial):
			ar.Partial++
		default:
			ar.Failed++
			continue
		}
		answered = append(answered, lat[i])
	}
	ar.LatencyP50 = bench.Percentile(answered, 50).Seconds()
	ar.LatencyP95 = bench.Percentile(answered, 95).Seconds()
	ar.LatencyP99 = bench.Percentile(answered, 99).Seconds()
	return ar, nil
}

// build constructs the arm's serving stack on the run's topology.
func build(a arm, cfg bench.Config, policy odyssey.PlacementPolicy) (target, error) {
	opts := a.opts
	opts.Bounds, opts.Cost, opts.CachePages = cfg.Bounds, cfg.Cost, cfg.CachePages
	opts.Devices, opts.Channels, opts.Placement = cfg.Devices, cfg.Channels, policy
	if a.cluster == nil {
		ex, err := odyssey.NewExplorer(opts)
		return explorerTarget{ex}, err
	}
	c := *a.cluster
	c.Options = opts
	r, err := cluster.New(c)
	return routerTarget{r, cfg.Cost.CacheHit}, err
}

// converge replays w until a full pass leaves the layout alone (no
// refinement, merge or eviction), up to maxPasses: serially, or through a
// pool when workers > 0. The async pipeline is quiesced each pass, so its
// deferred work counts toward the pass.
func converge(t target, w workload.ScenarioWorkload, maxPasses, workers int) (passes int, converged bool, err error) {
	for passes < maxPasses {
		passes++
		before := t.moves()
		if workers > 0 {
			res, _ := replay(t.serve(workers, odyssey.AdmissionConfig{}), w, 0, false)
			err = firstErr(res)
		}
		for i := 0; workers == 0 && i < len(w.Queries) && err == nil; i++ {
			_, err = t.Query(w.Queries[i].Range, w.Queries[i].Datasets)
		}
		if err != nil {
			return passes, false, fmt.Errorf("converge: %w", err)
		}
		if err := t.Quiesce(context.Background()); err != nil {
			return passes, false, err
		}
		if t.moves() == before {
			return passes, true, nil
		}
	}
	return passes, false, nil
}

// replay serves w through srv and returns each query's result and latency.
// unit > 0 paces submissions open-loop (see arm.gap).
func replay(srv server, w workload.ScenarioWorkload, unit time.Duration, e2e bool) ([]odyssey.BatchResult, []time.Duration) {
	n := len(w.Queries)
	out := make(chan odyssey.BatchResult, n)
	results, lat, sched := make([]odyssey.BatchResult, n), make([]time.Duration, n), make([]time.Time, n)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range out {
			results[r.Index], lat[r.Index] = r, r.Wall
			if e2e {
				lat[r.Index] = time.Since(sched[r.Index])
			}
		}
	}()
	next := time.Now()
	for i, q := range w.Queries {
		sched[i] = time.Now()
		if unit > 0 {
			g := 1.0
			if w.Gaps != nil {
				g = w.Gaps[i]
			}
			next = next.Add(time.Duration(g * float64(unit)))
			time.Sleep(time.Until(next))
			sched[i] = next
		}
		if err := srv.Submit(i, q, out); err != nil {
			out <- odyssey.BatchResult{Index: i, Query: q, Err: err}
		}
	}
	srv.Close()
	close(out)
	<-collected
	return results, lat
}

// server is the query function both serving stacks satisfy. Close returns
// once every submitted query has been delivered.
type server interface {
	Submit(index int, q odyssey.Query, out chan<- odyssey.BatchResult) error
	Close()
}

// routerPool serves a Router from a fixed number of one-query clients.
type routerPool struct {
	r     *cluster.Router
	slots chan struct{}
	wg    sync.WaitGroup
}

func (p *routerPool) Submit(i int, q odyssey.Query, out chan<- odyssey.BatchResult) error {
	submitted := time.Now()
	p.slots <- struct{}{}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t0 := time.Now()
		objs, err := p.r.Query(q.Range, q.Datasets)
		out <- odyssey.BatchResult{Index: i, Query: q, Objects: objs, Err: err, Wait: t0.Sub(submitted), Wall: time.Since(t0)}
		<-p.slots
	}()
	return nil
}

func (p *routerPool) Close() { p.wg.Wait() }

// target is what an arm serves through: one Explorer or a cluster Router.
type target interface {
	AddDataset(id odyssey.DatasetID, objs []odyssey.Object) error
	Query(q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error)
	Quiesce(ctx context.Context) error
	SetRealTimeScale(scale float64)
	Close() error
	serve(workers int, adm odyssey.AdmissionConfig) server
	moves() int // refinements + merges + evictions, the convergence signal
	reset()     // zero the simulated clock and device counters
	clock() time.Duration
	snapshot(c counters)
	close(c counters) error // shut down, adding what is exact only afterwards
}

type explorerTarget struct{ *odyssey.Explorer }

func (t explorerTarget) serve(workers int, adm odyssey.AdmissionConfig) server {
	return odyssey.NewDispatcherWithAdmission(t.Explorer, workers, adm)
}

func (t explorerTarget) moves() int {
	m := t.Metrics()
	return m.Refinements + m.PartitionsMerged + m.MergeEvictions
}

func (t explorerTarget) reset()               { t.ResetClock(); t.ResetStats() }
func (t explorerTarget) clock() time.Duration { return t.Clock() }

func (t explorerTarget) snapshot(c counters) {
	c.record("disk", t.DiskStats())
	for d, chans := range t.ChannelStats() {
		for _, ch := range chans {
			c.record(fmt.Sprintf("device%d.channel%d", d, ch.Channel), ch, "Channel")
		}
	}
	c.record("metrics", t.Metrics(), "CurrentMergeThresh")
	c.set("metrics.merge_files", float64(t.MergeFileCount()))
	c.set("maintenance_budget", t.MaintenanceBudget())
	c.record("sharing", t.SharingStats())
	c.record("cache", t.CacheStats(), "Entries", "CachedObjects", "Capacity")
	c.record("maint", t.MaintenanceStats(), "QueueDepth", "QueueDepthHighWater")
	c.record("brownout", t.BrownoutStats())
}

func (t explorerTarget) close(counters) error {
	if err := t.MaintenanceErr(); err != nil {
		return fmt.Errorf("maintenance task failed: %w", err)
	}
	return t.Close()
}

type routerTarget struct {
	*cluster.Router
	cacheHit time.Duration // device charge per buffer-cache hit
}

func (t routerTarget) serve(workers int, _ odyssey.AdmissionConfig) server {
	return &routerPool{r: t.Router, slots: make(chan struct{}, workers)}
}

func (t routerTarget) moves() (n int) {
	for _, m := range t.ShardMetrics() {
		n += m.Refinements + m.PartitionsMerged + m.MergeEvictions
	}
	return n
}

// A Router is never reset: the charge audit compares lifetime query charges
// with lifetime device time. It has no single simulated clock.
func (t routerTarget) reset()               {}
func (t routerTarget) clock() time.Duration { return 0 }

func (t routerTarget) snapshot(c counters) {
	for _, ds := range t.ShardDiskStats() {
		c.record("disk", ds)
	}
	c.record("router", t.Stats())
	c.set("router.shards_reporting_health", float64(len(t.Health())))
}

// close audits the charge ledger once Close has drained hedge losers: time
// charged to queries plus time wasted on cancelled legs equals device time.
func (t routerTarget) close(c counters) error {
	if err := t.Close(); err != nil {
		return err
	}
	var ledger time.Duration
	for si, dev := range t.ShardChannelStats() {
		for _, chans := range dev {
			for _, ch := range chans {
				ledger += ch.Busy
			}
		}
		ds := t.ShardDiskStats()[si]
		ledger += time.Duration(ds.CacheHits)*t.cacheHit + ds.QueuedDelay
	}
	st := t.Stats()
	c.set("router.device_ledger_seconds", ledger.Seconds())
	c.set("router.charge_imbalance_ns", float64(st.ChargedSim+st.WastedSim-ledger))
	return nil
}

// counters collects an arm's stats: deltas are reported as after minus
// before the replay, levels as read at the end.
type counters struct{ delta, level map[string]float64 }

func newCounters() counters { return counters{map[string]float64{}, map[string]float64{}} }

func (c counters) set(k string, v float64) { c.level[k] = v }

// record adds a stats struct's integer fields as prefix.snake_name, durations
// as seconds. Fields named in levels are levels; the rest sum into deltas.
func (c counters) record(prefix string, stats any, levels ...string) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if !f.CanInt() {
			continue
		}
		x, key := float64(f.Int()), prefix+"."+snake(name)
		if f.Type() == reflect.TypeOf(time.Duration(0)) {
			x, key = time.Duration(f.Int()).Seconds(), key+"_seconds"
		}
		if slices.Contains(levels, name) {
			c.level[key] = x
		} else {
			c.delta[key] += x
		}
	}
}

// snake converts a Go field name to snake_case.
func snake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) && i > 0 {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// fingerprint hashes a result multiset order-independently: per object an
// FNV-1a hash of its identity and geometry, combined by addition.
func fingerprint(objs []odyssey.Object) uint64 {
	var sum uint64
	for _, o := range objs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%v/%v", o.Dataset, o.ID, o.Center, o.HalfExtent)
		sum += h.Sum64()
	}
	return sum
}

// sameResults reports whether every query served in got was served by the
// reference arm with the same answer.
func sameResults(ref, got map[int]uint64) bool {
	for i, fp := range got {
		if want, ok := ref[i]; !ok || want != fp {
			return false
		}
	}
	return true
}

func firstErr(res []odyssey.BatchResult) (err error) {
	for _, r := range res {
		err = cmp.Or(err, r.Err)
	}
	return err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
