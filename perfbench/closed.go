package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// session is one engine under measurement: the public Explorer, or the same
// engine assembled on a probed device for a traced run.
type session interface {
	query(ctx context.Context, q workload.Query) ([]object.Object, time.Duration, error)
	engine() *core.Odyssey
	disk() simdisk.Stats
	clock() time.Duration
	// reset zeroes the simulated clock and the device counters.
	reset()
	rawPages() int64
	close() error
}

type explorerSession struct {
	ex  *odyssey.Explorer
	raw int64
}

func newExplorerSession(opts odyssey.Options, data [][]object.Object) (*explorerSession, error) {
	if opts.RealTimeScale != 0 {
		return nil, errors.New("benchmark runs keep RealTimeScale at 0")
	}
	ex, err := odyssey.NewExplorer(opts)
	if err != nil {
		return nil, err
	}
	s := &explorerSession{ex: ex}
	for i, objs := range data {
		if err := ex.AddDataset(odyssey.DatasetID(i), objs); err != nil {
			ex.Close()
			return nil, err
		}
		info, err := ex.Dataset(odyssey.DatasetID(i))
		if err != nil {
			ex.Close()
			return nil, err
		}
		s.raw += info.RawPages
	}
	return s, nil
}

func (s *explorerSession) query(ctx context.Context, q workload.Query) ([]object.Object, time.Duration, error) {
	return s.ex.QueryTimedCtx(ctx, q.Range, q.Datasets)
}
func (s *explorerSession) engine() *core.Odyssey { return s.ex.Engine() }
func (s *explorerSession) disk() simdisk.Stats   { return s.ex.DiskStats() }
func (s *explorerSession) clock() time.Duration  { return s.ex.Clock() }
func (s *explorerSession) reset()                { s.ex.ResetClock(); s.ex.ResetStats() }
func (s *explorerSession) rawPages() int64       { return s.raw }
func (s *explorerSession) close() error          { return s.ex.Close() }

// coreSession assembles the engine the way a zero-Options Explorer does,
// but on a caller-supplied device (the probe), which the Explorer cannot
// take.
type coreSession struct {
	dev  simdisk.Storage
	eng  *core.Odyssey
	raws []*rawfile.Raw
}

func newCoreSession(dev simdisk.Storage, data [][]object.Object) (*coreSession, error) {
	if dev.RealTimeScale() != 0 {
		return nil, errors.New("benchmark runs keep RealTimeScale at 0")
	}
	eng, err := core.New(dev, nil, geom.UnitBox(), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &coreSession{dev: dev, eng: eng}
	for i, objs := range data {
		raw, err := rawfile.Write(dev, fmt.Sprintf("ds%d.raw", i), object.DatasetID(i), objs)
		if err != nil {
			return nil, err
		}
		if err := eng.AddRaw(raw); err != nil {
			return nil, err
		}
		s.raws = append(s.raws, raw)
		// As Explorer.AddDataset: the data pre-exists the session.
		if err := eng.Quiesce(nil); err != nil {
			return nil, err
		}
		dev.ResetClock()
		dev.ResetStats()
		dev.DropCaches()
	}
	return s, nil
}

func (s *coreSession) query(ctx context.Context, q workload.Query) ([]object.Object, time.Duration, error) {
	ctx, scope := simdisk.WithOpScope(ctx, simdisk.PriForeground)
	objs, err := s.eng.QueryCtx(ctx, q.Range, q.Datasets)
	return objs, scope.Total(), err
}
func (s *coreSession) engine() *core.Odyssey { return s.eng }
func (s *coreSession) disk() simdisk.Stats   { return s.dev.Stats() }
func (s *coreSession) clock() time.Duration  { return s.dev.Clock() }
func (s *coreSession) reset()                { s.dev.ResetClock(); s.dev.ResetStats() }
func (s *coreSession) close() error          { s.eng.Close(); return s.dev.Close() }
func (s *coreSession) rawPages() int64 {
	var n int64
	for _, r := range s.raws {
		n += r.NumPages()
	}
	return n
}

// trees returns the session's octrees by dataset.
func trees(s session, datasets int) map[object.DatasetID]*octree.Tree {
	m := make(map[object.DatasetID]*octree.Tree, datasets)
	for ds := range datasets {
		m[object.DatasetID(ds)] = s.engine().Tree(object.DatasetID(ds))
	}
	return m
}

// spaceAmp is the simulated pages stored (raw, tree and merge files) over
// the raw pages.
func spaceAmp(s session, datasets int) (float64, error) {
	stored := s.rawPages() + s.engine().MergeSpacePages()
	for _, t := range trees(s, datasets) {
		if t == nil || !t.Built() {
			continue
		}
		n, err := t.File().NumPages()
		if err != nil {
			return 0, err
		}
		stored += n
	}
	return ratio(float64(stored), float64(s.rawPages())), nil
}

// pass is the measurement of one timed pass of a closed-loop client over a
// query list.
type pass struct {
	wallUS, simMS  []float64
	sim            time.Duration // simulated clock after the pass
	use            spent
	heapPeak       uint64
	failed         int
	firstErr       error
	results        int
	m0, m1         core.Metrics
	disk           simdisk.Stats
	built0, built1 map[object.DatasetID]bool
}

// runPass sends the queries one after another, from a reset clock, and
// checks each answer against the oracle. With rec set, each query runs in
// a core span the probe's device spans attach to.
func runPass(s session, queries []workload.Query, want []digest, datasets int, rec *recorder) pass {
	ctx := context.Background()
	s.reset()
	p := pass{m0: s.engine().Metrics(), built0: builtSet(s, datasets)}
	p.wallUS = make([]float64, 0, len(queries))
	p.simMS = make([]float64, 0, len(queries))
	heap := startHeapSampler()
	u0 := snapshot()
	for i, q := range queries {
		var leave func()
		if rec != nil {
			leave = rec.enter("core.Query", i)
		}
		t0 := time.Now()
		objs, sim, err := s.query(ctx, q)
		wall := time.Since(t0)
		if leave != nil {
			leave()
		}
		p.wallUS = append(p.wallUS, us(wall))
		p.simMS = append(p.simMS, ms(sim))
		if err == nil && digestOf(objs) != want[i] {
			err = fmt.Errorf("query %d: %d objects, oracle %d (or same count, different objects)", i, len(objs), want[i].n)
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		p.results += len(objs)
	}
	p.use = since(u0)
	p.heapPeak = heap.peak()
	p.sim = s.clock()
	p.m1 = s.engine().Metrics()
	p.disk = s.disk()
	p.built1 = builtSet(s, datasets)
	return p
}

func builtSet(s session, datasets int) map[object.DatasetID]bool {
	m := make(map[object.DatasetID]bool)
	for ds, t := range trees(s, datasets) {
		if t != nil && t.Built() {
			m[ds] = true
		}
	}
	return m
}

// converge replays the queries until a pass neither refines nor merges.
func converge(s session, queries []workload.Query, maxPasses int) error {
	for range maxPasses {
		m0 := s.engine().Metrics()
		for i, q := range queries {
			if _, _, err := s.query(context.Background(), q); err != nil {
				return fmt.Errorf("converge query %d: %w", i, err)
			}
		}
		if err := s.engine().Quiesce(context.Background()); err != nil {
			return err
		}
		if layoutStill(m0, s.engine().Metrics()) {
			return nil
		}
	}
	return fmt.Errorf("layout still changing after %d passes", maxPasses)
}

// layoutStill reports whether nothing was built, refined, merged or evicted
// between two snapshots.
func layoutStill(a, b core.Metrics) bool {
	return a.TreesBuilt == b.TreesBuilt && a.Refinements == b.Refinements &&
		a.PartitionsMerged == b.PartitionsMerged && a.MergeFilesCreated == b.MergeFilesCreated &&
		a.MergeEvictions == b.MergeEvictions
}

// closedWorkload is cold-adapt or steady-read: one closed-loop client on a
// zero-Options engine.
type closedWorkload struct {
	steady bool
}

// rep is one set-up followed by its timed passes.
type rep struct {
	setup  time.Duration
	passes []pass
	space  float64
	// replay and scanned are filled for a traced rep.
	replay  replayed
	scanned int64
}

// runRep sets one engine up (data generation, AddDataset and, for
// steady-read, convergence) and runs timed passes on it until budget is
// spent (at least one). mk builds the engine; rec, when set, traces the
// passes and then replays the layers.
func (w closedWorkload) runRep(sc scale, queries []workload.Query, want []digest, budget time.Duration,
	mk func([][]object.Object) (session, error), rec *recorder) (rep, error) {
	var r rep
	runtime.GC() // start every rep from a collected heap, not the last rep's garbage
	t0 := time.Now()
	s, err := mk(genData(sc))
	if err != nil {
		return r, err
	}
	defer s.close()
	if w.steady {
		if err := converge(s, queries, 10); err != nil {
			return r, err
		}
	}
	r.setup = time.Since(t0)
	if !w.steady && s.engine().Metrics().TreesBuilt != 0 {
		return r, errors.New("self-check: cold-adapt must start with zero trees built")
	}
	start := time.Now()
	for len(r.passes) == 0 || time.Since(start) < budget {
		p := runPass(s, queries, want, sc.datasets, rec)
		if w.steady && !layoutStill(p.m0, p.m1) {
			return r, errors.New("self-check: steady-read timed pass refined, merged or built")
		}
		r.passes = append(r.passes, p)
		if !w.steady {
			break // a session runs once from the first touch
		}
	}
	if r.space, err = spaceAmp(s, sc.datasets); err != nil {
		return r, err
	}
	if rec != nil {
		var scanned []*rawfile.Raw
		last := r.passes[len(r.passes)-1]
		if cs, ok := s.(*coreSession); ok {
			for ds, raw := range cs.raws {
				if last.built1[object.DatasetID(ds)] && !r.passes[0].built0[object.DatasetID(ds)] {
					scanned = append(scanned, raw)
					r.scanned += raw.NumPages()
				}
			}
		}
		if r.replay, err = replay(rec, trees(s, sc.datasets), queries, want, scanned); err != nil {
			return r, err
		}
	}
	return r, nil
}

// inputs are one session's queries and their oracle answers.
type inputs struct {
	queries []workload.Query
	want    []digest
}

func sessionInputs(sc scale) (inputs, error) {
	data := genData(sc)
	queries, err := sessionQueries(sc, data)
	if err != nil {
		return inputs{}, err
	}
	want, err := oracle(data, queries)
	return inputs{queries, want}, err
}

// run measures the workload: repsPerRun untraced reps (Explorer), each on a
// session of its own, for the end-to-end metrics; or, traced, one pass of an
// untraced rep (the engine on the bare device) and one of a traced rep (the
// same engine on the probe) on the same session, for the per-layer metrics
// and the tracing overhead. Both traced-run engines are assembled alike, so
// the overhead is the probe's and the recorder's alone.
func (w closedWorkload) run(sc scale, seconds time.Duration, traced bool, spansPath string) (*report, error) {
	explorer := func(d [][]object.Object) (session, error) { return newExplorerSession(odyssey.Options{}, d) }
	if !traced {
		var reps []rep
		for j := range repsPerRun {
			in, err := sessionInputs(sc.rep(j))
			if err != nil {
				return nil, err
			}
			r, err := w.runRep(sc, in.queries, in.want, seconds/repsPerRun, explorer, nil)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
		return w.endToEnd(reps), nil
	}

	in, err := sessionInputs(sc.rep(0))
	if err != nil {
		return nil, err
	}
	// One pass each, so that the spans cover exactly the pass they are
	// compared with.
	bare := func(d [][]object.Object) (session, error) {
		return newCoreSession(simdisk.NewDevice(simdisk.DefaultCostModel(), 1024), d)
	}
	plain, err := w.runRep(sc, in.queries, in.want, 0, bare, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	probed := func(d [][]object.Object) (session, error) {
		return newCoreSession(&probe{Storage: simdisk.NewDevice(simdisk.DefaultCostModel(), 1024), rec: rec}, d)
	}
	tr, err := w.runRep(sc, in.queries, in.want, 0, probed, rec)
	if err != nil {
		return nil, err
	}
	rep := w.perLayer(sc, plain, tr, rec)
	if err := rec.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

func allPasses(reps []rep) []pass {
	var ps []pass
	for _, r := range reps {
		ps = append(ps, r.passes...)
	}
	return ps
}

// totals pools the passes: attempted, failed, first error, and the
// resources spent.
func totals(ps []pass) (n, failed int, firstErr error, use spent) {
	for _, p := range ps {
		n += len(p.wallUS)
		failed += p.failed
		if firstErr == nil {
			firstErr = p.firstErr
		}
		use.add(p.use)
	}
	return n, failed, firstErr, use
}

// endToEnd reports the reps. Wall-clock metrics pool every pass; the
// simulated time takes each rep's first pass, so that it does not depend on
// how many passes fitted in the time.
func (w closedWorkload) endToEnd(reps []rep) *report {
	n, failed, firstErr, use := totals(allPasses(reps))
	rep := newReport(n, failed, firstErr)
	var wall, setups, peaks []float64
	var simTotal, passWall time.Duration
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		simTotal += r.passes[0].sim
		for _, p := range r.passes {
			wall = append(wall, p.wallUS...)
			peaks = append(peaks, float64(p.heapPeak)/(1<<20))
			passWall += p.use.wall
			if p.sim != r.passes[0].sim {
				rep.fail(fmt.Errorf("self-check: simulated time differs between passes (%v vs %v)", p.sim, r.passes[0].sim))
			}
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("sim_total_s", simTotal.Seconds()/float64(len(reps)))
	rep.set("wall_p50_us", pct(wall, 50))
	rep.set("qps", float64(n)/passWall.Seconds())
	rep.set("cpu_us_per_query", us(use.cpu)/float64(n))
	rep.set("allocs_per_query", float64(use.mallocs)/float64(n))
	rep.set("alloc_bytes_per_query", float64(use.bytes)/float64(n))
	rep.set("heap_peak_mb", median(peaks))
	var space float64
	for _, r := range reps {
		space += r.space
	}
	rep.set("space_amp", space/float64(len(reps)))
	return rep
}

// perLayer derives the per-layer metrics: counters from the untraced rep,
// spans and the replay from the traced one, which must have charged the
// simulated device exactly as the untraced one did.
func (w closedWorkload) perLayer(sc scale, plain, tr rep, rec *recorder) *report {
	p, t := plain.passes[0], tr.passes[0]
	n, failed, firstErr, _ := totals([]pass{p, t})
	rep := newReport(n, failed, firstErr)
	if p.sim != t.sim || p.disk != t.disk {
		rep.fail(fmt.Errorf("self-check: probed engine diverged from the bare device: sim %v vs %v, disk %+v vs %+v",
			t.sim, p.sim, t.disk, p.disk))
	}
	q := float64(len(p.wallUS))
	rep.set("sim_p50_ms", pct(p.simMS, 50))
	rep.set("sim_p99_ms", pct(p.simMS, 99))
	rep.set("wall_p99_us", pct(p.wallUS, 99))
	rep.set("failed_frac", float64(failed)/float64(n))
	rep.absent("dispatcher.queue_wait_p50_us", "dispatcher.queue_wait_p99_us",
		"dispatcher.batch_window_us", "dispatcher.queries_per_batch", "dispatcher.worker_busy_frac",
		"dispatcher.rejected", "dispatcher.self_us_per_query")

	// core: self time is the core span minus its device spans.
	coreSelf, _ := rec.selfTime("core.Query")
	rep.set("core.self_us_per_query", us(coreSelf)/float64(len(t.wallUS)))
	engineCounts(rep, p, q)
	rep.absent("core.cache_hit_frac", "core.zero_read_frac", "core.cache_evictions",
		"core.cache_invalidations", "core.scans_attached", "core.maint_completed",
		"core.maint_coalesced", "core.maint_queue_high_water")

	// octree, pagefile, rawfile: the replay after the traced pass.
	r := tr.replay
	rq := float64(r.queries)
	lookup, _ := rec.selfTime("octree.Lookup")
	readPart, _ := rec.selfTime("octree.ReadPartitionCtx")
	readRuns, _ := rec.selfTime("pagefile.ReadRunsIntoCtx")
	scanSelf, _ := rec.selfTime("rawfile.ScanCtx")
	rep.set("octree.leaves_per_query", float64(r.leaves)/rq)
	rep.set("octree.lookup_us_per_query", us(lookup)/rq)
	rep.set("octree.leaf_read_self_us", us(readPart-readRuns)/rq)
	rep.set("rawfile.scan_pages", float64(tr.scanned))
	rep.set("rawfile.scan_self_us", us(scanSelf)/float64(len(t.wallUS)))
	rep.set("pagefile.read_runs_self_us", us(readRuns)/rq)
	rep.set("pagefile.decode_ns_per_page", ratio(float64(r.decode), float64(r.pages)))
	rep.set("pagefile.objects_decoded_per_result", ratio(float64(r.objects), float64(r.results)))
	rep.set("pagefile.allocs_per_leaf_read", r.leafAllocs)

	// simdisk: counters, plus the probe's spans under core spans.
	diskCounts(rep, p.disk, q, sc)
	calls, devTime, bytes := rec.deviceCalls("core.Query")
	rep.set("simdisk.self_us_per_query", us(devTime)/float64(len(t.wallUS)))
	rep.set("simdisk.calls_per_query", float64(calls)/float64(len(t.wallUS)))
	rep.set("simdisk.bytes_returned_per_query", float64(bytes)/float64(len(t.wallUS)))

	goRuntime(rep, p.use, q)
	rep.set("trace.overhead_wall_p50_us", pct(t.wallUS, 50)-pct(p.wallUS, 50))
	rep.set("trace.overhead_cpu_us_per_query", us(t.use.cpu)/float64(len(t.wallUS))-us(p.use.cpu)/q)
	return rep
}

// engineCounts reports the core and octree counters of a pass.
func engineCounts(rep *report, p pass, q float64) {
	d := func(a, b int) float64 { return float64(b - a) }
	parts := d(p.m0.PartitionsFromTree+p.m0.PartitionsFromMerge, p.m1.PartitionsFromTree+p.m1.PartitionsFromMerge)
	rep.set("core.partitions_per_query", parts/q)
	rep.set("core.merge_served_frac", ratio(d(p.m0.PartitionsFromMerge, p.m1.PartitionsFromMerge), parts))
	rep.set("core.results_per_query", float64(p.results)/q)
	ph0, ph1 := p.m0.Phases, p.m1.Phases
	rep.set("core.phase.level0_build_s", (ph1.LevelZeroBuild - ph0.LevelZeroBuild).Seconds())
	rep.set("core.phase.refine_s", (ph1.Refinement - ph0.Refinement).Seconds())
	rep.set("core.phase.merge_write_s", (ph1.MergeWrites - ph0.MergeWrites).Seconds())
	rep.set("core.phase.tree_read_s", (ph1.TreeReads - ph0.TreeReads).Seconds())
	rep.set("core.phase.merge_read_s", (ph1.MergeReads - ph0.MergeReads).Seconds())
	rep.set("core.merge_files", float64(p.m1.MergeFilesCreated-p.m1.MergeEvictions))
	rep.set("core.partitions_merged", d(p.m0.PartitionsMerged, p.m1.PartitionsMerged))
	rep.set("octree.refinements", d(p.m0.Refinements, p.m1.Refinements))
	rep.set("octree.trees_built", d(p.m0.TreesBuilt, p.m1.TreesBuilt))
}

// diskCounts reports the simulated device's counters over a phase.
func diskCounts(rep *report, s simdisk.Stats, q float64, sc scale) {
	rawBytes := float64(object.PagesFor(sc.objects)*simdisk.PageSize) * float64(sc.datasets)
	rep.set("simdisk.pages_read_per_query", float64(s.PageReads)/q)
	rep.set("simdisk.cache_hit_frac", ratio(float64(s.CacheHits), float64(s.CacheHits+s.PageReads)))
	rep.set("simdisk.seeks_per_query", float64(s.Seeks)/q)
	rep.set("simdisk.seq_frac", ratio(float64(s.SeqPages), float64(s.SeqPages+s.Seeks)))
	rep.set("simdisk.write_amp", float64(s.BytesWritten)/rawBytes)
	rep.set("simdisk.queued_delay_s", s.QueuedDelay.Seconds())
	rep.set("simdisk.coalesced_pages", float64(s.CoalescedPages))
	rep.set("simdisk.retried_ops", float64(s.RetriedOps))
	rep.set("simdisk.canceled_ops", float64(s.CanceledOps))
}

// goRuntime reports the Go runtime's share of a phase.
func goRuntime(rep *report, u spent, q float64) {
	rep.set("go.gc_cycles_per_1k_queries", float64(u.gcCycles)*1000/q)
	rep.set("go.gc_cpu_frac", ratio(u.gcCPU, u.allCPU))
}
