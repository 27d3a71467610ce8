package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// serveWorkers is the dispatcher's pool: one worker per CPU of the
// two-CPU machine the benchmark was calibrated on.
const serveWorkers = 2

// serveOptions is the adaptive serving arm of the scenario lab: result
// cache with adaptive sizing, scan sharing, background maintenance and heat
// decay, with the buffer cache dropped before every query as the lab does,
// so a result-cache miss pays platter reads.
func serveOptions() odyssey.Options {
	return odyssey.Options{
		CacheResults: true, AdaptiveCache: true, ShareScans: true,
		AsyncMaintenance: true, HeatHalfLife: 64, DropCachesPerQuery: true,
	}
}

// serveAdmission is the scenario lab's adaptive 2 ms batch window.
func serveAdmission() odyssey.AdmissionConfig {
	return odyssey.AdmissionConfig{
		BatchWindow: 2 * time.Millisecond, AdaptiveBatch: true,
		MinBatchWindow: 250 * time.Microsecond, MaxBatchWindow: 8 * time.Millisecond,
	}
}

// servePhase is one set-up and timed phase of serve-hot.
type servePhase struct {
	setup                time.Duration
	latUS, simMS, waitUS []float64
	sent, failed         int
	firstErr             error
	results              int
	use                  spent
	heapPeak             uint64
	sim                  time.Duration
	space                float64
	m0, m1               core.Metrics
	c0, c1               odyssey.CacheStats
	sh0, sh1             odyssey.SharingStats
	mt0, mt1             odyssey.MaintenanceStats
	disk                 simdisk.Stats
	adm                  odyssey.AdmissionStats
	busy                 time.Duration
}

// serveWorkload is serve-hot: the zipf hot set sent through the dispatcher
// by serveClients closed-loop clients.
type serveWorkload struct{}

// serveClients is how many clients serve-hot runs: one per worker. More
// clients keep the stage deep enough that the adaptive window grows to its
// maximum, and the flush timer, not the engine, then sets the latency.
const serveClients = serveWorkers

// serveQPS is serve-hot's throughput measured on the calibration machine; it
// sizes a phase to last about its share of --seconds.
const serveQPS = 1750

// runPhase sets an Explorer up (data, AddDataset, convergence, Quiesce),
// flushes its result cache and has the clients send the hot stream through
// the dispatcher, each waiting for its answer before taking the next query.
func (w serveWorkload) runPhase(sc scale, hot []workload.Query, want []digest, rec *recorder) (servePhase, error) {
	var p servePhase
	runtime.GC() // start every phase from a collected heap
	t0 := time.Now()
	s, err := newExplorerSession(serveOptions(), genData(sc))
	if err != nil {
		return p, err
	}
	defer s.close()
	if err := converge(s, hot, 10); err != nil {
		return p, err
	}
	p.setup = time.Since(t0)

	ex := s.ex
	ex.FlushResultCache()
	s.reset()
	p.m0, p.c0, p.sh0, p.mt0 = ex.Metrics(), ex.CacheStats(), ex.SharingStats(), ex.MaintenanceStats()

	d := odyssey.NewDispatcherWithAdmission(ex, serveWorkers, serveAdmission())
	var mu sync.Mutex // guards p while the clients run
	var next atomic.Int64
	var wg sync.WaitGroup
	heap := startHeapSampler()
	u0 := snapshot()
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make(chan odyssey.BatchResult, 1)
			for i := int(next.Add(1) - 1); i < len(hot); i = int(next.Add(1) - 1) {
				ctx, scope := simdisk.WithOpScope(context.Background(), simdisk.PriForeground)
				sent := time.Now()
				err := d.SubmitCtx(ctx, i, hot[i], out)
				var r odyssey.BatchResult
				if err == nil {
					r = <-out
					err = r.Err
				}
				done := time.Now()
				if err == nil && digestOf(r.Objects) != want[i] {
					err = fmt.Errorf("query %d: %d objects, oracle %d (or same count, different objects)", i, len(r.Objects), want[i].n)
				}
				mu.Lock()
				p.sent++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
				p.results += len(r.Objects)
				p.latUS = append(p.latUS, us(done.Sub(sent)))
				p.simMS = append(p.simMS, ms(scope.Total()))
				p.waitUS = append(p.waitUS, us(r.Wait))
				mu.Unlock()
				if rec != nil {
					id := rec.add("dispatcher.SubmitCtx", 0, i, sent, done)
					pickup := sent.Add(r.Wait)
					rec.add("core.Query", id, i, pickup, pickup.Add(r.Wall))
				}
			}
		}()
	}
	wg.Wait()
	d.Close()
	p.use = since(u0)
	p.heapPeak = heap.peak()
	if err := ex.Quiesce(context.Background()); err != nil {
		return p, err
	}
	p.sim = ex.Clock()
	p.disk = ex.DiskStats()
	p.m1, p.c1, p.sh1, p.mt1 = ex.Metrics(), ex.CacheStats(), ex.SharingStats(), ex.MaintenanceStats()
	p.adm = d.AdmissionStats()
	if top := serveAdmission().MaxBatchWindow; p.adm.BatchWindow >= top {
		return p, fmt.Errorf("self-check: the batch window ended at its %v maximum, so the flush timer sets the latency", top)
	}
	for _, ws := range d.WorkerStats() {
		p.busy += ws.Busy
	}
	if p.space, err = spaceAmp(s, sc.datasets); err != nil {
		return p, err
	}
	return p, nil
}

// run measures serve-hot: repsPerRun untraced phases, each on a hot stream of
// its own, for the end-to-end metrics; or one untraced and one traced phase
// of the same stream for the per-layer ones.
func (w serveWorkload) run(sc scale, seconds time.Duration, traced bool, spansPath string) (*report, error) {
	phases := repsPerRun
	if traced {
		phases = 2
	}
	n := max(int(serveQPS*seconds.Seconds()/float64(phases)), serveClients)
	var ps []servePhase
	var rec *recorder
	var hot []workload.Query
	var want []digest
	for j := range phases {
		if traced && j == 1 {
			rec = newRecorder() // the traced phase replays the untraced one's stream
		} else {
			var err error
			if hot, err = hotQueries(sc.rep(j), n); err != nil {
				return nil, err
			}
			if want, err = oracle(genData(sc), hot); err != nil {
				return nil, err
			}
		}
		p, err := w.runPhase(sc, hot, want, rec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	if !traced {
		return serveEndToEnd(ps), nil
	}
	rep := servePerLayer(sc, ps[0], ps[1], rec)
	if err := rec.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// serveEndToEnd reports the phases: latency pooled, simulated time and
// space averaged, setup time and heap peak as medians.
func serveEndToEnd(ps []servePhase) *report {
	var lat, setups, peaks []float64
	var n, failed int
	var firstErr error
	var use spent
	var sim time.Duration
	var space float64
	for _, p := range ps {
		lat = append(lat, p.latUS...)
		setups = append(setups, p.setup.Seconds())
		peaks = append(peaks, float64(p.heapPeak)/(1<<20))
		n += p.sent
		failed += p.failed
		if firstErr == nil {
			firstErr = p.firstErr
		}
		use.add(p.use)
		sim += p.sim
		space += p.space
	}
	rep := newReport(n, failed, firstErr)
	rep.set("setup_s", median(setups))
	rep.set("sim_total_s", sim.Seconds()/float64(len(ps)))
	rep.set("wall_p50_us", pct(lat, 50))
	rep.set("qps", float64(n)/use.wall.Seconds())
	rep.set("cpu_us_per_query", us(use.cpu)/float64(n))
	rep.set("allocs_per_query", float64(use.mallocs)/float64(n))
	rep.set("alloc_bytes_per_query", float64(use.bytes)/float64(n))
	rep.set("heap_peak_mb", median(peaks))
	rep.set("space_amp", space/float64(len(ps)))
	return rep
}

func servePerLayer(sc scale, p, t servePhase, rec *recorder) *report {
	n := p.sent + t.sent
	failed := p.failed + t.failed
	firstErr := p.firstErr
	if firstErr == nil {
		firstErr = t.firstErr
	}
	rep := newReport(n, failed, firstErr)
	q := float64(p.sent)
	rep.set("sim_p50_ms", pct(p.simMS, 50))
	rep.set("sim_p99_ms", pct(p.simMS, 99))
	rep.set("wall_p99_us", pct(p.latUS, 99))
	rep.set("failed_frac", float64(failed)/float64(n))

	rep.set("dispatcher.queue_wait_p50_us", pct(p.waitUS, 50))
	rep.set("dispatcher.queue_wait_p99_us", pct(p.waitUS, 99))
	rep.set("dispatcher.batch_window_us", us(p.adm.BatchWindow))
	rep.set("dispatcher.queries_per_batch", ratio(float64(p.adm.BatchedQueries), float64(p.adm.Batches)))
	rep.set("dispatcher.worker_busy_frac", ratio(float64(p.busy), float64(serveWorkers)*float64(p.use.wall)))
	rep.set("dispatcher.rejected", float64(p.adm.Rejected))
	dispSelf, spans := rec.selfTime("dispatcher.SubmitCtx")
	rep.set("dispatcher.self_us_per_query", us(dispSelf)/float64(spans))

	// The dispatcher serves an Explorer, whose device a probe cannot wrap, so
	// core's span cannot be split from the device's.
	rep.absent("core.self_us_per_query")
	engineCounts(rep, pass{m0: p.m0, m1: p.m1, results: p.results}, q)
	hits0, hits1 := p.c0.Hits+p.c0.ContainmentHits, p.c1.Hits+p.c1.ContainmentHits
	rep.set("core.cache_hit_frac", ratio(float64(hits1-hits0), float64(hits1-hits0+p.c1.Misses-p.c0.Misses)))
	rep.set("core.zero_read_frac", float64(p.c1.ZeroReadQueries-p.c0.ZeroReadQueries)/q)
	rep.set("core.cache_evictions", float64(p.c1.Evictions-p.c0.Evictions))
	rep.set("core.cache_invalidations", float64(p.c1.Invalidations-p.c0.Invalidations))
	rep.set("core.scans_attached", float64(p.sh1.AttachedScans-p.sh0.AttachedScans))
	rep.set("core.maint_completed", float64(p.mt1.Completed-p.mt0.Completed))
	rep.set("core.maint_coalesced", float64(p.mt1.Coalesced-p.mt0.Coalesced))
	rep.set("core.maint_queue_high_water", float64(p.mt1.QueueDepthHighWater))

	// The layer replay and the device spans need a probed engine; serve-hot
	// has none.
	rep.absent("octree.leaves_per_query", "octree.lookup_us_per_query",
		"octree.leaf_read_self_us", "rawfile.scan_pages", "rawfile.scan_self_us",
		"pagefile.read_runs_self_us", "pagefile.decode_ns_per_page",
		"pagefile.objects_decoded_per_result", "pagefile.allocs_per_leaf_read",
		"simdisk.self_us_per_query", "simdisk.calls_per_query", "simdisk.bytes_returned_per_query")
	diskCounts(rep, p.disk, q, sc)
	goRuntime(rep, p.use, q)
	rep.set("trace.overhead_wall_p50_us", pct(t.latUS, 50)-pct(p.latUS, 50))
	rep.set("trace.overhead_cpu_us_per_query", us(t.use.cpu)/float64(t.sent)-us(p.use.cpu)/q)
	return rep
}
