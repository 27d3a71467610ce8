package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// shareConfig returns the default configuration with scan sharing on.
func testKeyAt(level uint8, x, y, z uint32) octree.Key {
	return octree.Key{Level: level, X: x, Y: y, Z: z}
}

func shareConfig() Config {
	cfg := DefaultConfig()
	cfg.ShareScans = true
	return cfg
}

// TestShareScansOracleStorm fires concurrent mixed queries at a sharing
// engine while it builds, refines and merges, checking every result against
// the oracle — shared scans must change I/O, never answers.
func TestShareScansOracleStorm(t *testing.T) {
	eng, raws, _ := testSetup(t, 3, 2500, 17, shareConfig())
	oracle := engine.NewNaiveScan(raws)
	hot := []geom.Box{
		geom.Cube(geom.V(0.4, 0.45, 0.5), 0.08),
		geom.Cube(geom.V(0.55, 0.5, 0.45), 0.06),
	}
	combos := [][]object.DatasetID{{0, 1, 2}, {0, 1}, {2}, {1, 2}}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := hot[(g+i)%len(hot)]
				dss := combos[(g*5+i)%len(combos)]
				got, err := eng.Query(q, dss)
				if err != nil {
					errc <- err
					return
				}
				want, err := oracle.Query(q, dss)
				if err != nil {
					errc <- err
					return
				}
				if !engine.SameObjects(got, want) {
					errc <- errDiverged(g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The hot identical queries must have found sharing opportunities at
	// one layer or another; with a zero-cost instant device attachment is
	// timing-dependent, so only the single-flight build is guaranteed (8
	// goroutines, 3 datasets, exactly 3 builds must have run).
	if m := eng.Metrics(); m.TreesBuilt != 3 {
		t.Fatalf("TreesBuilt = %d, want 3", m.TreesBuilt)
	}
}

type divergedErr struct{ g, i int }

func (e divergedErr) Error() string {
	return "shared-scan query diverged from oracle"
}

func errDiverged(g, i int) error { return divergedErr{g, i} }

// TestShareScansSingleFlightBuild pins the first-touch contract: many
// concurrent queries of one cold dataset trigger exactly one level-0 build,
// and the waiters are counted in SharedBuilds.
func TestShareScansSingleFlightBuild(t *testing.T) {
	eng, _, dev := testSetup(t, 2, 3000, 23, shareConfig())
	// A real cost model makes the build take simulated time; the real-time
	// emulation stretches it into a wall-clock window concurrent queries
	// land in.
	_ = dev
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Query(q, []object.DatasetID{0, 1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := eng.Metrics()
	if m.TreesBuilt != 2 {
		t.Fatalf("TreesBuilt = %d, want 2 (single-flight per dataset)", m.TreesBuilt)
	}
	// Level-0 build time must still be attributed (by the builder).
	if m.Phases.LevelZeroBuild < 0 {
		t.Fatalf("negative build time %v", m.Phases.LevelZeroBuild)
	}
}

// leadScan starts a registry leader for key on its own goroutine and
// returns once its read is in flight. The read blocks until release closes,
// then returns (objs, err); done closes once readThrough has returned to it.
func leadScan(r *scanRegistry, key scanKey, objs []object.Object, err error) (release, done chan struct{}) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		r.readThrough(nil, key, func(context.Context) ([]object.Object, error) {
			close(started)
			<-release
			return objs, err
		})
	}()
	<-started
	return release, done
}

// TestScanRegistryAttachAndInvalidate drives the registry white-box with a
// gated in-flight leader, so every interleaving is deterministic: a
// cross-epoch reader reads independently, a same-epoch reader attaches,
// Invalidate flushes the registration so nobody attaches afterwards, and a
// failed leader's outcome is not inherited.
func TestScanRegistryAttachAndInvalidate(t *testing.T) {
	r := new(scanRegistry)
	key := scanKey{ds: 1, cell: testKeyAt(1, 2, 3, 1), epoch: 5}
	want := []object.Object{{ID: 7, Dataset: 1}}
	release, done := leadScan(r, key, want, nil)

	// A cross-epoch reader must not attach — it reads independently even
	// with the leader in flight.
	ownRead := false
	other := key
	other.epoch = 6
	if _, err := r.readThrough(nil, other, func(context.Context) ([]object.Object, error) {
		ownRead = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ownRead {
		t.Fatal("cross-epoch reader did not perform its own read")
	}

	// A same-epoch reader attaches and gets the leader's objects.
	type out struct {
		objs []object.Object
		err  error
	}
	attached := make(chan out, 1)
	go func() {
		objs, err := r.readThrough(nil, key, func(context.Context) ([]object.Object, error) {
			t.Error("attacher executed its own read despite a matching in-flight scan")
			return nil, nil
		})
		attached <- out{objs, err}
	}()
	time.Sleep(50 * time.Millisecond)

	// Invalidate flushes the registry: the next same-epoch reader performs
	// its own read even though the leader is still in flight.
	r.Invalidate()
	own2 := false
	if _, err := r.readThrough(nil, key, func(context.Context) ([]object.Object, error) {
		own2 = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !own2 {
		t.Fatal("reader attached to an invalidated in-flight scan")
	}
	r.Invalidate() // registry empty: not a flush
	if st := r.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}

	// The invalidated leader still delivers to its attached reader.
	close(release)
	<-done
	got := <-attached
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.objs) != 1 || got.objs[0].ID != want[0].ID {
		t.Fatalf("attached read returned %v, want the leader's objects", got.objs)
	}
	if st := r.Stats(); st.AttachedScans != 1 {
		t.Fatalf("AttachedScans = %d, want 1", st.AttachedScans)
	}

	// A failed leader's outcome is not inherited: its waiter reads again.
	key.epoch = 9
	release, done = leadScan(r, key, nil, context.DeadlineExceeded)
	fellBack := make(chan bool, 1)
	go func() {
		ran := false
		_, err := r.readThrough(nil, key, func(context.Context) ([]object.Object, error) {
			ran = true
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		fellBack <- ran
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-done
	if !<-fellBack {
		t.Fatal("attacher inherited the failed leader's outcome")
	}
}

// TestScanRegistryFailedLeaderSingleRetry is the herd-regression contract:
// when a leader's read fails, its waiters must re-enter the single-flight
// path so exactly one of them is charged the retry read — not one
// independent read per waiter, the thundering herd the registry exists to
// prevent. A doomed leader is held in flight, a herd parks on it, and it
// is failed; the retry leader's read is gated so the rest of the herd
// attaches to it.
func TestScanRegistryFailedLeaderSingleRetry(t *testing.T) {
	r := new(scanRegistry)
	key := scanKey{ds: 2, cell: testKeyAt(1, 1, 1, 0), epoch: 3}
	want := []object.Object{{ID: 42, Dataset: 2}}
	release, doomed := leadScan(r, key, nil, context.DeadlineExceeded)

	var reads atomic.Int64
	gate := make(chan struct{})
	read := func(context.Context) ([]object.Object, error) {
		reads.Add(1)
		<-gate
		return want, nil
	}
	const waiters = 8
	results := make([][]object.Object, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = r.readThrough(nil, key, read)
		}()
	}

	// Fail the leader. Every parked waiter wakes and re-enters; exactly one
	// becomes the retry leader. (A goroutine that never parked on the doomed
	// leader attaches to the retry leader's registration instead — same
	// coalescing, same count.)
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-doomed

	// Hold the retry leader's read open until the rest of the herd has had
	// time to loop back and attach, then release it.
	deadline := time.Now().Add(5 * time.Second)
	for reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no waiter retried the failed leader's read")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	for g := 0; g < waiters; g++ {
		if errs[g] != nil {
			t.Fatalf("waiter %d inherited the dead leader's outcome: %v", g, errs[g])
		}
		if len(results[g]) != 1 || results[g][0].ID != want[0].ID {
			t.Fatalf("waiter %d got %v, want the retry leader's objects", g, results[g])
		}
	}
	if n := reads.Load(); n != 1 {
		t.Fatalf("failed leader triggered %d retry reads, want exactly 1 (thundering herd)", n)
	}
	if st := r.Stats(); st.AttachedScans != waiters-1 {
		t.Fatalf("AttachedScans = %d, want %d (every non-leader attached the retry)",
			st.AttachedScans, waiters-1)
	}
}

// TestMaintenancePriorityHottestFirst pins the scheduler's priority rule:
// with tasks of different access counts queued, pickLocked pops the hottest
// region first, and heat ties break FIFO. The maintainer is constructed
// without workers so the test owns the queue.
func TestMaintenancePriorityHottestFirst(t *testing.T) {
	m := &maintainer{
		refineQ:       make(map[object.DatasetID]*heatHeap[refineTask]),
		refinePending: make(map[object.DatasetID]map[octree.Key]*heatItem[refineTask]),
		activeRefine:  make(map[object.DatasetID]bool),
		mergePending:  make(map[ComboKey]*heatItem[mergeTask]),
		activeMerge:   make(map[ComboKey]bool),
	}
	m.cond = sync.NewCond(&m.mu)

	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.1)
	cold := testKeyAt(1, 0, 0, 0)
	warm := testKeyAt(1, 1, 0, 0)
	hotK := testKeyAt(1, 2, 0, 0)
	members := []object.DatasetID{0}
	m.EnqueueRefine(0, []octree.Key{cold, warm, hotK}, q, 0.001, members)
	// Heat the tasks: warm gets one duplicate demand, hot gets three.
	m.EnqueueRefine(0, []octree.Key{warm}, q, 0.001, members)
	for i := 0; i < 3; i++ {
		m.EnqueueRefine(0, []octree.Key{hotK}, q, 0.001, members)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	pop := func() octree.Key {
		task, ok := m.pickLocked()
		if !ok {
			t.Fatal("queue empty")
		}
		if task.isMerge {
			t.Fatal("merge popped before refinements drained")
		}
		// One writer per dataset: release the claim so the next pop works.
		delete(m.activeRefine, task.ds)
		return task.refine.key
	}
	if k := pop(); k != hotK {
		t.Fatalf("first pop = %v, want the hottest %v", k, hotK)
	}
	if k := pop(); k != warm {
		t.Fatalf("second pop = %v, want %v", k, warm)
	}
	if k := pop(); k != cold {
		t.Fatalf("third pop = %v, want %v", k, cold)
	}

	// Merge heat: two combinations, the second demanded twice — it runs
	// first despite arriving later.
	a := KeyOf([]object.DatasetID{0, 1, 2})
	b := KeyOf([]object.DatasetID{1, 2, 3})
	m.mu.Unlock()
	m.EnqueueMerge(a, []object.DatasetID{0, 1, 2})
	m.EnqueueMerge(b, []object.DatasetID{1, 2, 3})
	m.EnqueueMerge(b, []object.DatasetID{1, 2, 3})
	m.mu.Lock()
	task, ok := m.pickLocked()
	if !ok || !task.isMerge || task.merge.key != b {
		t.Fatalf("hot merge not popped first: %+v ok=%v", task, ok)
	}
	task, ok = m.pickLocked()
	if !ok || !task.isMerge || task.merge.key != a {
		t.Fatalf("cold merge not popped second: %+v ok=%v", task, ok)
	}
}

// expiringClock is a simdisk.Clocker the test expires by hand, so a
// WithClockLimit context ends at a moment the test picks rather than at a
// clock value it would have to predict.
type expiringClock struct{ expired atomic.Bool }

func (c *expiringClock) Clock() time.Duration {
	if c.expired.Load() {
		return 1
	}
	return 0
}

// TestSharedBuildLeaderCancelRetriesOnce covers the level-0 build's failure
// path: the leading query's clock-limited context expires mid-build while
// other queries of the cold dataset wait. Every waiter must still succeed,
// with exactly one rebuild (one new leader, every other waiter attached to
// it) and the tree built once.
func TestSharedBuildLeaderCancelRetriesOnce(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.DefaultCostModel(), 0)
	objs := datagen.Generate(datagen.Config{Seed: 31, NumObjects: 20000, Clusters: 6}, 0)
	raw, err := rawfile.Write(dev, "ds", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	// The scan must span more than one 128-page chunk: the leader fails at
	// the first page of its second chunk.
	if raw.NumPages() <= 128 {
		t.Fatalf("raw file has %d pages, want more than one scan chunk", raw.NumPages())
	}
	eng, err := New(dev, []*rawfile.Raw{raw}, geom.UnitBox(), shareConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := engine.NewNaiveScan([]*rawfile.Raw{raw})
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	dss := []object.DatasetID{0}
	want, err := oracle.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats() // the oracle's scan read pages too

	// Stretch the first chunk's read into a wall-clock window the waiters
	// arrive in.
	cost := simdisk.DefaultCostModel()
	dev.SetRealTimeScale(float64(200*time.Millisecond) / float64(cost.Seek+128*cost.Transfer))
	clock := new(expiringClock)
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.QueryCtx(simdisk.WithClockLimit(context.Background(), clock, 1), q, dss)
		leaderErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for dev.Stats().PageReads < 128 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started its level-0 scan")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const waiters = 6
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := eng.Query(q, dss)
			if err != nil {
				t.Errorf("waiter failed after the leader's context expired: %v", err)
				return
			}
			if !engine.SameObjects(got, want) {
				t.Error("waiter's result diverged from the oracle")
			}
		}()
	}
	// Expire the leader's context while it is still in its first chunk,
	// and shorten the emulation for the rebuild (it still takes long enough
	// for every released waiter to attach).
	time.Sleep(50 * time.Millisecond)
	clock.expired.Store(true)
	dev.SetRealTimeScale(float64(20*time.Millisecond) / float64(cost.Seek+128*cost.Transfer))
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want its clock limit's DeadlineExceeded", err)
	}
	wg.Wait()

	if m := eng.Metrics(); m.TreesBuilt != 1 {
		t.Fatalf("TreesBuilt = %d, want 1", m.TreesBuilt)
	}
	if st := eng.SharingStats(); st.SharedBuilds != waiters-1 {
		t.Fatalf("SharedBuilds = %d, want %d (one rebuild, every other waiter attached)",
			st.SharedBuilds, waiters-1)
	}
}
