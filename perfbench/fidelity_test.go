package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

var tiny = scale{datasets: 5, objects: 3000, queries: 120, dataSeed: 3, querySeed: 4}

// TestProbeFidelity checks that the probe does not change the model it
// measures: an engine assembled on the probe returns byte-identical results
// with bit-identical per-query charges, simulated clock and DiskStats to
// the same engine on the bare device and to a zero-Options Explorer, over
// a cold pass (level-0 builds, refinement, merging) and a warm one.
func TestProbeFidelity(t *testing.T) {
	queries, err := sessionQueries(tiny, genData(tiny))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newExplorerSession(odyssey.Options{}, genData(tiny))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.close()
	bare, err := newCoreSession(simdisk.NewDevice(simdisk.DefaultCostModel(), 1024), genData(tiny))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.close()
	rec := newRecorder()
	probed, err := newCoreSession(&probe{Storage: simdisk.NewDevice(simdisk.DefaultCostModel(), 1024), rec: rec}, genData(tiny))
	if err != nil {
		t.Fatal(err)
	}
	defer probed.close()

	sessions := []session{ex, bare, probed}
	for pass := range 2 {
		for _, s := range sessions {
			s.reset()
		}
		for i, q := range queries {
			var objs [3][]object.Object
			var sims [3]time.Duration
			for k, s := range sessions {
				leave := rec.enter("core.Query", i)
				objs[k], sims[k], err = s.query(context.Background(), q)
				leave()
				if err != nil {
					t.Fatalf("pass %d query %d session %d: %v", pass, i, k, err)
				}
			}
			for k := 1; k < 3; k++ {
				if !slices.Equal(objs[k], objs[0]) || sims[k] != sims[0] {
					t.Fatalf("pass %d query %d: session %d returned %d objects in %v, Explorer %d in %v",
						pass, i, k, len(objs[k]), sims[k], len(objs[0]), sims[0])
				}
			}
		}
		for k, s := range sessions[1:] {
			if s.clock() != ex.clock() || s.disk() != ex.disk() {
				t.Fatalf("pass %d: session %d clock %v disk %+v, Explorer clock %v disk %+v",
					pass, k+1, s.clock(), s.disk(), ex.clock(), ex.disk())
			}
		}
	}
	if n, _, _ := rec.deviceCalls("core.Query"); n == 0 {
		t.Fatal("the probe recorded no device calls")
	}
}

// TestOracleMatchesFullScan checks the oracle's pre-filter against
// NaiveScan over the whole raw files.
func TestOracleMatchesFullScan(t *testing.T) {
	data := genData(tiny)
	queries, err := sessionQueries(tiny, data)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotQueries(tiny, 200)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, hot...)
	want, err := oracle(data, queries)
	if err != nil {
		t.Fatal(err)
	}
	dev := simdisk.NewDevice(simdisk.DefaultCostModel(), 64)
	var raws []*rawfile.Raw
	for ds, objs := range data {
		raw, err := rawfile.Write(dev, "full", object.DatasetID(ds), objs)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	full := engine.NewNaiveScan(raws)
	hits := 0
	for i, q := range queries {
		objs, err := full.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestOf(objs); got != want[i] {
			t.Fatalf("query %d: oracle %+v, full scan %+v", i, want[i], got)
		}
		hits += len(objs)
	}
	if hits == 0 {
		t.Fatal("no query returned anything; the check is vacuous")
	}
}

// TestWorkloads runs every workload at a tiny scale, untraced and traced,
// and checks the runs pass their own checks and fill their metric lists.
func TestWorkloads(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, name := range []string{"cold-adapt", "steady-read", "serve-hot"} {
		for _, traced := range []bool{false, true} {
			rep, err := measure(name, tiny, time.Second, traced, spans)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, err := rep.result(want)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d errors %v", name, traced, res.Correct, res.Attempted, rep.errs)
			}
			if traced {
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Fatalf("%s: no spans written: %v", name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"cold-adapt", "steady-read", "serve-hot"}) {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
}
