package main

import (
	"fmt"
	"math"
	"math/rand"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// scale is the size of a workload's inputs: 10 datasets of 100k objects and
// 1000-query sessions in a run, smaller in tests.
type scale struct {
	datasets  int
	objects   int
	queries   int
	dataSeed  int64
	querySeed int64
}

// repsPerRun is how many engines every run sets up and measures, each on a
// session of its own, so that setup_s is a median and the other metrics
// average over several sessions.
const repsPerRun = 5

// rep is the scale of a run's j-th session: same data, its own queries.
func (s scale) rep(j int) scale {
	s.querySeed = s.querySeed*1000 + int64(j)
	return s
}

// genData generates the clustered datasets (ids 0..datasets-1).
func genData(s scale) [][]object.Object {
	return datagen.GenerateDatasets(datagen.Config{Seed: s.dataSeed, NumObjects: s.objects}, s.datasets)
}

// sessionQueries is one analyst's converging session: clustered ranges
// around every cluster of the data's anatomy (the harness's fig4a
// generator, with all 20 anatomy clusters rather than 10 of them, so that
// sessions differ in their queries but not in which regions they explore),
// zipf-distributed combinations, k=5 datasets per query and query volume
// 1e-4.
func sessionQueries(s scale, data [][]object.Object) ([]workload.Query, error) {
	cfg := bench.DefaultConfig()
	cfg.ObjectsPerDataset = s.objects
	cfg.DataSeed = s.dataSeed
	spec := bench.FigureSpec{ID: "session", RangeDist: workload.RangeClustered, CombDist: workload.CombZipf, ClusterCenters: 20}
	w, err := bench.WorkloadForSpec(bench.NewEnvWithData(cfg, data), spec,
		bench.WorkloadConfig{Queries: s.queries, QueryVolumeFrac: 1e-4, Seed: s.querySeed}, 5)
	if err != nil {
		return nil, fmt.Errorf("session queries: %w", err)
	}
	return w.Queries, nil
}

// hotPool is the number of distinct queries in the hot set: the scenario
// lab's default stream of 1000 queries repeats a pool of 250.
const hotPool = 250

// hotQueries is the scenario lab's zipf hot set, n queries long, with its
// two seeds split. The pool of hotPool distinct queries (k=3, four tight
// clusters, zipf combinations: the lab's settings) is drawn from the data
// seed, because a portal's hot set belongs to the archive it serves; the
// stream that repeats the pool with zipf(0.9) popularity is drawn from the
// workload seed.
func hotQueries(s scale, n int) ([]workload.Query, error) {
	w, err := workload.Generate(workload.Config{
		Seed: s.dataSeed, NumQueries: hotPool, NumDatasets: s.datasets, DatasetsPerQuery: 3,
		QueryVolumeFrac: 1e-4, RangeDist: workload.RangeClustered, CombDist: workload.CombZipf,
		ClusterCenters: 4, SigmaFactor: 0.2,
	})
	if err != nil {
		return nil, fmt.Errorf("hot queries: %w", err)
	}
	sample := workload.NewZipfSampler(rand.New(rand.NewSource(s.querySeed)), len(w.Queries), 0.9)
	stream := make([]workload.Query, n)
	for i := range stream {
		stream[i] = w.Queries[sample()]
		stream[i].ID = i
	}
	return stream, nil
}

// digest is an order-free fingerprint of a result multiset: its size and the
// wrapping sum of a 64-bit mix of every field of every object. Two results
// with equal digests hold the same objects, each as often, up to a 2^-64
// collision chance.
type digest struct {
	n   int
	sum uint64
}

func digestOf(objs []object.Object) digest {
	d := digest{n: len(objs)}
	for i := range objs {
		d.sum += objHash(&objs[i])
	}
	return d
}

func objHash(o *object.Object) uint64 {
	h := mix(o.ID ^ uint64(o.Dataset)<<40)
	for _, f := range [6]float64{o.Center.X, o.Center.Y, o.Center.Z, o.HalfExtent.X, o.HalfExtent.Y, o.HalfExtent.Z} {
		h = mix(h ^ math.Float64bits(f))
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// oracleCells are the grids (cells per axis) of the oracle's pre-filter,
// coarse to fine: each level cuts the objects of its parent group down to
// the union of its own group's query boxes, and the finest groups are
// barely larger than a query.
var oracleCells = []int{2, 4, 8, 16, 32, 64}

// oracle returns the expected digest of every query, answered by
// engine.NaiveScan on devices of its own (the measured device never sees
// them). A full scan per query would cost minutes, so queries are grouped
// by the grid cell of their centre and each group's NaiveScan runs over raw
// files holding only the objects that intersect the union of the group's
// query boxes. An object intersecting a query intersects every box that
// contains the query, so the pre-filter drops nothing a full scan would
// return. Repeated queries are answered once.
func oracle(data [][]object.Object, queries []workload.Query) ([]digest, error) {
	type key struct {
		box geom.Box
		ds  string
	}
	first := make(map[key]int)
	alias := make([]int, len(queries))
	var distinct []int
	for i, q := range queries {
		k := key{q.Range, fmt.Sprint(q.Datasets)}
		j, ok := first[k]
		if !ok {
			first[k], j = i, i
			distinct = append(distinct, i)
		}
		alias[i] = j
	}
	region := make([][]boxed, len(data))
	for ds, objs := range data {
		region[ds] = make([]boxed, len(objs))
		for i, o := range objs {
			region[ds][i] = boxed{o, o.Box()}
		}
	}
	want := make([]digest, len(queries))
	if err := scanGroup(region, queries, distinct, 0, want); err != nil {
		return nil, err
	}
	for i, j := range alias {
		want[i] = want[j]
	}
	return want, nil
}

// boxed is an object with its box, computed once for the pre-filter.
type boxed struct {
	obj object.Object
	box geom.Box
}

// scanGroup answers the queries of group from region, the objects that may
// intersect them, splitting the group by the grid of the given level until
// the finest level runs NaiveScan.
func scanGroup(region [][]boxed, queries []workload.Query, group []int, level int, want []digest) error {
	if level < len(oracleCells) {
		for _, sub := range groupByCell(queries, group, oracleCells[level]) {
			if err := scanGroup(cut(region, queries, sub), queries, sub, level+1, want); err != nil {
				return err
			}
		}
		return nil
	}
	dev := simdisk.NewDevice(simdisk.DefaultCostModel(), 64)
	var raws []*rawfile.Raw
	for ds, entries := range region {
		if len(entries) == 0 {
			continue // NaiveScan answers a dataset without a raw file with nothing
		}
		objs := make([]object.Object, len(entries))
		for i, e := range entries {
			objs[i] = e.obj
		}
		raw, err := rawfile.Write(dev, fmt.Sprintf("oracle%d.raw", ds), object.DatasetID(ds), objs)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		raws = append(raws, raw)
	}
	ns := engine.NewNaiveScan(raws)
	for _, i := range group {
		objs, err := ns.Query(queries[i].Range, queries[i].Datasets)
		if err != nil {
			return fmt.Errorf("oracle query %d: %w", i, err)
		}
		want[i] = digestOf(objs)
	}
	return nil
}

// groupByCell splits the queries idx by the grid cell of their centre, in
// order of first appearance.
func groupByCell(queries []workload.Query, idx []int, cells int) [][]int {
	at := make(map[[3]int]int)
	var groups [][]int
	for _, i := range idx {
		c := queries[i].Range.Center()
		cell := [3]int{gridCell(c.X, cells), gridCell(c.Y, cells), gridCell(c.Z, cells)}
		g, ok := at[cell]
		if !ok {
			g = len(groups)
			at[cell] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

func gridCell(v float64, cells int) int {
	return min(max(int(v*float64(cells)), 0), cells-1)
}

// cut keeps, of each dataset the group's queries name, the objects that
// intersect the union of their boxes (Object.Intersects, on the box
// computed once); other datasets come back empty.
func cut(region [][]boxed, queries []workload.Query, group []int) [][]boxed {
	union := queries[group[0]].Range
	need := make([]bool, len(region))
	for _, i := range group {
		union = union.Union(queries[i].Range)
		for _, ds := range queries[i].Datasets {
			need[ds] = true
		}
	}
	out := make([][]boxed, len(region))
	for ds, entries := range region {
		if !need[ds] {
			continue
		}
		for _, e := range entries {
			if e.box.Intersects(union) {
				out[ds] = append(out[ds], e)
			}
		}
	}
	return out
}
