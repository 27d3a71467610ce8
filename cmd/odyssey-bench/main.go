// Command odyssey-bench reproduces the paper's evaluation figures on the
// simulated disk and runs the serving experiments.
//
//	odyssey-bench -experiment fig4a -objects 20000 -queries 500 -verify
//	odyssey-bench -experiment cache -queries 300 -json BENCH_cache.json
//	odyssey-bench -experiment scenarios:drift  # one scenario of the lab
//
// Figures report simulated disk seconds (deterministic), matching the
// paper's disk-bound methodology; see DESIGN.md §3. A serving experiment
// replays a workload through each of its arms on a real-time emulated disk
// and writes one report (see report); a failed structural gate exits 1.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/datagen"
)

func main() {
	names := slices.Sorted(maps.Keys(experiments))
	var (
		experiment = flag.String("experiment", "all", "figure id (fig4a..fig4d, fig5a..fig5c, gridsweep), comma list, or 'all'; or one serving experiment: "+strings.Join(names, "|"))
		datasets   = flag.Int("datasets", 10, "number of datasets (paper: 10)")
		objects    = flag.Int("objects", 100000, "objects per dataset")
		queries    = flag.Int("queries", 1000, "queries per workload (paper: 1000)")
		qvol       = flag.Float64("qvol", 1e-4, "query volume fraction of the explored volume")
		seed       = flag.Int64("seed", 7, "workload seed")
		dataSeed   = flag.Int64("data-seed", 1, "dataset generation seed")
		gridCells  = flag.Int("grid-cells", 6, "grid baseline cells per dimension")
		ksFlag     = flag.String("ks", "1,3,5,7,9", "datasets-per-query sweep for figure 4")
		layout     = flag.String("layout", "clustered", "data layout: clustered|uniform|filamentary")
		verify     = flag.Bool("verify", false, "verify each engine against the naive oracle first (slow)")
		seekUS     = flag.Int("seek-us", 500, "simulated seek+rotational latency in microseconds (8000 = unscaled SAS; 500 = reduced-scale calibration, see DESIGN.md)")
		transferUS = flag.Int("transfer-us", 25, "simulated per-page transfer time in microseconds")
		csvDir     = flag.String("csv", "", "also write plot-ready CSV files into this directory")
		parallel   = flag.Int("parallel", 0, "pool workers of a serving experiment (0 = the experiment's default)")
		rtScale    = flag.Float64("realtime-scale", -1, "wall-clock seconds slept per simulated second in a serving experiment (negative = the experiment's default)")
		deadline   = flag.Duration("deadline", 0, "per-query deadline in the serving experiment's pool arm (0 = none); canceled queries abort at the next page boundary")
		maxInFl    = flag.Int("maxinflight", 0, "admission cap on in-flight queries in the serving experiment's pool arm (0 = unlimited); beyond it submissions fast-fail with ErrOverloaded")
		queueWait  = flag.Duration("queuewait", 0, "how long a submission may wait for an in-flight slot before fast-failing (needs -maxinflight)")
		devices    = flag.Int("devices", 1, "number of simulated member devices to stripe files across")
		channels   = flag.Int("channels", 1, "independent I/O channels (platter heads) per device")
		placement  = flag.String("placement", "affinity", "file placement across devices: affinity|roundrobin")
		jsonPath   = flag.String("json", "", "also write a serving experiment's report as JSON to this file")
		gapDur     = flag.Duration("gap", 2*time.Millisecond, "scenarios: base open-loop inter-arrival unit; each scenario scales it by its own pacing curve")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Datasets, cfg.ObjectsPerDataset, cfg.DataSeed, cfg.GridCells = *datasets, *objects, *dataSeed, *gridCells
	cfg.Cost.Seek = time.Duration(*seekUS) * time.Microsecond
	cfg.Cost.Transfer = time.Duration(*transferUS) * time.Microsecond
	cfg.Devices, cfg.Channels, cfg.Placement = *devices, *channels, *placement
	if *devices < 1 || *channels < 1 || *parallel < 0 {
		fatalf("-devices and -channels must be >= 1, -parallel >= 0")
	}
	if _, err := bench.PlacementByName(*placement); err != nil {
		fatalf("%v", err)
	}
	var ok bool
	if cfg.DataLayout, ok = map[string]datagen.Layout{
		"clustered": datagen.Clustered, "uniform": datagen.Uniform, "filamentary": datagen.Filamentary,
	}[*layout]; !ok {
		fatalf("unknown layout %q", *layout)
	}
	wcfg := bench.WorkloadConfig{Queries: *queries, QueryVolumeFrac: *qvol, Seed: *seed}

	name, scenario, _ := strings.Cut(*experiment, ":")
	servingOnly := *jsonPath != "" || *parallel != 0 || *rtScale >= 0
	admission := *deadline != 0 || *maxInFl != 0 || *queueWait != 0
	e := experiments[name]
	switch {
	case e == nil && (servingOnly || admission):
		fatalf("-json/-parallel/-realtime-scale apply to a serving experiment (-experiment %s)", strings.Join(names, "|"))
	case e != nil && (*verify || *csvDir != ""):
		fatalf("-verify and -csv apply to the figures")
	case admission && name != "serving":
		fatalf("-deadline/-maxinflight/-queuewait apply to -experiment serving")
	case *queueWait != 0 && *maxInFl == 0:
		fatalf("-queuewait needs -maxinflight (there is no slot wait without an in-flight cap)")
	case scenario != "" && name != "scenarios":
		fatalf("unknown experiment %q (only scenarios:<name> selects within an experiment)", *experiment)
	case e != nil:
		in := inputs{
			Datasets: *datasets, Objects: *objects, Layout: *layout, Queries: *queries, QueryVolume: *qvol,
			Seed: *seed, DataSeed: *dataSeed, Workers: cmp.Or(*parallel, e.workers), RealtimeScale: e.scale,
			Devices: *devices, Channels: *channels, Placement: *placement, SeekUS: *seekUS, TransferUS: *transferUS,
			Deadline: *deadline, MaxInFlight: *maxInFl, QueueWait: *queueWait, Scenario: scenario,
			Constants: maps.Collect(maps.All(e.constants)), Args: os.Args[1:],
		}
		in.Constants["converge_max_passes"] = float64(e.passes)
		if *rtScale >= 0 {
			in.RealtimeScale = *rtScale
		}
		if name == "scenarios" {
			in.Gap = *gapDur
		}
		runServing(name, e, in, cfg, *jsonPath)
		return
	}

	var ks []int
	for _, part := range strings.Split(*ksFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			fatalf("bad -ks entry %q", part)
		}
		ks = append(ks, k)
	}

	ids := map[bool][]string{
		true:  {"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c"},
		false: strings.Split(*experiment, ","),
	}[*experiment == "all"]

	env := bench.NewEnv(cfg)
	fmt.Printf("environment: %d datasets x %d objects (%s), %d queries, qvol=%g, grid=%d^3\n\n",
		cfg.Datasets, cfg.ObjectsPerDataset, cfg.DataLayout, wcfg.Queries,
		wcfg.QueryVolumeFrac, cfg.GridCells)

	if *verify {
		runVerification(env, wcfg)
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "gridsweep" {
			rows, err := bench.GridSweep(env, wcfg, nil, nil)
			if err != nil {
				fatalf("gridsweep: %v", err)
			}
			bench.PrintGridSweep(os.Stdout, rows)
			fmt.Println()
			continue
		}
		spec, err := bench.FigureByID(id)
		if err != nil {
			fatalf("%v", err)
		}
		start := time.Now()
		switch {
		case strings.HasPrefix(id, "fig4"):
			res, err := bench.Figure4(env, spec, wcfg, ks, nil)
			if err != nil {
				fatalf("%s: %v", id, err)
			}
			bench.PrintFigure4(os.Stdout, res)
			writeCSV(*csvDir, id, func(w io.Writer) error { return bench.WriteFigure4CSV(w, res) })
		case id == "fig5c":
			res, err := bench.Figure5c(env, wcfg)
			if err != nil {
				fatalf("%s: %v", id, err)
			}
			bench.PrintFigure5c(os.Stdout, res)
			writeCSV(*csvDir, id, func(w io.Writer) error { return bench.WriteFigure5cCSV(w, res) })
		default: // fig5a, fig5b
			res, err := bench.Figure5(env, spec, wcfg, nil)
			if err != nil {
				fatalf("%s: %v", id, err)
			}
			bench.PrintFigure5(os.Stdout, res)
			writeCSV(*csvDir, id, func(w io.Writer) error { return bench.WriteFigure5CSV(w, res) })
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
	}
}

// runServing runs one serving experiment, writes its report and applies the
// structural gates to the report as decoded from its JSON, so a field that
// does not survive the schema fails the run too.
func runServing(name string, e *experiment, in inputs, cfg bench.Config, jsonPath string) {
	fmt.Printf("%s: %d datasets x %d objects, %d queries, qvol %g, %d workers, realtime x%g; storage %d device(s) x %d channel(s), placement %s\n\n",
		name, in.Datasets, in.Objects, in.Queries, in.QueryVolume, in.Workers, in.RealtimeScale, in.Devices, in.Channels, in.Placement)
	r, err := runExperiment(name, e, in, cfg)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Derived)) {
		fmt.Printf("%s: %.4g\n", k, r.Derived[k])
	}
	fmt.Printf("results identical across arms: %v\n", r.ResultsIdentical)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
	var decoded report
	if err := json.Unmarshal(data, &decoded); err != nil || !reflect.DeepEqual(decoded.Inputs, in) {
		fatalf("the report does not round-trip the run's inputs (%v)", err)
	}
	if failed := failedGates(e, &decoded, false); len(failed) > 0 {
		fatalf("gates failed:\n  %s", strings.Join(failed, "\n  "))
	}
	fmt.Println("structural gates passed")
}

// writeCSV writes one figure's CSV into dir (no-op when dir is empty).
func writeCSV(dir, id string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	var buf bytes.Buffer
	path := filepath.Join(dir, id+".csv")
	if err := write(&buf); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("(wrote %s)\n", path)
}

// runVerification checks every engine against the oracle on a reduced
// workload before trusting the numbers.
func runVerification(env *bench.Env, wcfg bench.WorkloadConfig) {
	fmt.Println("verifying engines against the naive-scan oracle...")
	spec, err := bench.FigureByID("fig4a")
	if err != nil {
		fatalf("%v", err)
	}
	small := wcfg
	small.Queries = min(small.Queries, 100)
	w, err := bench.WorkloadForSpec(env, spec, small, 3)
	if err != nil {
		fatalf("%v", err)
	}
	for _, kind := range []bench.EngineKind{bench.KindOdyssey, bench.KindOdysseyNoMerge, bench.KindFLATAin1,
		bench.KindFLAT1fE, bench.KindRTreeAin1, bench.KindRTree1fE, bench.KindGrid1fE, bench.KindGridAin1} {
		if err := env.VerifyAgainstOracle(kind, w); err != nil {
			fatalf("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("  %-16s ok\n", kind)
	}
	fmt.Println()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odyssey-bench: "+format+"\n", args...)
	os.Exit(1)
}
