// Command campaignbench is the repository's end-to-end benchmark: it
// drives closed-loop batch campaigns through the public library
// (multicast.RunCampaign / RunScenarioCampaign) on named workloads,
// checks every merged summary against an undriven reference, and prints
// every metric by name and unit, ending with one JSON result line.
//
// With -trace 1 it instead replays each workload's grid through the
// same layer calls the driver makes, with a span around each, and
// reports per-layer metrics; the spans are written out at exit. See
// README.md for the workloads, the metrics and how to read the spans.
//
// Usage (from the repository root):
//
//	bash campaignbench/run.sh --workload cheap-cold --seed 1 --seconds 20 --trace 0
//	bash campaignbench/run.sh -compare old-report.json new-report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind: the Go build cache and
// binary (see run.sh), temporary campaigns, reports and span dumps.
const buildDir = ".bench_build"

// minIterations is the fewest campaigns an untraced run measures,
// however long they take, and the number of undriven reference passes
// and of untraced campaigns behind a traced run's runner and driver
// numbers.
const minIterations = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		workload   = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed       = flag.Uint64("seed", 1, "seed every campaign config is generated from")
		seconds    = flag.Int("seconds", 10, "measurement window in seconds")
		traceMode  = flag.Int("trace", 0, "0: end-to-end metrics of untraced campaigns; 1: per-layer metrics of traced replays")
		reportPath = flag.String("report", "", "report file (default "+buildDir+"/reports/<workload>-seed<seed>-trace<trace>.json)")
		spansPath  = flag.String("spans", "", "span dump of a traced run (default "+buildDir+"/spans/<workload>-seed<seed>.jsonl)")
		compare    = flag.Bool("compare", false, "compare the two report files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if err := compareReports(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			return 2
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(os.Stderr, "campaignbench: -trace %d: want 0 or 1\n", *traceMode)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "campaignbench: -seconds %d: want at least 1\n", *seconds)
		return 2
	}
	sp, err := newSpec(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	if *reportPath == "" {
		*reportPath = filepath.Join(buildDir, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", sp.name, *seed, *traceMode))
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed))
	}

	rep := report{
		Workload: sp.name,
		Seed:     *seed,
		Trace:    *traceMode,
		Env:      currentEnv(),
		Metrics:  map[string]metric{},
		Samples:  map[string][]float64{},
	}
	ctx := context.Background()
	window := time.Duration(*seconds) * time.Second
	var tr *tracer
	if *traceMode == 1 {
		tr = newTracer()
	}
	if err := measure(ctx, sp, window, tr, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	if tr != nil {
		if err := writeFile(*spansPath, tr.write); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench: writing spans:", err)
			return 2
		}
		fmt.Printf("spans: %s\n", *spansPath)
	}
	if err := writeFile(*reportPath, rep.write); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench: writing report:", err)
		return 2
	}
	rep.print(os.Stdout)
	fmt.Printf("report: %s\n", *reportPath)
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 2
	}
	fmt.Println(line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// writeFile creates path's directory and writes it with write.
func writeFile(path string, write func(string) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return write(path)
}

// measure sets the workload up, then runs the untraced (tr == nil) or
// traced measurement into rep. Errors are failures of the benchmark
// itself; failures of the program under test land in rep.
func measure(ctx context.Context, sp spec, window time.Duration, tr *tracer, rep *report) error {
	root := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	upfront, _ := setupReps(sp)
	var ts setupTimes
	st, err := ts.setUp(ctx, sp, root, upfront)
	if err != nil {
		return err
	}
	defer st.remove()
	rep.Correct = true
	if tr == nil {
		return measureCampaigns(ctx, sp, st, root, &ts, window, rep)
	}
	rep.add("scenario.expand_s", median(ts.expand), "s", fmt.Sprintf("median of %d set-ups", len(ts.expand)))
	return measureTraced(ctx, sp, st, window, tr, rep)
}

// setupReps is how many times a run sets the workload up: up front, and
// again before each campaign, so that the set-up median covers the
// whole run rather than its first moments. The warm workload's set-up
// simulates the whole grid, so it sets up once per campaign.
func setupReps(sp spec) (upfront, perCampaign int) {
	if sp.cache == warmCache {
		return 3, 1
	}
	return 10, 10
}

// setupTimes collects set-up durations and scenario expansion times, in
// seconds.
type setupTimes struct{ total, expand []float64 }

// setUp sets the workload up n times, records each set-up's times, and
// returns the last set-up (removing the others).
func (ts *setupTimes) setUp(ctx context.Context, sp spec, root string, n int) (*setup, error) {
	var st *setup
	for i := 0; i < n; i++ {
		if st != nil {
			st.remove()
		}
		t0 := time.Now()
		var err error
		if st, err = newSetup(ctx, sp, root); err != nil {
			return nil, err
		}
		ts.total = append(ts.total, time.Since(t0).Seconds())
		ts.expand = append(ts.expand, float64(st.expandNs)/1e9)
	}
	return st, nil
}

// checkCampaign folds one driven campaign's outcome into rep's
// attempted/failed counts and correctness, and reports whether the
// campaign produced a correct summary.
func checkCampaign(sp spec, st *setup, ref fingerprint, r campaignRun, rep *report) bool {
	total := len(st.points) * sp.trials
	rep.Attempted += total
	if r.err != nil {
		rep.Failed += total - r.prog.cells
		rep.fail("campaign failed: %v", r.err)
		return false
	}
	if err := ref.compare(summaryPrint(r.sum)); err != nil {
		rep.fail("merged summary differs from the undriven reference: %v", err)
		return false
	}
	if sp.cache == warmCache && r.prog.misses != 0 {
		rep.fail("warm campaign missed the cache on %d of %d cells", r.prog.misses, total)
		return false
	}
	return true
}

// measureCampaigns drives campaigns back to back until the window is
// spent and reports the end-to-end metrics, each a median over the
// run's campaigns.
func measureCampaigns(ctx context.Context, sp spec, st *setup, root string, ts *setupTimes, window time.Duration, rep *report) error {
	ref, refWall, err := reference(ctx, sp, st)
	if err != nil {
		return fmt.Errorf("undriven reference: %w", err)
	}
	rep.note("undriven reference: %.3f s, %d slots", refWall.Seconds(), ref.slots())
	_, perCampaign := setupReps(sp)
	var walls, rates, p50s, tails, rss []float64
	var tailPm, gapsPer int
	start := time.Now()
	for len(walls) < minIterations || time.Since(start) < window {
		// Write back the previous campaign's deletions first, so that
		// they do not land inside the set-up timing either.
		syscall.Sync()
		if perCampaign > 0 {
			extra, err := ts.setUp(ctx, sp, root, perCampaign)
			if err != nil {
				return err
			}
			extra.remove()
		}
		r, err := runCampaign(ctx, sp, st)
		if err != nil {
			return err
		}
		if !checkCampaign(sp, st, ref, r, rep) {
			break
		}
		// Each campaign's cell intervals give one p50 and one tail; the
		// run reports their medians, so a burst of host interference that
		// slows a few campaigns does not move the run's tail.
		gapsPer = len(r.prog.gapsMs)
		pm, ok := tailPermille(gapsPer)
		if !ok {
			return fmt.Errorf("%d cell intervals per campaign leave fewer than %d beyond the median", gapsPer, minBeyond)
		}
		tailPm = pm
		p50s = append(p50s, quantile(r.prog.gapsMs, 500))
		tails = append(tails, quantile(r.prog.gapsMs, tailPm))
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(ref.slots())/r.wall.Seconds())
		rss = append(rss, r.peakRSS)
	}
	n := len(walls)
	per := fmt.Sprintf("median of %d campaigns", n)
	rep.addMedian("wall_s", walls, "s", per)
	rep.addMedian("sim_slots_per_s", rates, "1/s", per)
	intervals := fmt.Sprintf("of each campaign's %d cell intervals, median of %d campaigns", gapsPer, n)
	// The median interval is printed but not bounded: under the steal
	// schedule the fold emits cells in bursts, so about half the
	// intervals are flush-short and the median flips between regimes.
	rep.note("cell_p50_ms = %.4g ms, p50 %s", median(p50s), intervals)
	rep.addMedian("cell_tail_ms", tails, "ms", fmt.Sprintf("%s %s; ≥%d intervals beyond it",
		percentName(tailPm), intervals, minBeyond))
	rep.addMedian("peak_rss_mb", rss, "MB", per)
	rep.addMedian("setup_s", ts.total, "s", fmt.Sprintf("median of %d set-ups", len(ts.total)))
	rep.note("fail_frac = %d/%d = %g", rep.Failed, rep.Attempted, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	return nil
}

// measureTraced reports the per-layer metrics: the undriven reference,
// untraced campaigns, a serial engine pass, and traced replays until
// the window is spent (timings are medians over replays; counts must
// repeat exactly on every replay).
func measureTraced(ctx context.Context, sp spec, st *setup, window time.Duration, tr *tracer, rep *report) error {
	start := time.Now()
	var ref fingerprint
	var sweeps []float64
	for i := 0; i < minIterations; i++ {
		f, wall, err := reference(ctx, sp, st)
		if err != nil {
			return fmt.Errorf("undriven reference: %w", err)
		}
		if i == 0 {
			ref = f
		} else if err := ref.compare(f); err != nil {
			rep.fail("undriven reference pass %d differs from pass 0: %v", i, err)
			return nil
		}
		sweeps = append(sweeps, wall.Seconds())
	}
	sweep := median(sweeps)
	cells := len(st.points) * sp.trials

	// The driver's share needs untraced campaigns beside the traced
	// replays; medians of a few keep one noisy campaign from setting it.
	driven := map[string][]float64{}
	for i := 0; i < minIterations; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := runCampaign(ctx, sp, st)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if !checkCampaign(sp, st, ref, r, rep) {
			return nil
		}
		for k, v := range map[string]float64{
			"wall":                r.wall.Seconds(),
			"driver.shard_skew_s": r.prog.skew().Seconds(),
			"go.alloc_mb":         float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			"go.gc_cycles":        float64(m1.NumGC - m0.NumGC),
			"go.gc_pause_s":       float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		} {
			driven[k] = append(driven[k], v)
		}
	}
	wall := median(driven["wall"])

	runID := fmt.Sprintf("%s/seed=%d", sp.name, rep.Seed)
	ser, err := serialPass(sp, st, tr, runID+"/serial")
	if err != nil {
		return fmt.Errorf("serial engine pass: %w", err)
	}
	// The engine pass simulates exactly the reference's slots, or, behind
	// the warm cache, nothing at all.
	if sp.cache == warmCache && ser.cells != 0 {
		rep.fail("serial pass simulated %d cells behind the warm cache", ser.cells)
	} else if sp.cache != warmCache && ser.slots != ref.slots() {
		rep.fail("serial pass simulated %d slots, the undriven reference %d", ser.slots, ref.slots())
	}
	busy := float64(ser.busyNs) / 1e9
	rep.add("sim.busy_s", busy, "s", fmt.Sprintf("serial pass, %d of %d cells simulated", ser.cells, cells))
	rep.add("sim.slots", float64(ser.slots), "count", "serial pass")
	rep.add("sim.ns_per_slot", ratio(float64(ser.busyNs), float64(ser.slots)), "ns", "serial pass")
	rep.add("sim.allocs_per_cell", ratio(float64(ser.allocs), float64(ser.cells)), "count", "serial pass")
	rep.add("sim.cell_p50_us", quantile(ser.cellUs, 500), "us", "serial pass")
	rep.add("sim.cell_p95_us", quantile(ser.cellUs, 950), "us", "serial pass")
	rep.addMedian("runner.sweep_s", sweeps, "s", fmt.Sprintf("median of %d undriven RunSweep passes, %d workers",
		len(sweeps), runtime.GOMAXPROCS(0)))
	rep.add("runner.speedup", ratio(busy, sweep), "x", "sim.busy_s / runner.sweep_s")
	per := fmt.Sprintf("median of %d untraced campaigns", minIterations)
	rep.add("driver.overhead_ratio", ratio(wall, sweep), "x",
		fmt.Sprintf("untraced campaign wall %.3f s (%s) / runner.sweep_s", wall, per))
	rep.addMedian("driver.shard_skew_s", driven["driver.shard_skew_s"], "s", "first to last shard done, "+per)
	rep.addMedian("go.alloc_mb", driven["go.alloc_mb"], "MB", per)
	rep.addMedian("go.gc_cycles", driven["go.gc_cycles"], "count", per)
	rep.addMedian("go.gc_pause_s", driven["go.gc_pause_s"], "s", per)

	var first replayCounts
	perReplay := map[string][]float64{}
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		merged, spans, counts, err := replay(ctx, sp, st, tr, fmt.Sprintf("%s/replay=%d", runID, i))
		rep.Attempted += cells
		if err != nil {
			rep.Failed += cells
			rep.fail("traced replay %d: %v", i, err)
			return nil
		}
		if err := ref.compare(summaryPrint(merged)); err != nil {
			rep.fail("traced replay %d differs from the undriven reference: %v", i, err)
			return nil
		}
		if i == 0 {
			first = counts
		} else if counts != first {
			rep.fail("traced replay %d counts %+v differ from replay 0's %+v", i, counts, first)
		}
		if sp.cache == warmCache && counts.misses != 0 {
			rep.fail("warm replay %d missed the cache on %d cells", i, counts.misses)
		}
		for k, v := range replayLayers(spans, cells) {
			perReplay[k] = append(perReplay[k], v)
		}
	}
	med := map[string]float64{}
	for k, vs := range perReplay {
		med[k] = median(vs)
	}
	per = fmt.Sprintf("median of %d traced replays", len(perReplay["trace.replay_wall_s"]))
	for _, k := range []string{"campaign.fold_s", "campaign.fold_ns_per_cell", "checkpoint.flush_s",
		"checkpoint.flush_p50_us", "checkpoint.flush_p95_us", "cache.load_s", "cache.load_p50_us",
		"cache.store_s", "cache.store_p50_us", "artifact.write_s", "artifact.merge_s",
		"trace.replay_wall_s", "sim.replay_s", "runner.self_s"} {
		unit := "s"
		switch {
		case strings.HasSuffix(k, "_us"):
			unit = "us"
		case strings.HasSuffix(k, "_per_cell"):
			unit = "ns"
		}
		rep.add(k, med[k], unit, per)
	}
	for _, l := range layers {
		rep.add(l+".share", med[l+".share"], "ratio", per+"; self time / replay worker time")
	}
	rep.add("trace.overhead_ratio", ratio(med["trace.replay_wall_s"], wall), "x", "traced replay wall / untraced campaign wall")
	rep.add("checkpoint.flushes", float64(first.flushes), "count", "per replay")
	rep.add("checkpoint.bytes_written", float64(first.bytesWritten), "count", "sidecar bytes summed over flushes, per replay")
	rep.add("cache.hits", float64(first.hits), "count", "per replay")
	rep.add("cache.misses", float64(first.misses), "count", "per replay")
	rep.add("cache.hit_ratio", ratio(float64(first.hits), float64(first.hits+first.misses)), "ratio", "per replay")
	rep.add("cache.files", float64(first.cacheFiles), "count", "entries on disk after a replay")
	rep.add("cache.bytes_on_disk", float64(first.cacheBytes), "count", "entry bytes after a replay")
	rep.add("artifact.bytes", float64(first.artifactBytes), "count", "shard artifacts, per replay")
	rep.note("largest self time: %s (share %.3f)", largestLayer(med), med[largestLayer(med)+".share"])
	return nil
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// env is the environment stamp every report carries; reports are
// comparable only under the same GOMAXPROCS.
type env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnv() env {
	return env{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report is everything one run measured, written to the report file.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples holds the per-campaign or per-replay values behind each
	// median.
	Samples map[string][]float64 `json:"samples,omitempty"`
	order   []string
}

// addMedian reports the median of xs and keeps xs as its samples.
func (r *report) addMedian(name string, xs []float64, unit, note string) {
	r.Samples[name] = append([]float64(nil), xs...)
	r.add(name, median(xs), unit, note)
}

func (r *report) add(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Note: note}
	r.order = append(r.order, name)
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect, with the reason.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print renders the human-readable report.
func (r *report) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "campaignbench workload=%s seed=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d %s/%s\n",
		r.Workload, r.Seed, r.Trace, e.Go, e.GOMAXPROCS, e.NProc, e.GOOS, e.GOARCH)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", name, m.Value, m.Unit, m.Note)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	fmt.Fprintf(w, "  attempted %d cells, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// resultLine is the final output line: exactly the keys correct,
// attempted, failed and metrics, each metric its value and unit.
func (r *report) resultLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// readReport loads a report file.
func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints each metric's change from the first report to
// the second. Reports of different workloads, modes or GOMAXPROCS are
// refused: their numbers do not measure the same thing.
func compareReports(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two report files, got %d", len(paths))
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", paths[0], paths[1], err)
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", "old", "new", "change")
	for _, name := range names {
		mb, ok := b.Metrics[name]
		if !ok {
			continue
		}
		ma := a.Metrics[name]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %8s %s\n", name, ma.Value, mb.Value, change, ma.Unit)
	}
	return nil
}

// comparable refuses report pairs whose numbers measure different
// things.
func comparable(a, b *report) error {
	switch {
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs (%d vs %d)", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Workload != b.Workload:
		return fmt.Errorf("workload differs (%s vs %s)", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return fmt.Errorf("trace mode differs (%d vs %d)", a.Trace, b.Trace)
	}
	return nil
}
