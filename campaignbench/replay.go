package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"multicast/internal/campaign"
	"multicast/internal/driver"
	"multicast/internal/runner"
	"multicast/internal/sim"
)

// The traced run replays a workload's grid through the same layer calls
// the driver's static schedule makes — runner.RunSweep per shard with
// the cache behind the grid's CellCache seam, a sink folding each cell
// with campaign.Checkpointer.Add and then flushing, the shard artifact's
// Summary.Write, and campaign.MergeFiles — with a span around each call.
// Nothing inside the program is instrumented.

// serialStats is the engine alone: one sim.Executor running every grid
// cell in order through runner.Grid.RunCell.
type serialStats struct {
	busyNs int64
	cells  int // cells that simulated (cache hits do not)
	slots  int64
	allocs uint64
	cellUs []float64
}

// serialPass runs the grid serially. The warm workload's cache sits
// behind the seam, so its cells replay and the engine does no work.
func serialPass(sp spec, st *setup, tr *tracer, run string) (serialStats, error) {
	grid, err := runner.NewGrid(st.sims, sp.trials)
	if err != nil {
		return serialStats{}, err
	}
	tr.reserve(3*grid.Total() + 1)
	root := tr.begin(run, 0, "serial")
	cc := &tracedCache{tr: tr, run: run, parent: root, simNs: make([]int64, 0, grid.Total())}
	if sp.cache == warmCache {
		if cc.keyed, err = st.openCache(st.cacheDir, sp.trials); err != nil {
			return serialStats{}, err
		}
	}
	grid.Cache = cc
	ex := sim.NewExecutor()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for g := 0; g < grid.Total(); g++ {
		if _, err := grid.RunCell(nil, ex, g); err != nil {
			return serialStats{}, err
		}
	}
	runtime.ReadMemStats(&m1)
	tr.end(root)
	out := serialStats{cells: len(cc.simNs), slots: cc.slots, allocs: m1.Mallocs - m0.Mallocs}
	for _, ns := range cc.simNs {
		out.busyNs += ns
		out.cellUs = append(out.cellUs, float64(ns)/1e3)
	}
	return out, nil
}

// replayCounts are the traced run's exact counts: a fixed seed must
// reproduce every one of them on every replay.
type replayCounts struct {
	flushes       int
	bytesWritten  int64 // checkpoint sidecar size, summed over flushes
	hits, misses  int
	cacheFiles    int
	cacheBytes    int64
	artifactBytes int64 // the shard artifacts
}

// shardOut is one replayed shard's outcome.
type shardOut struct {
	cc            *tracedCache
	flushes       int
	bytesWritten  int64
	artifactBytes int64
	err           error
}

// replay runs one traced replay of the workload's campaign into a fresh
// temporary directory and returns its merged summary, spans and counts.
func replay(ctx context.Context, sp spec, st *setup, tr *tracer, run string) (*campaign.Summary, []span, replayCounts, error) {
	var counts replayCounts
	dir, err := os.MkdirTemp(st.dir, "replay-")
	if err != nil {
		return nil, nil, counts, err
	}
	defer os.RemoveAll(dir)
	var kc *keyedCache
	cacheDir := ""
	switch sp.cache {
	case coldCache:
		cacheDir = filepath.Join(dir, "cache")
	case warmCache:
		cacheDir = st.cacheDir
	}
	if cacheDir != "" {
		if kc, err = st.openCache(cacheDir, sp.trials); err != nil {
			return nil, nil, counts, err
		}
	}
	tr.reserve(5*len(st.sims)*sp.trials + 16)

	syscall.Sync() // as before an untraced campaign
	root := tr.begin(run, 0, "replay")
	outs := make([]shardOut, shards)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = replayShard(ctx, sp, st, tr, run, root, i, dir, kc)
		}()
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			tr.end(root)
			return nil, nil, counts, fmt.Errorf("replay shard %d: %w", i, o.err)
		}
	}
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = driver.ArtifactPath(dir, i)
	}
	mid := tr.begin(run, root, "artifact.merge")
	merged, err := campaign.MergeFiles(paths)
	tr.end(mid)
	tr.end(root)
	if err != nil {
		return nil, nil, counts, err
	}

	for _, o := range outs {
		counts.flushes += o.flushes
		counts.bytesWritten += o.bytesWritten
		counts.artifactBytes += o.artifactBytes
		counts.hits += o.cc.hits
		counts.misses += o.cc.misses
	}
	if cacheDir != "" {
		if counts.cacheFiles, counts.cacheBytes, err = cacheUsage(cacheDir); err != nil {
			return nil, nil, counts, err
		}
	}
	return merged, tr.spansOf(run), counts, nil
}

// replayShard replays shard i of k: the driver's in-process static
// worker, one call at a time. The checkpointer's own flush cadence is
// disabled so that fold (Add) and flush (Flush) are separate spans;
// the sink flushes after every cell, as the driver's default does.
func replayShard(ctx context.Context, sp spec, st *setup, tr *tracer, run string, root, i int, dir string, kc *keyedCache) shardOut {
	sid := tr.begin(run, root, "replay.shard")
	defer tr.end(sid)
	tmpl := st.template.CloneEmpty()
	tmpl.ShardIndex, tmpl.ShardCount = i, shards
	ckPath := driver.CheckpointPath(dir, i)
	ck := campaign.NewCheckpointer(ckPath, tmpl, math.MaxInt)

	wid := tr.begin(run, sid, "runner.sweep")
	out := shardOut{cc: &tracedCache{keyed: kc, tr: tr, run: run, parent: wid}}
	plan := runner.SweepPlan{
		Trials:  sp.trials,
		Shard:   runner.Shard{Index: i, Count: shards},
		Workers: workersPerShard,
		Cache:   out.cc,
	}
	out.err = runner.RunSweep(ctx, st.sims, plan, func(p, t int, m sim.Metrics) error {
		id := tr.begin(run, wid, "campaign.fold")
		err := ck.Add(p, t, m)
		tr.end(id)
		if err != nil {
			return err
		}
		// The stat that sizes the sidecar is charged to the flush.
		id = tr.begin(run, wid, "checkpoint.flush")
		err = ck.Flush()
		fi, serr := os.Stat(ckPath)
		tr.end(id)
		if err != nil {
			return err
		}
		if serr != nil {
			return serr
		}
		out.flushes++
		out.bytesWritten += fi.Size()
		return nil
	})
	tr.end(wid)
	if out.err != nil {
		return out
	}
	path := driver.ArtifactPath(dir, i)
	aid := tr.begin(run, sid, "artifact.write")
	out.err = ck.Summary().Write(path)
	tr.end(aid)
	if out.err != nil {
		return out
	}
	fi, err := os.Stat(path)
	if err != nil {
		out.err = err
		return out
	}
	out.artifactBytes = fi.Size()
	out.err = ck.Remove()
	return out
}

// cacheUsage counts the entry files under a cache directory and their
// bytes on disk.
func cacheUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += fi.Size()
		return nil
	})
	return files, bytes, err
}

// replayLayers turns one replay's spans into its per-layer timings.
// Shares divide a layer's self time by the replay's worker time: the
// summed durations of the replay's top-level spans (the concurrent
// shards and the merge), so the layers' shares and the replay's own
// bookkeeping sum to 1.
func replayLayers(spans []span, cells int) map[string]float64 {
	var rootID int
	var wall, worker float64
	for _, s := range spans {
		if s.Name == "replay" {
			rootID, wall = s.ID, float64(s.dur())
		}
	}
	for _, s := range spans {
		if s.Parent == rootID {
			worker += float64(s.dur())
		}
	}
	self := layerSelf(spans)
	share := func(layer string) float64 {
		if worker == 0 {
			return 0
		}
		return float64(self[layer]) / worker
	}
	fold := durations(spans, "campaign.fold")
	flush := durations(spans, "checkpoint.flush")
	load := durations(spans, "cache.load")
	store := durations(spans, "cache.store")
	out := map[string]float64{
		"trace.replay_wall_s":       wall / 1e9,
		"sim.replay_s":              float64(self["sim"]) / 1e9,
		"runner.self_s":             float64(self["runner"]) / 1e9,
		"campaign.fold_s":           sum(fold) / 1e9,
		"campaign.fold_ns_per_cell": sum(fold) / float64(cells),
		"checkpoint.flush_s":        sum(flush) / 1e9,
		"checkpoint.flush_p50_us":   quantile(flush, 500) / 1e3,
		"checkpoint.flush_p95_us":   quantile(flush, 950) / 1e3,
		"cache.load_s":              sum(load) / 1e9,
		"cache.load_p50_us":         quantile(load, 500) / 1e3,
		"cache.store_s":             sum(store) / 1e9,
		"cache.store_p50_us":        quantile(store, 500) / 1e3,
		"artifact.write_s":          sum(durations(spans, "artifact.write")) / 1e9,
		"artifact.merge_s":          sum(durations(spans, "artifact.merge")) / 1e9,
	}
	for _, l := range layers {
		out[l+".share"] = share(l)
	}
	return out
}

// layers are the program's modules a replay charges time to.
var layers = []string{"sim", "runner", "campaign", "checkpoint", "cache", "artifact"}

// largestLayer names the layer with the largest share.
func largestLayer(m map[string]float64) string {
	best := layers[0]
	for _, l := range layers[1:] {
		if m[l+".share"] > m[best+".share"] {
			best = l
		}
	}
	return best
}
