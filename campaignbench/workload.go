package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"multicast"
	"multicast/internal/cache"
	"multicast/internal/runner"
	"multicast/internal/scenario"
	"multicast/internal/sim"
)

// Campaign shape shared by every workload: k = 2 shards of one worker
// each, so a 2-core box runs 2 simulating goroutines in one process, and
// a checkpoint flush after every cell (the driver's default cadence).
const (
	shards          = 2
	workersPerShard = 1
	checkpointEvery = 1
)

// Workload sizes, chosen so one campaign takes a few seconds on a
// 2-core box and a run repeats it several times.
const (
	gauntletTrials = 24   // per point; 10 points
	cheapTrials    = 2000 // one point
)

// cacheUse is how a workload's campaigns use the cell result cache.
type cacheUse int

const (
	noCache   cacheUse = iota
	coldCache          // every campaign starts from a fresh, empty cache
	warmCache          // every campaign re-drives over a cache filled in set-up
)

// spec is one workload generated from the seed: everything the library
// is handed, and nothing else.
type spec struct {
	name     string
	scenario multicast.Scenario // zero Name: a single-workload campaign of cfg
	opts     multicast.ScenarioOptions
	cfg      multicast.Config
	trials   int
	schedule multicast.CampaignSchedule
	cache    cacheUse
}

var workloadNames = []string{"gauntlet-steal", "gauntlet-cold", "cheap-cold", "cheap-warm"}

// splitmix64 scrambles the benchmark seed into the campaigns' base
// seed, so neighbouring benchmark seeds share no trial seeds (trial t
// of a campaign runs with base + t).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newSpec generates workload name's campaign from the seed. The seed
// moves only the simulations' randomness: cell counts and shapes are
// the same for every seed.
func newSpec(name string, seed uint64) (spec, error) {
	base := splitmix64(seed)
	switch name {
	case "gauntlet-steal", "gauntlet-cold":
		scen, ok := multicast.ScenarioByName("jammer-gauntlet")
		if !ok {
			return spec{}, fmt.Errorf("scenario jammer-gauntlet is not registered")
		}
		s := spec{
			name:     name,
			scenario: scen,
			opts:     multicast.ScenarioOptions{N: 256, Budget: 100_000, Seed: base},
			trials:   gauntletTrials,
			schedule: multicast.CampaignScheduleSteal,
		}
		if name == "gauntlet-cold" {
			s.cache = coldCache
		}
		return s, nil
	case "cheap-cold", "cheap-warm":
		s := spec{
			name:     name,
			cfg:      multicast.Config{N: 16, Algorithm: multicast.AlgoMultiCast, Budget: 2000, Seed: base},
			trials:   cheapTrials,
			schedule: multicast.CampaignScheduleStatic,
			cache:    coldCache,
		}
		if name == "cheap-warm" {
			s.cache = warmCache
		}
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setup is one set-up of a workload: its configs, its campaign
// template, and a temporary directory (holding the pre-filled cache of
// the warm workload).
type setup struct {
	points   []multicast.Config // public configs, for the undriven reference
	sims     []sim.Config       // the same workloads as engine configs, for the replay
	template *multicast.Summary
	dir      string
	cacheDir string // the warm workload's pre-filled cache
	expandNs int64  // scenario expansion time
}

// newSetup expands and builds the workload, makes its temporary directory
// under root, and for the warm workload fills a cache for every cell
// through runner.RunSweep and the cache seam.
func newSetup(ctx context.Context, sp spec, root string) (*setup, error) {
	st := &setup{}
	t0 := time.Now()
	if sp.scenario.Name != "" {
		expanded := multicast.ExpandScenario(sp.scenario, sp.opts)
		st.expandNs = int64(time.Since(t0))
		for _, p := range expanded {
			st.points = append(st.points, p.Config)
		}
		st.template = multicast.NewScenarioSummary(sp.scenario, sp.opts.Seed, sp.trials, expanded)
	} else {
		st.points = []multicast.Config{sp.cfg}
		st.template = multicast.NewSummary(sp.cfg, sp.trials)
	}
	for _, p := range st.points {
		sc, err := engineConfig(p)
		if err != nil {
			return nil, err
		}
		st.sims = append(st.sims, sc)
	}
	dir, err := os.MkdirTemp(root, sp.name+"-")
	if err != nil {
		return nil, err
	}
	st.dir = dir
	if sp.cache == warmCache {
		st.cacheDir = filepath.Join(dir, "cache")
		kc, err := st.openCache(st.cacheDir, sp.trials)
		if err != nil {
			st.remove()
			return nil, err
		}
		err = runner.RunSweep(ctx, st.sims, runner.SweepPlan{Trials: sp.trials, Cache: kc},
			func(int, int, sim.Metrics) error { return nil })
		if err != nil {
			st.remove()
			return nil, fmt.Errorf("pre-filling the cache: %w", err)
		}
	}
	return st, nil
}

// engineConfig resolves a public Config into its engine config through
// internal/scenario — the resolver multicast.Config itself builds
// through — and refuses a config whose identity string would differ
// from the library's, since the replay would then simulate another
// workload than the campaign.
func engineConfig(c multicast.Config) (sim.Config, error) {
	w := scenario.Config{
		N: c.N, Algorithm: string(c.Algorithm), Params: c.Params, KnownT: c.KnownT,
		Channels: c.Channels, Adversary: c.Adversary, Budget: c.Budget, Seed: c.Seed,
		MaxSlots: c.MaxSlots,
	}
	if got, want := w.Describe(), c.Describe(); got != want {
		return sim.Config{}, fmt.Errorf("engine config %q does not match the library's %q", got, want)
	}
	sc, err := w.Build()
	if err != nil {
		return sim.Config{}, err
	}
	sc.Engine = c.Engine
	return sc, nil
}

// openCache opens a cell cache at dir addressed exactly as the driver
// addresses this campaign's cells.
func (st *setup) openCache(dir string, trials int) (*keyedCache, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	grid, err := runner.NewGrid(st.sims, trials)
	if err != nil {
		return nil, err
	}
	keys := make([]string, grid.Total())
	for g := range keys {
		p, _ := grid.Split(g)
		keys[g] = cache.Key(st.template.Points[p].Label, st.template.Points[p].Workload, grid.Seed(g))
	}
	return &keyedCache{store: store, keys: keys}, nil
}

func (st *setup) remove() { os.RemoveAll(st.dir) }

// reference runs the grid undriven — plain RunSweepContext on
// GOMAXPROCS workers, no checkpoint, no cache — and returns its
// fingerprint and wall time.
func reference(ctx context.Context, sp spec, st *setup) (fingerprint, time.Duration, error) {
	f := newFingerprint(st.template)
	t0 := time.Now()
	err := multicast.RunSweepContext(ctx, st.points, multicast.SweepPlan{Trials: sp.trials},
		func(p, _ int, m multicast.Metrics) error {
			f.add(p, m)
			return nil
		})
	return f, time.Since(t0), err
}

// progress timestamps a driven campaign's events in its Progress
// callback, which the driver calls serially.
type progress struct {
	last   [shards]time.Time
	gapsMs []float64 // between consecutive cell events of one shard
	cells  int
	misses int
	done   []time.Time // CampaignShardDone events
}

func (p *progress) event(ev multicast.CampaignEvent) {
	now := time.Now()
	switch ev.Kind {
	case multicast.CampaignShardCell:
		p.cells++
		if ev.Cache == multicast.CampaignCellCacheMiss {
			p.misses++
		}
		if last := p.last[ev.Shard]; !last.IsZero() {
			p.gapsMs = append(p.gapsMs, float64(now.Sub(last))/1e6)
		}
		p.last[ev.Shard] = now
	case multicast.CampaignShardDone:
		p.done = append(p.done, now)
	}
}

// skew is the time between the first and the last shard finishing.
func (p *progress) skew() time.Duration {
	if len(p.done) == 0 {
		return 0
	}
	return p.done[len(p.done)-1].Sub(p.done[0])
}

// campaignRun is one driven campaign's outcome.
type campaignRun struct {
	wall    time.Duration
	sum     *multicast.Summary
	err     error
	prog    *progress
	peakRSS float64 // MB
}

// runCampaign drives one campaign of the workload into fresh temporary
// directories through the public library, timing the call from entry
// to the merged summary's return. The campaign's own error is in the
// result; the returned error is a failure of the benchmark itself.
func runCampaign(ctx context.Context, sp spec, st *setup) (campaignRun, error) {
	dir, err := os.MkdirTemp(st.dir, "campaign-")
	if err != nil {
		return campaignRun{}, err
	}
	defer os.RemoveAll(dir)
	prog := &progress{}
	plan := multicast.CampaignPlan{
		Trials:          sp.trials,
		Shards:          shards,
		Schedule:        sp.schedule,
		Workers:         workersPerShard,
		Dir:             filepath.Join(dir, "campaign"),
		CheckpointEvery: checkpointEvery,
		Progress:        prog.event,
	}
	switch sp.cache {
	case coldCache:
		plan.CacheDir = filepath.Join(dir, "cache")
	case warmCache:
		plan.CacheDir = st.cacheDir
	}
	// Write back what set-up and earlier campaigns left dirty, so their
	// writeback does not land inside this campaign's timing.
	syscall.Sync()
	if err := resetPeakRSS(); err != nil {
		return campaignRun{}, err
	}
	t0 := time.Now()
	var sum *multicast.Summary
	if sp.scenario.Name != "" {
		sum, err = multicast.RunScenarioCampaign(ctx, sp.scenario, sp.opts, plan)
	} else {
		sum, err = multicast.RunCampaign(ctx, sp.cfg, plan)
	}
	r := campaignRun{wall: time.Since(t0), sum: sum, err: err, prog: prog}
	peak, perr := peakRSS()
	if perr != nil {
		return campaignRun{}, perr
	}
	r.peakRSS = peak
	return r, nil
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// peak-RSS mark to the current RSS, so the next peak belongs to the
// next campaign alone (Linux: /proc/self/clear_refs, value 5).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
