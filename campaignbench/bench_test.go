package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"multicast"
)

func TestTailPermille(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{19, 0, false},    // even the median leaves only 9 beyond
		{20, 500, true},   // p50 leaves 10, p75 only 5
		{100, 900, true},  // p90 leaves 10, p95 only 5
		{238, 950, true},  // a gauntlet campaign: p95 leaves 11, p99 only 2
		{1998, 990, true}, // a cheap campaign: p99 leaves 19, p99.9 only 1
		{10010, 999, true},
	} {
		got, ok := tailPermille(tc.n)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.wantOK)
			continue
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("n=%d: %s leaves %d beyond, want ≥ %d", tc.n, percentName(got), tc.n-rank(got, tc.n), minBeyond)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	pm, ok := tailPermille(len(xs))
	if !ok || pm != 900 {
		t.Fatalf("tailPermille(100) = %d, %v", pm, ok)
	}
	if got := quantile(xs, pm); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (10 samples beyond)", got)
	}
	if got := quantile(xs, 500); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentName(999); got != "p99.9" {
		t.Errorf("percentName(999) = %q", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "replay.shard", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "replay.shard", Start: 20, End: 40},    // overlaps its sibling
		{ID: 4, Parent: 1, Name: "artifact.merge", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "sim.cell", Start: 12, End: 18},
		{ID: 6, Parent: 2, Name: "sim.cell", Start: 15, End: 25},
	}
	selfTimes(spans)
	// replay: 100 − |[10,40] ∪ [90,100]| = 100 − 40.
	// shard 2: 20 − |[12,25]| = 7.
	want := map[int]int64{1: 60, 2: 7, 3: 20, 4: 30, 5: 6, 6: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d %s: self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	self := layerSelf(spans)
	if self["sim"] != 16 || self["replay"] != 87 || self["artifact"] != 30 {
		t.Errorf("layerSelf = %v", self)
	}
}

// smallSummary is a single-workload summary of cells folded in order,
// with the fingerprint an undriven pass of the same cells computes.
func smallSummary(cells []multicast.Metrics) (*multicast.Summary, fingerprint) {
	cfg := multicast.Config{N: 16, Budget: 100, Seed: 3}
	s := multicast.NewSummary(cfg, len(cells))
	ref := newFingerprint(s)
	for i, m := range cells {
		s.Points[0].Collector.Add(i, m)
		ref.add(0, m)
	}
	return s, ref
}

func testCells() []multicast.Metrics {
	cells := make([]multicast.Metrics, 50)
	for i := range cells {
		cells[i] = multicast.Metrics{
			Slots:          int64(700 + 13*i),
			MaxNodeEnergy:  int64(40 + i%7),
			MeanNodeEnergy: 31.25 + float64(i)/3,
			EveEnergy:      int64(100 * (i % 3)),
		}
	}
	return cells
}

func TestFingerprintMatchesSummary(t *testing.T) {
	s, ref := smallSummary(testCells())
	if err := ref.compare(summaryPrint(s)); err != nil {
		t.Fatal(err)
	}
	if got := ref.slots(); got != summaryPrint(s).slots() || got == 0 {
		t.Errorf("slots = %d", got)
	}
}

func TestFingerprintCatchesPerturbedSummary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perturb func(*multicast.Metrics)
		field   string
	}{
		{"one slot more", func(m *multicast.Metrics) { m.Slots++ }, "Slots"},
		{"eve spends one more", func(m *multicast.Metrics) { m.EveEnergy++ }, "EveEnergy"},
		{"new max node energy", func(m *multicast.Metrics) { m.MaxNodeEnergy = 1000 }, "MaxNodeEnergy"},
		{"an invariant breaks", func(m *multicast.Metrics) { m.Invariants.HaltedUninformed = 1 }, "HaltedUninformed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := testCells()
			_, ref := smallSummary(cells)
			tc.perturb(&cells[17])
			bad, _ := smallSummary(cells)
			err := ref.compare(summaryPrint(bad))
			if err == nil {
				t.Fatal("perturbed summary passed the check")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not show field %s", err, tc.field)
			}
		})
	}
	// A missing cell changes the trial count.
	cells := testCells()
	_, ref := smallSummary(cells)
	short, _ := smallSummary(cells[:49])
	if ref.compare(summaryPrint(short)) == nil {
		t.Error("summary missing a cell passed the check")
	}
	// Float state alone never fails the check: the same integer content
	// with a different mean node energy (last-ulp Welford drift) passes.
	cells[5].MeanNodeEnergy = math.Nextafter(cells[5].MeanNodeEnergy, 1e9)
	drift, _ := smallSummary(cells)
	if err := ref.compare(summaryPrint(drift)); err != nil {
		t.Errorf("float-only difference failed the check: %v", err)
	}
}

func TestSeedDiscipline(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newSpec(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newSpec(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := mustSetup(t, a), mustSetup(t, b)
		if len(sa.points)*a.trials != len(sb.points)*b.trials || len(sa.points) == 0 {
			t.Errorf("%s: seeds 1 and 2 give %d×%d and %d×%d cells",
				name, len(sa.points), a.trials, len(sb.points), b.trials)
		}
		for i := range sa.points {
			if sa.points[i].Seed == sb.points[i].Seed {
				t.Errorf("%s point %d: seeds 1 and 2 give the same base seed", name, i)
			}
			pa, pb := sa.points[i], sb.points[i]
			pa.Seed, pb.Seed = 0, 0
			if pa.Describe() != pb.Describe() {
				t.Errorf("%s point %d: the seed changed the workload shape", name, i)
			}
		}
	}
	if _, err := newSpec("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	// Each pair differs only in how it uses the cache.
	for _, pair := range [][2]string{{"gauntlet-steal", "gauntlet-cold"}, {"cheap-cold", "cheap-warm"}} {
		a, _ := newSpec(pair[0], 9)
		b, _ := newSpec(pair[1], 9)
		pa, pb := mustSetup(t, a).points, mustSetup(t, b).points
		same := len(pa) == len(pb) && a.trials == b.trials && a.schedule == b.schedule && a.cache != b.cache
		for i := 0; same && i < len(pa); i++ {
			same = pa[i].Describe() == pb[i].Describe()
		}
		if !same {
			t.Errorf("%s and %s run different campaigns at one seed", pair[0], pair[1])
		}
	}
}

// mustSetup builds a workload's configs without the warm pre-fill.
func mustSetup(t *testing.T, sp spec) *setup {
	t.Helper()
	sp.cache = noCache
	st, err := newSetup(context.Background(), sp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestComparableRefusesGOMAXPROCSMismatch(t *testing.T) {
	a := &report{Workload: "cheap-cold", Env: env{GOMAXPROCS: 2}}
	b := &report{Workload: "cheap-cold", Env: env{GOMAXPROCS: 1}}
	err := comparable(a, b)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("comparable = %v, want a GOMAXPROCS refusal", err)
	}
	b.Env.GOMAXPROCS = 2
	if err := comparable(a, b); err != nil {
		t.Errorf("comparable refused matching reports: %v", err)
	}
	b.Workload = "cheap-warm"
	if comparable(a, b) == nil {
		t.Error("comparable accepted different workloads")
	}
}

// tinySpec is a workload small enough for a unit test.
func tinySpec(use cacheUse) spec {
	return spec{
		name:     "tiny",
		cfg:      multicast.Config{N: 16, Budget: 500, Seed: 11},
		trials:   24,
		schedule: multicast.CampaignScheduleStatic,
		cache:    use,
	}
}

func TestCampaignAndReplayAgreeWithReference(t *testing.T) {
	ctx := context.Background()
	for _, use := range []cacheUse{noCache, coldCache, warmCache} {
		sp := tinySpec(use)
		st, err := newSetup(ctx, sp, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := reference(ctx, sp, st)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runCampaign(ctx, sp, st)
		if err != nil {
			t.Fatal(err)
		}
		rep := &report{Metrics: map[string]metric{}}
		rep.Correct = true
		if !checkCampaign(sp, st, ref, r, rep) || rep.Attempted != sp.trials || rep.Failed != 0 {
			t.Fatalf("cache use %d: campaign check: %+v", use, rep)
		}

		tr := newTracer()
		sum, spans, counts, err := replay(ctx, sp, st, tr, "tiny/replay")
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.compare(summaryPrint(sum)); err != nil {
			t.Errorf("cache use %d: replay: %v", use, err)
		}
		if counts.flushes != sp.trials || counts.bytesWritten <= 0 || counts.artifactBytes <= 0 {
			t.Errorf("cache use %d: counts %+v", use, counts)
		}
		wantHits := map[cacheUse]int{noCache: 0, coldCache: 0, warmCache: sp.trials}[use]
		if counts.hits != wantHits || (use != noCache && counts.hits+counts.misses != sp.trials) {
			t.Errorf("cache use %d: %d hits, %d misses", use, counts.hits, counts.misses)
		}
		if use != noCache && counts.cacheFiles != sp.trials {
			t.Errorf("cache use %d: %d cache files, want %d", use, counts.cacheFiles, sp.trials)
		}
		for _, s := range spans {
			if s.End < s.Start || s.Self < 0 {
				t.Errorf("span %+v is open or has negative self time", s)
			}
		}
		m := replayLayers(spans, sp.trials)
		var shares float64
		for _, l := range layers {
			shares += m[l+".share"]
		}
		if shares <= 0 || shares > 1+1e-9 {
			t.Errorf("cache use %d: layer shares sum to %g", use, shares)
		}

		ser, err := serialPass(sp, st, tr, "tiny/serial")
		if err != nil {
			t.Fatal(err)
		}
		if use == warmCache {
			if ser.cells != 0 || ser.busyNs != 0 || ser.slots != 0 {
				t.Errorf("warm serial pass simulated: %+v", ser)
			}
		} else if ser.cells != sp.trials || ser.slots != ref.slots() {
			t.Errorf("cache use %d: serial pass %d cells %d slots, want %d cells %d slots",
				use, ser.cells, ser.slots, sp.trials, ref.slots())
		}
		st.remove()
	}
}
