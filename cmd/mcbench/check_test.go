package main

import "testing"

// report builds a minimal engine benchmark report.
func report(speedup, denseAllocs, eventAllocs float64) benchReport {
	return benchReport{
		Dense:        engineResult{Engine: "dense", SlotsPerSec: 1e6, AllocsPerSlot: denseAllocs},
		Event:        engineResult{Engine: "event", SlotsPerSec: speedup * 1e6, AllocsPerSlot: eventAllocs},
		EventSpeedup: speedup,
	}
}

// failed returns the names of the failing checks.
func failed(checks []gateCheck) []string {
	var names []string
	for _, c := range checks {
		if !c.pass {
			names = append(names, c.name)
		}
	}
	return names
}

func TestCompareReports(t *testing.T) {
	committed := report(10, 0.0005, 0.0005)
	cases := []struct {
		name      string
		head      benchReport
		tolerance float64
		want      []string // failing checks
	}{
		{"identical", committed, 0.85, nil},
		{"speedup within tolerance", report(8.6, 0.0005, 0.0005), 0.85, nil},
		{"speedup regressed", report(8.4, 0.0005, 0.0005), 0.85, []string{"speedup event/dense"}},
		{"faster head demanded", committed, 1.05, []string{"speedup event/dense"}},
		{"allocs within slack", report(10, 0.0015, 0.0019), 0.85, nil},
		// The committed report's allocs/slot is 10× below head's: a 10×
		// per-slot regression must fail (the former committed+0.5 floor
		// let it pass).
		{"allocs 10x over committed", report(10, 0.005, 0.0005), 0.85, []string{"allocs/slot dense"}},
		{"both engines regressed", report(10, 0.005, 0.005), 0.85, []string{"allocs/slot dense", "allocs/slot event"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checks := compareReports(tc.head, committed, tc.tolerance)
			if len(checks) != 3 {
				t.Fatalf("got %d checks, want 3 (speedup + two allocs/slot)", len(checks))
			}
			got := failed(checks)
			if len(got) != len(tc.want) {
				t.Fatalf("failing checks %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("failing checks %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestAllocBoundNeverLooser pins the relative allocs/slot bound to be at
// least as tight as the former absolute floor (committed + 0.5) for
// every baseline, and strictly relative at the committed report's scale.
func TestAllocBoundNeverLooser(t *testing.T) {
	for _, base := range []float64{0, 0.0005, 0.01, 0.1, 0.5, 1, 10} {
		if b := allocBound(base); b > base+0.5 {
			t.Errorf("allocBound(%v) = %v, looser than %v", base, b, base+0.5)
		}
	}
	if b := allocBound(0.0005); b != allocSlack*0.0005 {
		t.Errorf("allocBound(0.0005) = %v, want %v", b, allocSlack*0.0005)
	}
	if allocSlack >= 10 {
		t.Errorf("allocSlack = %v cannot catch a 10× allocs/slot regression", allocSlack)
	}
}
