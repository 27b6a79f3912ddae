package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// allocSlack is how far head's allocs/slot may grow over the committed
// report's before the gate fails: a factor, because allocation counts
// are deterministic per workload and hardware-independent, so the
// committed value is the baseline to hold, not a noise floor to pad.
// The slack absorbs the one-time per-run buffer growth, which a -quick
// run (3 trials) amortises over ~8× fewer slots than the committed
// full run (25 trials); any per-slot garbage multiplies the rate far
// past it.
const allocSlack = 4

// gateCheck is one comparison of the perf gate: a measured value, its
// committed counterpart, and the bound it had to meet.
type gateCheck struct {
	name                  string
	got, committed, bound float64
	pass                  bool
}

// allocBound is the allocs/slot ceiling for a committed baseline: the
// relative bound, never looser than the former absolute one (baseline
// + half an allocation per slot).
func allocBound(committed float64) float64 {
	return min(allocSlack*committed, committed+0.5)
}

// compareReports applies the gate's checks to a head measurement and the
// committed report. The checks are chosen to be machine-portable — CI
// runners and dev boxes differ, so raw slots/s against a committed
// absolute would gate on hardware, not code:
//
//   - the speedup ratio (event slots/s ÷ dense) must stay within
//     tolerance of the committed ratio — both engines run on the same
//     box in the same process, so the ratio cancels the hardware out and
//     catches fast-path regressions;
//   - allocs/slot per engine must stay within allocSlack of the
//     committed value — allocation counts are deterministic per
//     workload, hardware-independent, and the first thing accidental
//     per-slot garbage moves.
func compareReports(head, committed benchReport, tolerance float64) []gateCheck {
	floor := tolerance * committed.EventSpeedup
	checks := []gateCheck{{
		name: "speedup event/dense", got: head.EventSpeedup, committed: committed.EventSpeedup,
		bound: floor, pass: head.EventSpeedup >= floor,
	}}
	for _, c := range []struct {
		name      string
		got, base float64
	}{
		{"allocs/slot dense", head.Dense.AllocsPerSlot, committed.Dense.AllocsPerSlot},
		{"allocs/slot event", head.Event.AllocsPerSlot, committed.Event.AllocsPerSlot},
	} {
		bound := allocBound(c.base)
		checks = append(checks, gateCheck{name: c.name, got: c.got, committed: c.base, bound: bound, pass: c.got <= bound})
	}
	return checks
}

// runEngineCheck is the CI perf-regression gate: it re-measures the
// frozen engine scenario and compares it against a committed
// BENCH_sim.json (see compareReports), failing when head has regressed
// past the bounds. Absolute throughput is printed for context only.
// tolerance is the fraction of the committed speedup head must retain
// (0.85 = within 15%); raising it above 1 demands head be faster than
// the baseline, which is how the gate itself is smoke-tested.
func runEngineCheck(path string, quick bool, tolerance float64) error {
	if tolerance <= 0 {
		return fmt.Errorf("-tolerance %v: must be positive", tolerance)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed benchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if committed.Dense.SlotsPerSec <= 0 || committed.Event.SlotsPerSec <= 0 || committed.EventSpeedup <= 0 {
		return fmt.Errorf("%s: not an engine benchmark report (missing dense/event throughput)", path)
	}

	trials := uint64(benchTrials)
	if quick {
		trials = benchTrialsQuick
	}
	dense, event, err := measureEngines(trials)
	if err != nil {
		return err
	}
	head := benchReport{Dense: dense, Event: event, EventSpeedup: event.SlotsPerSec / dense.SlotsPerSec}

	var failures []string
	for _, c := range compareReports(head, committed, tolerance) {
		status := "ok"
		if !c.pass {
			status = "FAIL"
			failures = append(failures, c.name)
		}
		fmt.Printf("%-22s measured %.4g  committed %.4g  bound %.4g  %s\n",
			c.name, c.got, c.committed, c.bound, status)
	}
	fmt.Printf("context: dense %.0f slots/s (committed %.0f), event %.0f slots/s (committed %.0f)\n",
		dense.SlotsPerSec, committed.Dense.SlotsPerSec, event.SlotsPerSec, committed.Event.SlotsPerSec)
	if len(failures) > 0 {
		return fmt.Errorf("perf gate: %d check(s) regressed past their bounds (tolerance %.2f): %v",
			len(failures), tolerance, failures)
	}
	fmt.Printf("perf gate: all checks within bounds of %s (tolerance %.2f)\n", path, tolerance)
	return nil
}
