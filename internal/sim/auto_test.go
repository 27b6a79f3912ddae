package sim_test

import (
	"testing"

	"multicast/internal/scenario"
	"multicast/internal/sim"
)

// TestAutoEngineChoice pins the engine Auto resolves each registered
// workload point to, at the registry's default seed: dense where it
// cannot skip (an adaptive Eve observes every slot) or the schedule is
// too dense to pay for the calendar, event everywhere else. The two
// engine-matrix density rows sit on either side of the eventAutoGap
// crossover.
func TestAutoEngineChoice(t *testing.T) {
	want := map[string]map[string]sim.Engine{
		"engine-matrix": {
			"multicastcore p=1/2": sim.EngineDense,
			"multicastcore p=1/4": sim.EngineEvent,
		},
		"jammer-gauntlet": {
			"adv=none":             sim.EngineEvent,
			"adv=full-burst":       sim.EngineEvent,
			"adv=fraction-0.5":     sim.EngineEvent,
			"adv=random-0.5":       sim.EngineEvent,
			"adv=sweep-8":          sim.EngineEvent,
			"adv=pulse":            sim.EngineEvent,
			"adv=bursty":           sim.EngineEvent,
			"adv=burst-then-quiet": sim.EngineEvent,
			"adv=reactive-0.5":     sim.EngineDense,
			"adv=camper":           sim.EngineDense,
		},
		"alpha-regimes": {
			"alpha=0.10": sim.EngineEvent,
		},
	}
	for name, labels := range want {
		scen, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		seen := 0
		for _, p := range scen.Points(scenario.Options{Seed: 1}) {
			engine, ok := labels[p.Label]
			if !ok {
				continue
			}
			seen++
			cfg, err := p.Config.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, gap, err := sim.ResolveAuto(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != engine {
				t.Errorf("%s %s: Auto picks %v (mean first-wake gap %.3f), want %v", name, p.Label, got, gap, engine)
			}
		}
		if seen != len(labels) {
			t.Errorf("%s: matched %d of %d pinned points", name, seen, len(labels))
		}
	}
}
