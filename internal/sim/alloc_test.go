package sim

import (
	"errors"
	"fmt"
	"testing"

	"multicast/internal/adversary"
	"multicast/internal/core"
	"multicast/internal/protocol"
)

// TestSlotLoopAllocFree pins the steady-state allocation rate of both
// slot loops at zero on a recycled Executor, at two node counts (n=1024
// exercises the buffer-growth paths the small case never touches). The
// workload never halts (full-spectrum jamming with a budget that
// outlasts MaxSlots), so two runs differing only in MaxSlots isolate the
// per-slot cost: the per-trial allocations (algorithm instance, nodes,
// the ErrMaxSlots wrap) are identical in both and cancel in the
// subtraction.
func TestSlotLoopAllocFree(t *testing.T) {
	for _, n := range []int{128, 1024} {
		n := n
		base := Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adversary.FullBurst(0),
			Budget:    1 << 40, // Eve outlasts MaxSlots: nodes can never halt
			Seed:      7,
		}
		const shortRun, longRun = int64(1) << 10, int64(5) << 10
		for _, engine := range []Engine{EngineDense, EngineEvent} {
			t.Run(fmt.Sprintf("%v/n%d", engine, n), func(t *testing.T) {
				exec := NewExecutor()
				run := func(maxSlots int64) {
					cfg := base
					cfg.Engine = engine
					cfg.MaxSlots = maxSlots
					if _, err := exec.Run(cfg); !errors.Is(err, ErrMaxSlots) {
						t.Fatalf("want ErrMaxSlots, got %v", err)
					}
				}
				run(longRun) // grow every pooled buffer past its steady-state size
				shortAllocs := testing.AllocsPerRun(3, func() { run(shortRun) })
				longAllocs := testing.AllocsPerRun(3, func() { run(longRun) })
				perSlot := (longAllocs - shortAllocs) / float64(longRun-shortRun)
				if perSlot > 0.001 {
					t.Errorf("slot loop allocates: %.4f allocs/slot (short run %.1f, long run %.1f)",
						perSlot, shortAllocs, longAllocs)
				}
			})
		}
	}
}

// TestExecutorRecycleMatchesRun: a recycled Executor must be
// indistinguishable from a fresh Run for every trial, including when the
// configuration shape changes between trials (N shrinking and growing,
// engines alternating).
func TestExecutorRecycleMatchesRun(t *testing.T) {
	mkCfg := func(n int, engine Engine, seed uint64) Config {
		return Config{
			N: n,
			Algorithm: func() (protocol.Algorithm, error) {
				return core.NewMultiCast(core.Sim(), n)
			},
			Adversary: adversary.RandomFraction(0.4),
			Budget:    6_000,
			Seed:      seed,
			Engine:    engine,
		}
	}
	cfgs := []Config{
		mkCfg(64, EngineEvent, 1),
		mkCfg(16, EngineDense, 2), // shrink
		mkCfg(64, EngineEvent, 3), // grow back, lean step
		mkCfg(32, EngineAuto, 4),
		mkCfg(32, EngineEvent, 5),
		mkCfg(32, EngineDense, 6),
	}
	exec := NewExecutor()
	for i, cfg := range cfgs {
		want, errW := Run(cfg)
		got, errG := exec.Run(cfg)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error mismatch: fresh %v, recycled %v", i, errW, errG)
		}
		if got != want {
			t.Fatalf("trial %d: recycled Executor diverges\n fresh    %+v\n recycled %+v", i, want, got)
		}
	}
}
