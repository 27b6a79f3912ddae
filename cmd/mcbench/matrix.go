package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"multicast"
)

// matrixWorkload is one row of the engine benchmark matrix: an algorithm
// at a given schedule density. Density is what separates the engines —
// the event engine wins exactly when few nodes act per slot — so each
// algorithm appears at the densities that matter for it.
type matrixWorkload struct {
	name string
	cfg  multicast.Config
}

// matrixWorkloads enumerates the benchmark rows through the scenario
// registry's fixed "engine-matrix" workload grid (n=128, half spectrum
// jammed — comparable across PRs; the registry ignores overrides for
// it). The same points are reachable as `mcast -scenario engine-matrix`.
func matrixWorkloads() []matrixWorkload {
	scen, ok := multicast.ScenarioByName("engine-matrix")
	if !ok {
		panic("mcbench: engine-matrix scenario missing from the registry")
	}
	points := multicast.ExpandScenario(scen, multicast.ScenarioOptions{Seed: 1})
	rows := make([]matrixWorkload, len(points))
	for i, p := range points {
		rows[i] = matrixWorkload{name: p.Label, cfg: p.Config}
	}
	return rows
}

// matrixTrials is the trial count per cell; each cell is timed in
// matrixReps interleaved passes and reports its fastest (see benchReps).
const (
	matrixTrials      = 8
	matrixTrialsQuick = 2
	matrixReps        = 5
)

// matrixCell is one (workload, engine) measurement.
type matrixCell struct {
	Slots       int64   `json:"slots"`
	Seconds     float64 `json:"seconds"`
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// matrixRow is one workload's measurements across engines. Speedups are
// relative to the dense reference loop; AutoVsBest is Auto's throughput
// as a fraction of the faster explicit engine's (1 = Auto chose the
// winner at no cost).
type matrixRow struct {
	Workload     string     `json:"workload"`
	Trials       int        `json:"trials"`
	Dense        matrixCell `json:"dense"`
	Event        matrixCell `json:"event"`
	Auto         matrixCell `json:"auto"`
	EventSpeedup float64    `json:"event_speedup"`
	AutoVsBest   float64    `json:"auto_vs_best"`
}

// runMatrixCell measures one workload on one engine. Trials run through
// the trial runner with a single worker, so the measurement is serial
// and comparable while exercising the production execution path.
func runMatrixCell(cfg multicast.Config, engine multicast.Engine, trials int) (matrixCell, error) {
	cfg.Engine = engine
	var cell matrixCell
	start := time.Now()
	err := multicast.RunTrialsContext(context.Background(), cfg,
		multicast.TrialPlan{Trials: trials, Workers: 1},
		func(_ int, m multicast.Metrics) error {
			cell.Slots += m.Slots
			return nil
		})
	if err != nil {
		return cell, err
	}
	cell.Seconds = time.Since(start).Seconds()
	cell.SlotsPerSec = float64(cell.Slots) / cell.Seconds
	return cell, nil
}

// runMatrix prints the algorithms × engines × densities benchmark table
// and optionally writes the rows as JSON.
func runMatrix(outPath string, quick bool) error {
	trials := matrixTrials
	if quick {
		trials = matrixTrialsQuick
	}
	rows := make([]matrixRow, 0, len(matrixWorkloads()))
	for _, w := range matrixWorkloads() {
		var cells [3]matrixCell
		for rep := 0; rep < matrixReps; rep++ {
			for i, engine := range []multicast.Engine{multicast.EngineDense, multicast.EngineEvent, multicast.EngineAuto} {
				cell, err := runMatrixCell(w.cfg, engine, trials)
				if err != nil {
					return fmt.Errorf("%s %v: %w", w.name, engine, err)
				}
				if rep == 0 || cell.Seconds < cells[i].Seconds {
					cells[i] = cell
				}
			}
		}
		dense, event, auto := cells[0], cells[1], cells[2]
		// The matrix doubles as an engine-parity check on every workload.
		if dense.Slots != event.Slots || dense.Slots != auto.Slots {
			return fmt.Errorf("%s: engine divergence — dense %d slots, event %d, auto %d",
				w.name, dense.Slots, event.Slots, auto.Slots)
		}
		rows = append(rows, matrixRow{
			Workload: w.name, Trials: trials,
			Dense: dense, Event: event, Auto: auto,
			EventSpeedup: event.SlotsPerSec / dense.SlotsPerSec,
			AutoVsBest:   auto.SlotsPerSec / max(dense.SlotsPerSec, event.SlotsPerSec),
		})
	}

	fmt.Printf("engine benchmark matrix (scenario engine-matrix: n=128, 50%% spectrum jammed, %d trials/cell, serial, fastest of %d passes)\n\n",
		trials, matrixReps)
	fmt.Printf("%-22s  %12s  %14s  %14s  %8s  %14s  %9s\n",
		"workload", "slots", "dense slots/s", "event slots/s", "speedup", "auto slots/s", "auto/best")
	fmt.Println(strings.Repeat("-", 103))
	for _, r := range rows {
		fmt.Printf("%-22s  %12d  %14.0f  %14.0f  %7.2fx  %14.0f  %9.2f\n",
			r.Workload, r.Dense.Slots, r.Dense.SlotsPerSec, r.Event.SlotsPerSec, r.EventSpeedup,
			r.Auto.SlotsPerSec, r.AutoVsBest)
	}
	fmt.Println("\nengines agreed on total slots for every workload (bit-identity holds)")

	if outPath != "" {
		data, err := json.MarshalIndent(map[string]any{
			"benchmark": "sim-engine-matrix",
			"generated": time.Now().UTC().Format(time.RFC3339),
			"rows":      rows,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("matrix written to %s\n", outPath)
	}
	return nil
}
