package main

import (
	"fmt"
	"math"

	"multicast"
)

// pointPrint is the integer content of one campaign point: what a
// correct campaign must reproduce exactly, whatever its shard layout,
// schedule or cache state. Float state is deliberately absent — driven
// and undriven artifacts differ in the last ulp of their Welford
// moments, so only content is compared, never bytes.
type pointPrint struct {
	Label         string
	Trials        int64
	Slots         int64 // Σ Metrics.Slots
	EveEnergy     int64 // Σ Metrics.EveEnergy
	MaxNodeEnergy int64 // max over trials of Metrics.MaxNodeEnergy
	Invariants    multicast.InvariantCounts
}

// fingerprint is a campaign's per-point integer content, in point order.
type fingerprint []pointPrint

// add folds one cell's metrics into point p — the reference side,
// computed from raw metrics in exact integer arithmetic.
func (f fingerprint) add(p int, m multicast.Metrics) {
	pp := &f[p]
	pp.Trials++
	pp.Slots += m.Slots
	pp.EveEnergy += m.EveEnergy
	pp.MaxNodeEnergy = max(pp.MaxNodeEnergy, m.MaxNodeEnergy)
	pp.Invariants.Add(m.Invariants)
}

// newFingerprint returns an empty fingerprint over the template's points.
func newFingerprint(tmpl *multicast.Summary) fingerprint {
	f := make(fingerprint, len(tmpl.Points))
	for i, p := range tmpl.Points {
		f[i].Label = p.Label
	}
	return f
}

// summaryPrint reads the fingerprint back out of a merged summary. Sums
// come from mean × count, rounded: the samples are integers, so the
// rounding recovers the exact sum while it stays far below 2^53.
func summaryPrint(s *multicast.Summary) fingerprint {
	f := make(fingerprint, len(s.Points))
	for i, p := range s.Points {
		c := p.Collector
		slots, eve, maxE := c.Slots(), c.EveEnergy(), c.MaxEnergy()
		f[i] = pointPrint{
			Label:         p.Label,
			Trials:        c.Trials(),
			Slots:         int64(math.Round(slots.Mean * float64(slots.Count))),
			EveEnergy:     int64(math.Round(eve.Mean * float64(eve.Count))),
			MaxNodeEnergy: int64(maxE.Max),
			Invariants:    c.Invariants(),
		}
	}
	return f
}

// slots is the fingerprint's total Σ Metrics.Slots over all points.
func (f fingerprint) slots() int64 {
	var n int64
	for _, p := range f {
		n += p.Slots
	}
	return n
}

// compare returns nil when got matches want point for point, or an
// error naming the first differing point and field values.
func (want fingerprint) compare(got fingerprint) error {
	if len(got) != len(want) {
		return fmt.Errorf("summary has %d points, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("point %d (%s): summary %+v, undriven reference %+v",
				i, want[i].Label, got[i], want[i])
		}
	}
	return nil
}
