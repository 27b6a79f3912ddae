package driver

import "fmt"

// EventKind classifies a progress event.
type EventKind string

const (
	// EventStart: a shard worker attempt begins (Done cells already
	// checkpointed when resuming).
	EventStart EventKind = "start"
	// EventCell: a shard worker completed (and checkpointed) one grid
	// cell.
	EventCell EventKind = "cell"
	// EventShardDone: a shard's artifact is complete on disk.
	EventShardDone EventKind = "shard-done"
	// EventRetry: a shard attempt failed and will be retried (resuming
	// from its checkpoint when one exists).
	EventRetry EventKind = "retry"
	// EventDiscard: a shard artifact on disk was corrupt or misdelivered
	// (wrong shard slot, same campaign) and has been deleted; the shard
	// re-runs. Err carries the reason.
	EventDiscard EventKind = "discard"
)

// Event is one per-shard progress notification. Events are delivered
// serially (never concurrently) but interleave across shards.
//
// An Event marshals to one compact JSON object (the `mcast
// -progress-json` stream), so every field that should reach an external
// watcher carries a tag. Err itself cannot round-trip JSON — error is
// an interface — so emit mirrors it into ErrText and Err is excluded
// from the encoding; in-process consumers keep the typed error.
type Event struct {
	// Shard is the shard index, 0 ≤ Shard < Shards.
	Shard int `json:"shard"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Done and Total count this shard's grid cells (local, not global).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Attempt numbers the worker attempt, starting at 0.
	Attempt int `json:"attempt"`
	// Err carries the failure on EventRetry and EventDiscard. In-process
	// only: JSON consumers read ErrText instead.
	Err error `json:"-"`
	// ErrText is Err's message, filled in by the driver as it emits the
	// event — the JSON-safe image of Err.
	ErrText string `json:"err,omitempty"`
	// Cache annotates an EventCell when the campaign runs with a result
	// cache: CacheHit for a cell replayed from the cache, CacheMiss for
	// one that simulated (and stored its result). Empty — and absent
	// from the JSON stream — when no cache is configured.
	Cache string `json:"cache,omitempty"`
}

const (
	// CacheHit marks a cell whose result was replayed from the cache.
	CacheHit = "hit"
	// CacheMiss marks a cell that was simulated.
	CacheMiss = "miss"
)

// Schedule picks how a driven campaign's grid cells are distributed
// over its workers.
type Schedule string

const (
	// ScheduleStatic is the default layout: shard i owns the cells
	// g ≡ i (mod k) and runs them on its own worker pool, independent of
	// every other shard.
	ScheduleStatic Schedule = "static"
	// ScheduleSteal runs one work-stealing pool of Shards×Workers
	// workers over the whole grid: workers claim contiguous cell ranges
	// and re-split the largest remaining range when one goes idle, so
	// heterogeneous workers finish together instead of idling behind the
	// slowest shard. The artifact layout is unchanged — a fold stage
	// replays each shard's cells in ascending grid order, so stealing
	// changes who computes a cell, never where it lands.
	ScheduleSteal Schedule = "steal"
)

// ParseSchedule resolves a schedule name; the empty string is
// ScheduleStatic, anything else unknown is an error.
func ParseSchedule(s string) (Schedule, error) {
	switch Schedule(s) {
	case "", ScheduleStatic:
		return ScheduleStatic, nil
	case ScheduleSteal:
		return ScheduleSteal, nil
	}
	return "", fmt.Errorf("driver: unknown schedule %q (want %q or %q)", s, ScheduleStatic, ScheduleSteal)
}
