package driver

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"multicast/internal/campaign"
)

// summaryBytes renders a summary exactly as Write persists it — the
// byte-identity the steal tests compare.
func summaryBytes(t testing.TB, s *campaign.Summary) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "summary.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// skewHook slows cells down proportionally to their shard index —
// deliberately heterogeneous per-worker speeds, so contiguous leases
// drain at very different rates and idle workers must steal.
func skewHook(shard, attempt, done int) error {
	time.Sleep(time.Duration(shard) * 2 * time.Millisecond)
	return nil
}

// The acceptance wall: for k both below and above the point count, a
// steal-scheduled campaign with skewed worker speeds merges
// byte-identically to the static-scheduled one (and, at k=1, to the
// unsharded artifact) — stealing changes who computes a cell, never
// where it lands — and a mid-campaign kill resumed under steal is
// byte-identical too.
func TestStealMergeIdentity(t *testing.T) {
	spec := testSpec(6)
	want := unsharded(t, spec)
	wantBytes := summaryBytes(t, want)

	for _, k := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			staticSum, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			staticBytes := summaryBytes(t, staticSum)

			stealSum, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: t.TempDir(),
				Schedule: ScheduleSteal, CellHook: skewHook,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryBytes(t, stealSum); !bytes.Equal(got, staticBytes) {
				t.Errorf("steal-merged artifact differs from the static-merged one at k=%d", k)
			}
			if k == 1 {
				if got := summaryBytes(t, stealSum); !bytes.Equal(got, wantBytes) {
					t.Errorf("k=1 steal artifact differs from the unsharded artifact")
				}
			}
			assertSameSummaries(t, stealSum, want)

			// Mid-campaign kill: a worker crash fails the whole pool (it
			// is one process); -resume under steal finishes from the
			// checkpoints, still byte-identical.
			dir := t.TempDir()
			boom := fmt.Errorf("injected steal kill")
			_, err = Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: dir, Schedule: ScheduleSteal,
				CellHook: func(shard, attempt, done int) error {
					if shard == 0 && done == 2 {
						return boom
					}
					return skewHook(shard, attempt, done)
				},
			})
			if err == nil || !strings.Contains(err.Error(), "steal pool failed") {
				t.Fatalf("kill run err = %v, want a steal pool failure", err)
			}
			resumed, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: dir, Resume: true,
				Schedule: ScheduleSteal, CellHook: skewHook,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := summaryBytes(t, resumed); !bytes.Equal(got, staticBytes) {
				t.Errorf("killed+resumed steal artifact differs from the static-merged one at k=%d", k)
			}
		})
	}
}

// Checkpoints are schedule-agnostic: a campaign killed under one
// schedule resumes exactly under the other, because either way every
// sidecar covers a prefix of its shard's slice.
func TestStealCrossScheduleResume(t *testing.T) {
	spec := testSpec(6)
	const k = 3
	clean, err := Run(context.Background(), spec, Options{Shards: k, Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := summaryBytes(t, clean)

	for _, tc := range []struct {
		name         string
		kill, resume Schedule
	}{
		{"steal-then-static", ScheduleSteal, ScheduleStatic},
		{"static-then-steal", ScheduleStatic, ScheduleSteal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: dir, Schedule: tc.kill,
				CellHook: func(shard, attempt, done int) error {
					if shard == 1 && done == 2 {
						return fmt.Errorf("injected kill")
					}
					return nil
				},
			})
			if err == nil {
				t.Fatal("kill run succeeded")
			}
			sum, err := Run(context.Background(), spec, Options{
				Shards: k, Workers: 2, Dir: dir, Resume: true, Schedule: tc.resume,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := summaryBytes(t, sum); !bytes.Equal(got, cleanBytes) {
				t.Errorf("cross-schedule resume diverges from a clean k=%d run", k)
			}
		})
	}
}

func TestParseSchedule(t *testing.T) {
	for in, want := range map[string]Schedule{
		"": ScheduleStatic, "static": ScheduleStatic, "steal": ScheduleSteal,
	} {
		got, err := ParseSchedule(in)
		if err != nil || got != want {
			t.Errorf("ParseSchedule(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseSchedule("round-robin"); err == nil || !strings.Contains(err.Error(), "unknown schedule") {
		t.Errorf("ParseSchedule(round-robin) err = %v, want unknown-schedule", err)
	}
}

// The lease scheduler must hand out every cell exactly once, however
// claims and steals interleave across concurrent workers.
func TestStealSchedulerClaims(t *testing.T) {
	for _, tc := range []struct{ total, workers int }{
		{12, 4}, {13, 3}, {5, 8}, {1, 1}, {100, 7},
	} {
		sched := newStealScheduler(tc.total, tc.workers)
		var mu sync.Mutex
		seen := make([]int, tc.total)
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					g, ok := sched.claim(w)
					if !ok {
						return
					}
					mu.Lock()
					seen[g]++
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		for g, n := range seen {
			if n != 1 {
				t.Errorf("total=%d workers=%d: cell %d claimed %d times", tc.total, tc.workers, g, n)
			}
		}
	}
}
