package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// checkAscending fails unless ids is strictly ascending and exactly the
// set want.
func checkAscending(t *testing.T, ids, want []int) {
	t.Helper()
	sorted := append([]int(nil), want...)
	sort.Ints(sorted)
	if len(ids) != len(sorted) {
		t.Fatalf("popSlot returned %d ids, want %d (%v vs %v)", len(ids), len(sorted), ids, sorted)
	}
	for i := range ids {
		if ids[i] != sorted[i] {
			t.Fatalf("popSlot order wrong at %d: got %v, want %v", i, ids, sorted)
		}
		if i > 0 && ids[i] <= ids[i-1] {
			t.Fatalf("popSlot not strictly ascending at %d: %v", i, ids)
		}
	}
}

// TestWakeHeapOrder pushes randomized wakes into the overflow heap and
// checks that popMin drains them in non-decreasing slot order, with
// interleaved pushes and pops reusing the backing array.
func TestWakeHeapOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	var h wakeHeap
	var pending []int64
	for round := 0; round < 50; round++ {
		for k := 0; k < 1+rnd.Intn(40); k++ {
			s := int64(rnd.Intn(10_000))
			h.push(wakeEntry{slot: s, id: int32(k)})
			pending = append(pending, s)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		for k := rnd.Intn(len(pending) + 1); k > 0; k-- {
			if got := h.popMin().slot; got != pending[0] {
				t.Fatalf("round %d: popMin = %d, want %d", round, got, pending[0])
			}
			pending = pending[1:]
		}
		if len(h) != len(pending) {
			t.Fatalf("round %d: heap holds %d, want %d", round, len(h), len(pending))
		}
	}
}

// popOrders are the bucket push orders that matter to popSlot, each
// listed in push order: already sorted, interleaved ascending batches,
// fully descending singletons (the shape overflow migration produces),
// and mixtures of them.
var popOrders = []struct {
	name string
	ids  []int
}{
	{"already-sorted", []int{0, 1, 2, 3, 5, 8, 13, 21, 34}},
	{"two-interleaved-batches", []int{0, 3, 6, 9, 12, 15, 1, 4, 7, 10, 13, 16}},
	{"descending-singletons", descending(63)},
	{"batches-then-descending-tail", append(append([]int{2, 5, 11, 17}, descending(40)[:20]...), 0, 19, 50)},
	{"single", []int{42}},
}

// descending returns hi, hi-1, …, 0.
func descending(hi int) []int {
	ids := make([]int, 0, hi+1)
	for id := hi; id >= 0; id-- {
		ids = append(ids, id)
	}
	return ids
}

// popSpread scales popOrders' ids apart so a bucket's handful of ids
// spans a large id space: popSlot then drains it through the sort
// fallback instead of the id-bitmap readout.
const popSpread = 1000

// checkDrained fails unless the wheel holds no wake and its id bitmap
// is clean again.
func checkDrained(t *testing.T, w *eventWheel) {
	t.Helper()
	if w.size != 0 {
		t.Fatalf("size = %d after draining, want 0", w.size)
	}
	if w.summary != 0 {
		t.Fatalf("summary = %#x after draining, want 0", w.summary)
	}
	for wd, word := range w.idbits {
		if word != 0 {
			t.Fatalf("id bitmap word %d left set (%#x)", wd, word)
		}
	}
}

// TestEventWheelPopSlotOrders drives the wheel's chain collection and
// id-bitmap readout (small id space) through popOrders.
func TestEventWheelPopSlotOrders(t *testing.T) {
	const slot = int64(7)
	for _, tc := range popOrders {
		t.Run(tc.name, func(t *testing.T) {
			w := newEventWheel(64)
			for _, id := range tc.ids {
				w.push(slot, int32(id))
			}
			checkAscending(t, w.popSlot(slot, nil), tc.ids)
			checkDrained(t, w)
		})
	}
}

// TestPopSlotWorstCaseRuns drives popSlot's sort fallback through the
// push orders that degrade a naive bucket sort to O(k²) — interleaved
// ascending batches, fully descending singletons, and mixtures — plus
// the already-sorted common case, with the ids spread across a large id
// space so the bitmap readout steps aside.
func TestPopSlotWorstCaseRuns(t *testing.T) {
	const slot = int64(5)
	for _, tc := range popOrders {
		t.Run(tc.name, func(t *testing.T) {
			w := newEventWheel(64 * popSpread)
			want := make([]int, len(tc.ids))
			for i, id := range tc.ids {
				want[i] = id * popSpread
				w.push(slot, int32(want[i]))
			}
			checkAscending(t, w.popSlot(slot, nil), want)
			checkDrained(t, w)
		})
	}
}

// TestPopSlotOverflowMigration pushes far-future wakes with scattered
// ids through the heap tier and verifies that after the window
// advances, the sort fallback still emits the migrated bucket in
// ascending id order — migration links heap entries one by one, so a
// bucket can hold many length-1 runs.
func TestPopSlotOverflowMigration(t *testing.T) {
	w := newEventWheel(100 * popSpread)
	const slot = int64(3 * wheelWindow)
	var want []int
	for id := 99; id >= 0; id-- {
		w.push(slot, int32(id*popSpread))
		want = append(want, id*popSpread)
	}
	if len(w.overflow) != 100 {
		t.Fatalf("expected all pushes in overflow, got %d", len(w.overflow))
	}
	w.advance(slot)
	checkAscending(t, w.popSlot(slot, nil), want)
	checkDrained(t, w)
}

// TestPopSlotReusedBucketsRandomized cycles one wheel through many slot
// generations with randomized interleaved batches over a large id
// space, checking every pop against a sort oracle — the chain array,
// id bitmap and sort scratch are all reused across generations, exactly
// as in a pooled execution, and buckets take both the bitmap and the
// sort path.
func TestPopSlotReusedBucketsRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	w := newEventWheel(64)
	cur := int64(0)
	for gen := 0; gen < 200; gen++ {
		w.advance(cur)
		var want []int
		seen := map[int]bool{}
		for batch := 0; batch < 1+rnd.Intn(4); batch++ {
			// Each batch is ascending (as real push sources are), with
			// random gaps; batches interleave arbitrarily.
			id := rnd.Intn(10)
			for len(want) < 48 && id < 64_000 {
				if !seen[id] {
					seen[id] = true
					w.push(cur, int32(id))
					want = append(want, id)
				}
				id += 1 + rnd.Intn(30*(1+gen%64))
			}
		}
		checkAscending(t, w.popSlot(cur, nil), want)
		checkDrained(t, w)
		cur += int64(1 + rnd.Intn(3*wheelWindow))
	}
}

// TestEventWheelNextWakeSlot exercises the two-level bitmap scan across
// all its branches: same group, later group, window wrap-around, and
// the overflow-only case.
func TestEventWheelNextWakeSlot(t *testing.T) {
	w := newEventWheel(16)
	if _, ok := w.nextWakeSlot(0); ok {
		t.Fatal("empty wheel reported a wake")
	}
	check := func(cur, want int64) {
		t.Helper()
		got, ok := w.nextWakeSlot(cur)
		if !ok || got != want {
			t.Fatalf("nextWakeSlot(%d) = %d,%v, want %d,true", cur, got, ok, want)
		}
	}
	// Same-bucket hit and same-group scan.
	w.push(10, 1)
	check(10, 10)
	check(3, 10)
	// Later-group scan.
	w.push(700, 2)
	_ = w.popSlot(10, nil)
	check(11, 700)
	// Wrap-around: after advancing past the bucket's group, the only
	// remaining wake sits "behind" the cursor position modulo the window.
	w2 := newEventWheel(16)
	w2.advance(100)
	w2.push(100+wheelWindow-1, 5) // bucket just below cursor position 100
	check2 := func(cur, want int64) {
		t.Helper()
		got, ok := w2.nextWakeSlot(cur)
		if !ok || got != want {
			t.Fatalf("nextWakeSlot(%d) = %d,%v, want %d,true", cur, got, ok, want)
		}
	}
	check2(100, 100+wheelWindow-1)
	// Overflow-only: a far-future wake with empty buckets.
	w3 := newEventWheel(16)
	w3.push(10*wheelWindow, 3)
	if got, ok := w3.nextWakeSlot(0); !ok || got != 10*wheelWindow {
		t.Fatalf("overflow-only nextWakeSlot = %d,%v, want %d,true", got, ok, int64(10*wheelWindow))
	}
}

// TestEventWheelOverflowMigration pushes far-future wakes through the
// heap tier and verifies that after the window advances, popSlot emits
// the migrated bucket in ascending id order.
func TestEventWheelOverflowMigration(t *testing.T) {
	w := newEventWheel(128)
	const slot = int64(3 * wheelWindow)
	var want []int
	for id := 99; id >= 0; id-- {
		w.push(slot, int32(id))
		want = append(want, id)
	}
	if len(w.overflow) != 100 {
		t.Fatalf("expected all pushes in overflow, got %d", len(w.overflow))
	}
	w.advance(slot)
	got := w.popSlot(slot, nil)
	checkAscending(t, got, want)
}

// TestEventWheelRandomizedOracle cycles one wheel through many slot
// generations — spread across multiple buckets per generation, with
// resets interleaved — checking every pop against a sort oracle. The
// chain array, id bitmap and bucket scratch are all reused across
// generations, exactly as in a pooled execution.
func TestEventWheelRandomizedOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	w := newEventWheel(64)
	cur := int64(0)
	for gen := 0; gen < 300; gen++ {
		if gen%97 == 0 {
			w.reset()
			cur = 0
		}
		w.advance(cur)
		// Schedule unique ids across a handful of nearby (and a few
		// far-future) slots.
		slots := make(map[int64][]int)
		seen := map[int]bool{}
		for k := 0; k < 1+rnd.Intn(40); k++ {
			id := rnd.Intn(1000)
			if seen[id] {
				continue
			}
			seen[id] = true
			gap := int64(rnd.Intn(12))
			if rnd.Intn(8) == 0 {
				gap = int64(wheelWindow + rnd.Intn(2*wheelWindow))
			}
			s := cur + gap
			slots[s] = append(slots[s], id)
			w.push(s, int32(id))
		}
		// Drain in event order until the wheel is empty.
		for w.size > 0 {
			next, ok := w.nextWakeSlot(cur)
			if !ok {
				t.Fatalf("gen %d: size %d but no next wake", gen, w.size)
			}
			cur = next
			w.advance(cur)
			got := w.popSlot(cur, nil)
			want, ok := slots[cur]
			if !ok {
				t.Fatalf("gen %d: popped slot %d with no scheduled wakes (%v)", gen, cur, got)
			}
			checkAscending(t, got, want)
			delete(slots, cur)
			cur++
		}
		if len(slots) != 0 {
			t.Fatalf("gen %d: wheel drained but %d slots unpopped", gen, len(slots))
		}
		cur += int64(rnd.Intn(3 * wheelWindow))
	}
}
