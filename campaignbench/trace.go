package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"multicast/internal/cache"
	"multicast/internal/sim"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the enclosing span's ID (0 for a
// root); Run names the workload run the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layer is the module a span's time is charged to: its name up to the
// first dot ("checkpoint.flush" → "checkpoint").
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out.
// It is safe for concurrent use; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: nanoseconds since the epoch.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(run string, parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start})
	return len(t.spans)
}

// reserve makes room for n more spans, so recording them does not
// allocate inside a measured loop.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = slices.Grow(t.spans, n)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records an already finished span.
func (t *tracer) add(run string, parent int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start, End: end})
}

// spansOf returns a copy of every span of one workload run, with self
// times filled in.
func (t *tracer) spansOf(run string) []span {
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self: its duration minus the part of its
// interval covered by the union of its children's intervals. Children
// of one parent may overlap (concurrent shards), so the union — not the
// sum — is subtracted.
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span as one JSON object per line, self times
// filled in, runs in the order they were recorded.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// keyedCache adapts a cache.Store to the runner grid's CellCache seam
// with the driver's content addresses, precomputed per grid cell. It is
// safe for concurrent use, like the store.
type keyedCache struct {
	store *cache.Store
	keys  []string
}

func (c *keyedCache) Load(idx int) (sim.Metrics, bool) { return c.store.Load(c.keys[idx]) }

// Store is best-effort, as in the driver: a failed write costs only a
// later re-simulation, and the warm workload's miss check catches it.
func (c *keyedCache) Store(idx int, m sim.Metrics) { _ = c.store.Put(c.keys[idx], m) }

// tracedCache is the timing CellCache: it times each lookup and store
// as cache spans, and since the grid calls Load right before a cell
// simulates and Store right after, it also brackets the simulation as a
// sim span. With no keyed cache it misses every lookup at no cost, so a
// cacheless grid still gets its sim spans. One goroutine must drive it
// (a runner sweep with one worker, or a serial RunCell loop).
type tracedCache struct {
	keyed  *keyedCache // nil: no cache behind the seam
	tr     *tracer
	run    string
	parent int

	simStart     int64
	hits, misses int
	simNs        []int64 // duration of each simulated cell
	slots        int64   // Σ Metrics.Slots of the simulated cells
}

func (c *tracedCache) Load(idx int) (sim.Metrics, bool) {
	if c.keyed != nil {
		id := c.tr.begin(c.run, c.parent, "cache.load")
		m, ok := c.keyed.Load(idx)
		c.tr.end(id)
		if ok {
			c.hits++
			return m, true
		}
		c.misses++
	}
	c.simStart = c.tr.now()
	return sim.Metrics{}, false
}

func (c *tracedCache) Store(idx int, m sim.Metrics) {
	end := c.tr.now()
	c.tr.add(c.run, c.parent, "sim.cell", c.simStart, end)
	c.simNs = append(c.simNs, end-c.simStart)
	c.slots += m.Slots
	if c.keyed != nil {
		id := c.tr.begin(c.run, c.parent, "cache.store")
		c.keyed.Store(idx, m)
		c.tr.end(id)
	}
}

// layerSelf sums the self time of a run's spans per layer.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += s.Self
	}
	return out
}

// durations returns the durations (ns) of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
