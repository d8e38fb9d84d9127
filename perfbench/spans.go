package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Attr  string `json:"attr,omitempty"`
}

// spanRecorder keeps spans in memory until the run ends. It is safe
// for concurrent use: validator callbacks record from the engine's
// worker goroutines.
//
// A traced run alternates recording on and off in one-second slices,
// and charges the process CPU and committed transactions of each slice
// to its side, so the tracing overhead is measured within one run,
// with machine drift cancelling out.
type spanRecorder struct {
	origin time.Time
	nextID atomic.Int64
	// round is the ID of the facade round span in flight, the parent
	// of validator spans.
	round atomic.Int64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span

	// slice bookkeeping, touched only by the driving goroutine.
	sliceStart     time.Time
	sliceCPU       time.Duration
	sliceCommitted int
	onCPU, offCPU  time.Duration
	onTx, offTx    int
}

func newSpanRecorder() *spanRecorder {
	r := &spanRecorder{origin: time.Now()}
	r.on.Store(true)
	return r
}

// begin opens a span if recording is on; the returned function closes
// it. A nil recorder records nothing.
func (r *spanRecorder) begin(name string, parent int64) (id int64, end func(attr string)) {
	if r == nil || !r.on.Load() {
		return 0, func(string) {}
	}
	id = r.nextID.Add(1)
	start := time.Since(r.origin).Nanoseconds()
	return id, func(attr string) {
		s := span{ID: id, Parent: parent, Name: name, Start: start, End: time.Since(r.origin).Nanoseconds(), Attr: attr}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// beginRound opens a facade round span and makes it the parent of the
// validator spans recorded until it closes.
func (r *spanRecorder) beginRound() (end func(attr string)) {
	if r == nil {
		return func(string) {}
	}
	id, endSpan := r.begin("round", 0)
	r.round.Store(id)
	return func(attr string) {
		r.round.Store(0)
		endSpan(attr)
	}
}

// roundID returns the facade round span in flight, 0 when none.
func (r *spanRecorder) roundID() int64 {
	if r == nil {
		return 0
	}
	return r.round.Load()
}

// event records a span between two instants already measured.
func (r *spanRecorder) event(name string, from, to time.Time, attr string) {
	if r == nil {
		return
	}
	s := span{ID: r.nextID.Add(1), Name: name, Start: from.Sub(r.origin).Nanoseconds(), End: to.Sub(r.origin).Nanoseconds(), Attr: attr}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// slice flips recording on or off once a second and charges the CPU
// and commits since the last flip to the side that was active. Call it
// from the driving goroutine, between rounds, with the running count
// of committed valid transactions.
func (r *spanRecorder) slice(now time.Time, committed int) {
	if r == nil {
		return
	}
	if r.sliceStart.IsZero() {
		r.sliceStart, r.sliceCPU, r.sliceCommitted = now, processCPU(), committed
		return
	}
	if now.Sub(r.sliceStart) < time.Second {
		return
	}
	cpu := processCPU()
	dCPU, dTx := cpu-r.sliceCPU, committed-r.sliceCommitted
	if r.on.Load() {
		r.onCPU += dCPU
		r.onTx += dTx
	} else {
		r.offCPU += dCPU
		r.offTx += dTx
	}
	r.on.Store(!r.on.Load())
	r.sliceStart, r.sliceCPU, r.sliceCommitted = now, cpu, committed
}

// finish closes the open slice and turns recording back on for the
// checks that follow the measured run. committed is the final count of
// committed valid transactions.
func (r *spanRecorder) finish(now time.Time, committed int) {
	if r == nil || r.sliceStart.IsZero() {
		return
	}
	r.sliceStart = now.Add(-time.Second)
	r.slice(now, committed)
	r.sliceStart = time.Time{}
	r.on.Store(true)
}

// tracedTx returns how many committed transactions the spans cover:
// those of the recording slices when the run alternated, else all.
func (r *spanRecorder) tracedTx(committed int) int {
	if r.onTx+r.offTx > 0 {
		return r.onTx
	}
	return committed
}

// overhead is CPU per committed transaction with recording on over
// CPU per transaction with it off, minus one; 0 when either side saw
// no commits.
func (r *spanRecorder) overhead() float64 {
	if r == nil || r.onTx == 0 || r.offTx == 0 || r.offCPU == 0 {
		return 0
	}
	on := float64(r.onCPU) / float64(r.onTx)
	off := float64(r.offCPU) / float64(r.offTx)
	return on/off - 1
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	// durs are the span durations in nanoseconds.
	durs []float64
	// selfNS sums each span's duration minus the part of its interval
	// its children cover.
	selfNS float64
}

// aggregate groups spans by name and computes self time: a span's
// duration minus the union of its children's intervals clipped to it,
// so children running in parallel are not counted twice.
func aggregate(spans []span) map[string]*spanStat {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		st.durs = append(st.durs, float64(dur))
		st.selfNS += float64(dur - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeJSONL writes every span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
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
