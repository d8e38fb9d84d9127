package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for the
// benchmark to report it.
const minBeyond = 10

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of an n-sample set that lie strictly above
// its q-quantile rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// supportedQuantile returns the highest quantile not above q that has
// at least minBeyond samples beyond it in an n-sample set, and false
// when even the median lacks that support.
func supportedQuantile(n int, q float64) (float64, bool) {
	if beyond(n, q) >= minBeyond {
		return q, true
	}
	alt := float64(n-minBeyond) / float64(n)
	for alt > 0 && beyond(n, alt) < minBeyond {
		alt -= 1 / float64(n)
	}
	if alt < 0.5 {
		return 0, false
	}
	return alt, true
}

// median returns the median of vs (0 when empty) without modifying vs.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencySample is one valid transaction's due-to-commit latency.
type latencySample struct {
	due time.Duration // offset of the due time from the window start
	ms  float64
}

// percentile is a latency percentile as reported.
type percentile struct {
	value float64
	// q is the quantile actually reported: the one asked for, or the
	// highest one with minBeyond samples beyond it.
	q  float64
	n  int
	ok bool
}

// latencyPercentile returns the q-quantile of every latency sample of
// the run. Where fewer than minBeyond samples lie beyond q it reports
// the highest quantile that has them, and ok is false when even the
// median lacks that support.
func latencyPercentile(samples []latencySample, q float64) percentile {
	n := len(samples)
	qq, ok := supportedQuantile(n, q)
	if !ok {
		return percentile{n: n}
	}
	vals := make([]float64, n)
	for i, s := range samples {
		vals[i] = s.ms
	}
	sort.Float64s(vals)
	return percentile{value: quantile(vals, qq), q: qq, n: n, ok: true}
}

// cpuWindows splits a measured window into equal parts and samples
// process CPU and the count of committed transactions at the first
// round end past each boundary, so CPU per transaction can be reported
// as the median over the parts: a burst of load from elsewhere on the
// host then moves one part, not the figure.
type cpuWindows struct {
	start time.Time
	step  time.Duration
	parts int
	// marks[0] is the start; marks[k] the first sample past part k's
	// end.
	marks []cpuMark
}

type cpuMark struct {
	cpu       time.Duration
	committed int
}

func newCPUWindows(start time.Time, window time.Duration, parts int) *cpuWindows {
	return &cpuWindows{
		start: start,
		step:  window / time.Duration(parts),
		parts: parts,
		marks: []cpuMark{{cpu: processCPU()}},
	}
}

// mark records a sample if now has passed the next part's end.
func (w *cpuWindows) mark(now time.Time, committed int) {
	if len(w.marks) > w.parts || now.Before(w.start.Add(time.Duration(len(w.marks))*w.step)) {
		return
	}
	w.marks = append(w.marks, cpuMark{cpu: processCPU(), committed: committed})
}

// msPerTx returns the median over the parts of CPU milliseconds per
// committed transaction, and false if no part was sampled.
func (w *cpuWindows) msPerTx() (float64, bool) {
	var per []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		if n := b.committed - a.committed; n > 0 {
			per = append(per, (b.cpu-a.cpu).Seconds()*1e3/float64(n))
		}
	}
	if len(per) == 0 {
		return 0, false
	}
	return median(per), true
}
