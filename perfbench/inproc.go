package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repchain"
	"repchain/internal/metrics"
)

// setupRuns is how many times an in-process workload builds its system;
// setup_s is the median.
const setupRuns = 61

// benchValidator is the application validator the in-process
// workloads install. It counts its calls and, in a traced run, records
// a span per call whose parent is the facade round span in flight.
type benchValidator struct {
	spans *spanRecorder
	calls atomic.Int64
	check func(payload []byte) bool
}

// Validate implements repchain.Validator.
func (v *benchValidator) Validate(t repchain.Transaction) bool {
	v.calls.Add(1)
	_, end := v.spans.begin("validate", v.spans.roundID())
	ok := v.check(t.Payload)
	end("")
	return ok
}

// firstByteValid is the light validator: payload[0] == 1.
func firstByteValid(p []byte) bool { return len(p) > 0 && p[0] == 1 }

// hashChainLen is the saturated workload's validator cost: a chain of
// SHA-256 evaluations, about one Ed25519 verify on a typical core.
const hashChainLen = 450

// hashChainValid runs the hash chain over the payload, then applies
// the payload[0] == 1 rule. The digest feeds the result so the chain
// cannot be elided; a zero digest never occurs in practice.
func hashChainValid(p []byte) bool {
	h := sha256.Sum256(p)
	for i := 1; i < hashChainLen; i++ {
		h = sha256.Sum256(h[:])
	}
	return firstByteValid(p) && h != [32]byte{}
}

// medianSetup builds a system setupRuns times, discarding all but the
// last build, and returns the last one with the median build time in
// seconds. build receives the attempt index so durable systems can use
// a fresh directory each time.
func medianSetup[T any](build func(i int) (T, error), discard func(T) error) (T, float64, error) {
	var zero T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		// Collect the previous builds' garbage first, so it is not
		// charged to this one.
		runtime.GC()
		start := time.Now()
		sys, err := build(i)
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRuns-1 {
			return sys, median(times), nil
		}
		if err := discard(sys); err != nil {
			return zero, 0, err
		}
	}
	return zero, 0, nil
}

// chainSystem adapts a repchain.Chain to the open-loop generator, with a
// span around every facade call.
type chainSystem struct {
	chain    *repchain.Chain
	spans    *spanRecorder
	read     uint64 // highest serial already read back
	depthMax int
}

func (s *chainSystem) submit(a *arrival) (repchain.TxID, error) {
	_, end := s.spans.begin("submit", 0)
	id, err := s.chain.Submit(a.provider, "bench/light", a.payload, a.valid)
	end("")
	return id, err
}

func (s *chainSystem) staged() bool {
	d := s.chain.MempoolDepth()
	if d > s.depthMax {
		s.depthMax = d
	}
	return d > 0
}

func (s *chainSystem) round(ctx context.Context) ([]committedRecord, error) {
	end := s.spans.beginRound()
	sum, err := s.chain.RunRoundCtx(ctx)
	end(fmt.Sprintf("records=%d", sum.Records))
	if err != nil {
		return nil, err
	}
	var out []committedRecord
	for h := s.chain.Height(); s.read < h; {
		s.read++
		_, endB := s.spans.begin("block", 0)
		recs, err := s.chain.Block(s.read)
		endB("")
		if err != nil {
			return nil, fmt.Errorf("read block %d: %w", s.read, err)
		}
		for _, r := range recs {
			out = append(out, committedRecord{id: r.ID, valid: r.Valid})
		}
	}
	return out, nil
}

// runEngineLight is the engine-light workload: an open-loop Poisson
// load at 400 tx/s on one in-process Chain, so rounds carry about one
// transaction each and per-round fixed costs set latency.
func runEngineLight(ctx context.Context, rc *runCtx) (*report, error) {
	const rate, providers, validFrac = 400.0, 8, 0.75
	val := &benchValidator{spans: rc.spans, check: firstByteValid}
	opts := []repchain.Option{
		repchain.WithTopology(providers, 4, 2),
		repchain.WithGovernors(3),
		repchain.WithValidator(val),
		repchain.WithSeed(rc.seed),
		repchain.WithMempool(4, 1024),
		repchain.WithBlockLimit(256),
		repchain.WithTracing(8192),
		repchain.WithEventLog(8192),
	}
	chain, setupS, err := medianSetup(
		func(int) (*repchain.Chain, error) { return repchain.New(opts...) },
		func(c *repchain.Chain) error { return c.Close() },
	)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer chain.Close()

	arrivals := poissonArrivals(rc.seed, rate, rc.window, providers, validFrac)
	sys := &chainSystem{chain: chain, spans: rc.spans}
	before := captureInproc([]metrics.Snapshot{chain.MetricsSnapshot()}, []repchain.GovernorStats{chain.Stats(0), chain.Stats(1), chain.Stats(2)})
	spanSeq0, events0 := telemetryCounts(chain)
	val.calls.Store(0)

	committed := 0
	out, err := runOpenLoop(ctx, sys, wallClock{}, arrivals, rc.window, 5*time.Second, func(now time.Time, c int) {
		committed = c
		rc.spans.slice(now, c)
	})
	if err != nil {
		return nil, err
	}
	after := captureInproc([]metrics.Snapshot{chain.MetricsSnapshot()}, []repchain.GovernorStats{chain.Stats(0), chain.Stats(1), chain.Stats(2)})
	rc.spans.finish(time.Now(), committed)
	spanSeq1, events1 := telemetryCounts(chain)

	rep := newReport()
	rep.e2e("setup_s", setupS)
	rep.addOpenLoop(out, rc)
	rep.addInproc(before, after, out.rounds, val.calls.Load())
	rep.layer("mempool.depth_max", float64(sys.depthMax))
	rounds := float64(out.rounds)
	rep.layer("trace.spans_per_round", float64(spanSeq1.emitted-spanSeq0.emitted)/rounds)
	rep.layer("trace.dropped", float64(spanSeq1.dropped-spanSeq0.dropped))
	rep.layer("events.events_per_round", float64(events1.emitted-events0.emitted)/rounds)
	rep.layer("events.dropped", float64(events1.dropped-events0.dropped))

	start := time.Now()
	_, end := rc.spans.begin("verify_chain", 0)
	rep.check("VerifyChain", chain.VerifyChain())
	end("")
	rep.layer("ledger.verify_chain_us_per_block", float64(time.Since(start).Microseconds())/float64(max64(1, int64(chain.Height()))))
	rep.zero("ledger.disk_bytes_per_tx", "ledger.snapshots", "ledger.segments_pruned", "ledger.reopen_ms", "shard.", "transport.")
	return rep, nil
}

// addOpenLoop reports the end-to-end metrics of an open-loop outcome
// and the generator's lateness.
func (r *report) addOpenLoop(out *openOutcome, rc *runCtx) {
	attempted, inWindow, total, lat, lag := out.validStats()
	r.violations = append(r.violations, out.book.violations...)
	if out.halt != nil {
		r.note("HALT: %v", out.halt)
	}
	r.note("rounds=%d refused=%d drain=%.2fs", out.rounds, out.refused, out.drainEnd.Sub(out.windowEnd).Seconds())
	r.addOutcome(attempted, inWindow, total, lat, windowedCPU(out.cpuParts, out.cpu, total), rc.window)
	r.e2e("rss_mb", peakRSSMB())
	sort.Float64s(lag)
	q, ok := supportedQuantile(len(lag), 0.99)
	if !ok {
		q = 1
	}
	r.layer("bench.generator_lag_ms_p99", quantile(lag, q))
	sum := 0
	for _, n := range out.roundRecords {
		sum += n
	}
	r.layer("repchain.txs_per_round", perTx(float64(sum), len(out.roundRecords)))
}

// addOutcome reports the end-to-end metrics every workload shares but
// rss_mb and setup_s: latency, throughput inside the window, the share
// of valid transactions delivered, and CPU per committed valid
// transaction.
func (r *report) addOutcome(attempted, inWindow, total int, lat []latencySample, cpuMsPerTx float64, window time.Duration) {
	r.attempted, r.committed, r.failed = attempted, total, attempted-total
	r.addLatency(lat)
	r.e2e("committed_tps", float64(inWindow)/window.Seconds())
	r.e2e("delivered_frac", 1-perTx(float64(r.failed), r.attempted))
	r.e2e("cpu_ms_per_tx", cpuMsPerTx)
}

// cpuParts is how many parts of the measured window an in-process
// workload's cpu_ms_per_tx is the median over.
const cpuParts = 5

// windowedCPU returns the median CPU per transaction over the parts of
// the window, or the whole run's figure when too few parts were
// sampled.
func windowedCPU(w *cpuWindows, total time.Duration, committed int) float64 {
	if v, ok := w.msPerTx(); ok && len(w.marks) > cpuParts/2 {
		return v
	}
	return perTx(total.Seconds()*1e3, committed)
}

// addLatency reports commit_p50_ms and commit_p99_ms over every
// latency sample of the run, with their sample counts.
func (r *report) addLatency(lat []latencySample) {
	r.latency = lat
	p50 := latencyPercentile(lat, 0.5)
	p99 := latencyPercentile(lat, 0.99)
	if !p50.ok || !p99.ok {
		r.violate("latency: %d valid commits are too few to report a percentile with %d samples beyond it", len(lat), minBeyond)
		return
	}
	r.e2e("commit_p50_ms", p50.value)
	r.e2e("commit_p99_ms", p99.value)
	r.note("commit_p50_ms: n=%d", p50.n)
	if p99.q < 0.99 {
		r.note("commit_p99_ms: n=%d, too few samples for p99 with %d beyond it; p%.4g reported", p99.n, minBeyond, 100*p99.q)
	} else {
		r.note("commit_p99_ms: n=%d", p99.n)
	}
}

// inprocState is what the in-process workloads sample before and
// after the measured run.
type inprocState struct {
	snaps []metrics.Snapshot
	stats []repchain.GovernorStats
	mem   runtime.MemStats
	cpu   time.Duration
}

func captureInproc(snaps []metrics.Snapshot, stats []repchain.GovernorStats) inprocState {
	st := inprocState{snaps: snaps, stats: stats, cpu: processCPU()}
	runtime.ReadMemStats(&st.mem)
	return st
}

// addInproc reports the per-layer metrics read from the engines'
// MetricsSnapshot and governor stats, and the Go runtime's allocation
// counters, as deltas over the measured run. rounds counts facade
// rounds; each snapshot is one committee's engine.
func (r *report) addInproc(before, after inprocState, rounds int, validateCalls int64) {
	n := r.committed
	engineRounds := float64(rounds * len(after.snaps))
	for _, stage := range []string{"ingest", "resync", "upload", "screen", "elect", "pack", "commit", "argue"} {
		key := `round.stage_seconds{stage="` + stage + `"}`
		sum := 0.0
		for i := range after.snaps {
			sum += after.snaps[i].Histograms[key].Sum - before.snaps[i].Histograms[key].Sum
		}
		r.layer("core.stage_ms."+stage, 1e3*sum/engineRounds)
	}
	// The signature cache is process-wide, so every engine's gauges
	// show the same totals: read them from the first.
	g := func(name string) float64 { return after.snaps[0].Gauges[name] - before.snaps[0].Gauges[name] }
	r.layer("crypto.verifies_per_tx", perTx(g("sigcache.misses"), n))
	r.layer("crypto.cache_hits_per_tx", perTx(g("sigcache.hits"), n))
	r.layer("crypto.batch_deduped_per_tx", perTx(g("sigcache.batch_deduped"), n))
	r.layer("crypto.verifies_per_tx.governor", 0)
	r.layer("crypto.verifies_per_tx.collector", 0)

	checked, unchecked := 0, 0
	for i := range after.stats {
		checked += after.stats[i].Checked - before.stats[i].Checked
		unchecked += after.stats[i].Unchecked - before.stats[i].Unchecked
	}
	r.layer("reputation.check_fraction", perTx(float64(checked), checked+unchecked))
	r.layer("reputation.unchecked_per_tx", perTx(float64(unchecked), n))
	r.layer("tx.validate_calls_per_tx", perTx(float64(validateCalls), n))

	var drainSum, drainCount float64
	for i := range after.snaps {
		a, b := after.snaps[i].Histograms["mempool.drain_batch"], before.snaps[i].Histograms["mempool.drain_batch"]
		drainSum += a.Sum - b.Sum
		drainCount += float64(a.Count - b.Count)
	}
	if drainCount > 0 {
		r.layer("mempool.drain_batch_mean", drainSum/drainCount)
	} else {
		r.layer("mempool.drain_batch_mean", 0)
	}
	r.layer("go.allocs_per_tx", perTx(float64(after.mem.Mallocs-before.mem.Mallocs), n))
	r.layer("go.alloc_bytes_per_tx", perTx(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), n))
}

// telemetry is a ring's totals: entries ever emitted, and those
// dropped (evicted by newer ones).
type telemetry struct {
	emitted, dropped int64
}

// telemetryCounts reads the chain's span and event rings through the
// facade: the newest span's sequence number counts every span ever
// emitted, and what the ring no longer holds was dropped.
func telemetryCounts(c *repchain.Chain) (spans, events telemetry) {
	if ss := c.Spans(); len(ss) > 0 {
		spans.emitted = int64(ss[len(ss)-1].Seq)
		spans.dropped = spans.emitted - int64(len(ss))
	}
	if l := c.EventLog(); l != nil {
		events.dropped = int64(l.Dropped())
		events.emitted = int64(l.Len()) + events.dropped
	}
	return spans, events
}

// zero reports as 0 every listed per-layer metric with one of the
// given prefixes that the workload has not reported: its layers do not
// exercise them.
func (r *report) zero(prefixes ...string) {
	for _, n := range perLayerNames {
		if _, done := r.perLayer[n.name]; done {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(n.name, p) {
				r.layer(n.name, 0)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// freshDir returns an empty directory under the run directory.
func freshDir(rc *runCtx, name string) (string, error) {
	d := filepath.Join(rc.runDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
