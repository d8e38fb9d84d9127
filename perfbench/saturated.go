package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repchain"
	"repchain/internal/codec"
	"repchain/internal/metrics"
)

// Transaction kinds the cluster's cross-shard relay commits.
const (
	kindLock    = "xshard/lock"
	kindReceipt = "xshard/receipt"
)

// receiptLockID extracts the lock ID a committed receipt references.
// The envelope is the relay's: tag, source committee, source serial,
// lock ID, inner kind, inner payload.
func receiptLockID(payload []byte) (repchain.TxID, error) {
	var id repchain.TxID
	d := codec.NewDecoder(payload)
	if _, err := d.String(); err != nil {
		return id, err
	}
	if _, err := d.Int(); err != nil {
		return id, err
	}
	if _, err := d.Uint64(); err != nil {
		return id, err
	}
	b, err := d.Bytes()
	if err != nil {
		return id, err
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("receipt lock id is %d bytes", len(b))
	}
	copy(id[:], b)
	return id, nil
}

// rssWork is the count of committed valid transactions at which
// cluster-saturated reads its peak resident memory. The closed loop
// does more work on a faster host and the cluster's memory grows with
// the work done, so a peak read at the end of the window would track
// the host's speed; one read at a fixed amount of work does not.
const rssWork = 12000

// blockSource is one committee's chain as cluster-saturated reads it
// back.
type blockSource interface {
	Height() uint64
	Block(serial uint64) ([]repchain.RecordStatus, error)
}

// satLedger is cluster-saturated's book, keyed by transaction ID, with
// the cross-shard state of every transaction submitted through
// SubmitCross. A cross-shard transaction commits when its receipt
// commits valid on the destination committee; its lock alone does not.
type satLedger struct {
	*book[repchain.TxID]
	// cross maps the book index of each cross-shard transaction to its
	// state.
	cross map[int]*crossState
	// read is each committee's highest serial already scanned; records
	// counts the records scanned.
	read    []uint64
	records int
	spans   *spanRecorder
}

type crossState struct {
	lockValid bool
	// receipts counts the receipts committed valid for the lock.
	receipts int
}

func newSatLedger(committees int, spans *spanRecorder) *satLedger {
	return &satLedger{
		book:  newBook[repchain.TxID](),
		cross: map[int]*crossState{},
		read:  make([]uint64, committees),
		spans: spans,
	}
}

// scan reads every block committed since the last scan and classifies
// its records as committed at done.
func (l *satLedger) scan(sources []blockSource, done time.Time) error {
	for i, src := range sources {
		where := fmt.Sprintf("committee %d block", i)
		for h := src.Height(); l.read[i] < h; {
			l.read[i]++
			_, end := l.spans.begin("block", 0)
			recs, err := src.Block(l.read[i])
			end("")
			if err != nil {
				return fmt.Errorf("committee %d block %d: %w", i, l.read[i], err)
			}
			l.records += len(recs)
			for _, r := range recs {
				l.record(r, done, where, l.read[i])
			}
		}
	}
	return nil
}

// record classifies one committed record. A receipt is looked up by
// the lock it references.
func (l *satLedger) record(r repchain.RecordStatus, done time.Time, where string, serial uint64) {
	switch r.Kind {
	case kindLock:
		if i, ok := l.check(r.ID, r.Valid, where, serial); ok {
			if c := l.crossOf(i, where, serial); c != nil {
				c.lockValid = true
			}
		}
	case kindReceipt:
		lock, err := receiptLockID(r.Payload)
		if err != nil {
			l.violate("%s %d: undecodable receipt: %v", where, serial, err)
			return
		}
		i, ok := l.check(lock, r.Valid, where, serial)
		if !ok {
			return
		}
		c := l.crossOf(i, where, serial)
		if c == nil {
			return
		}
		if c.receipts++; c.receipts == 2 {
			l.violate("%s %d: second receipt committed for cross-shard transaction %d, want exactly one", where, serial, i)
		}
		l.commitAt(i, done)
	default:
		if i, ok := l.check(r.ID, r.Valid, where, serial); ok {
			if l.cross[i] != nil {
				l.violate("%s %d: cross-shard transaction %d committed as kind %s, not through a receipt", where, serial, i, r.Kind)
				return
			}
			l.commitAt(i, done)
		}
	}
}

// crossOf returns transaction i's cross-shard state, flagging a lock or
// receipt for a transaction submitted within one committee.
func (l *satLedger) crossOf(i int, where string, serial uint64) *crossState {
	c := l.cross[i]
	if c == nil {
		l.violate("%s %d: cross-shard record for transaction %d, submitted within one committee", where, serial, i)
	}
	return c
}

// checkReceipts flags, once the relay has nothing pending, every lock
// committed valid without a receipt and every receipt without a valid
// lock.
func (l *satLedger) checkReceipts(pending int) {
	for i, c := range l.cross {
		switch {
		case c.receipts > 0 && !c.lockValid:
			l.violate("cross-shard transaction %d: receipt committed but its lock never committed valid", i)
		case pending == 0 && c.lockValid && c.receipts == 0:
			l.violate("cross-shard transaction %d: lock committed valid, no receipt committed and none pending", i)
		}
	}
}

// runClusterSaturated is the cluster-saturated workload: a durable
// two-committee Cluster kept full — before every round each committee
// is topped up to exactly one block's worth of staged transactions —
// with a validator as costly as a signature check, 75% invalid
// traffic for screening to skip, and 1 in 16 transactions crossing
// committees.
func runClusterSaturated(ctx context.Context, rc *runCtx) (*report, error) {
	const (
		committees = 2
		target     = 256 // staged per committee before each round, = b_limit
		validFrac  = 0.25
		crossEvery = 16
	)
	val := &benchValidator{spans: rc.spans, check: hashChainValid}
	optsFor := func(dir string) []repchain.Option {
		return []repchain.Option{
			repchain.WithCommittees(committees),
			repchain.WithTopology(8, 16, 2),
			repchain.WithGovernors(3),
			repchain.WithValidator(val),
			repchain.WithSeed(rc.seed),
			repchain.WithReputationParams(0.9, 0.9, 1.1, 1.1),
			repchain.WithChainDir(dir),
			repchain.WithSnapshotEvery(50),
			repchain.WithSegmentBytes(1 << 20),
			repchain.WithMempool(4, 1024),
			repchain.WithBlockLimit(target),
		}
	}
	var chainDir string
	cl, setupS, err := medianSetup(
		func(i int) (*repchain.Cluster, error) {
			d, err := freshDir(rc, fmt.Sprintf("chain-%d", i))
			if err != nil {
				return nil, err
			}
			chainDir = d
			return repchain.NewCluster(optsFor(d)...)
		},
		func(c *repchain.Cluster) error {
			if err := c.Close(); err != nil {
				return err
			}
			return os.RemoveAll(chainDir)
		},
	)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()

	comms := make([]*repchain.Committee, committees)
	members := make([][]int, committees)
	for i := range comms {
		if comms[i], err = cl.Committee(i); err != nil {
			return nil, err
		}
		members[i] = comms[i].Providers()
	}
	snapshots := func() []metrics.Snapshot {
		out := make([]metrics.Snapshot, committees)
		for i, cm := range comms {
			out[i] = cm.MetricsSnapshot()
		}
		return out
	}
	govStats := func() []repchain.GovernorStats {
		var out []repchain.GovernorStats
		for _, cm := range comms {
			for j := 0; j < 3; j++ {
				out = append(out, cm.Stats(j))
			}
		}
		return out
	}

	rng := rand.New(rand.NewSource(rc.seed))
	sources := make([]blockSource, committees)
	for i, cm := range comms {
		sources[i] = cm
	}
	var (
		led                    = newSatLedger(committees, rc.spans)
		rep                    = newReport()
		seq                    uint64
		refused, rounds        int
		crossValid, crossTotal int
		pendingSum             int
		depthMax               float64
		halt                   error
		parts                  *cpuWindows
		rssMB                  float64
	)
	submit := func(i int) error {
		from := members[i][rng.Intn(len(members[i]))]
		valid := rng.Float64() < validFrac
		cross := rng.Intn(crossEvery) == 0
		payload := txPayload(seq, valid)
		seq++
		var id repchain.TxID
		var err error
		k := led.offer(time.Now(), valid)
		if cross {
			to := members[1-i][rng.Intn(len(members[1-i]))]
			_, end := rc.spans.begin("submit_cross", 0)
			id, err = cl.SubmitCross(from, to, "bench/sat", payload, valid)
			end("")
		} else {
			_, end := rc.spans.begin("submit", 0)
			id, err = cl.Submit(from, "bench/sat", payload, valid)
			end("")
		}
		if errors.Is(err, repchain.ErrBacklog) {
			refused++
			return nil
		}
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		led.admit(id, k)
		if cross {
			led.cross[k] = &crossState{}
			crossTotal++
			if valid {
				crossValid++
			}
		}
		return nil
	}
	runRound := func(attr string) error {
		end := rc.spans.beginRound()
		_, err := cl.RunRoundCtx(ctx)
		end(attr)
		done := time.Now()
		if err != nil {
			return err
		}
		rounds++
		pendingSum += cl.PendingReceipts()
		if err := led.scan(sources, done); err != nil {
			return err
		}
		parts.mark(done, led.committed)
		rc.spans.slice(done, led.committed)
		if rssMB == 0 && led.committed >= rssWork {
			rssMB = peakRSSMB()
		}
		return nil
	}
	// topUpRound stages transactions until every committee holds
	// exactly target, then runs a round.
	topUpRound := func() error {
		for i, cm := range comms {
			depth := cm.MetricsSnapshot().Gauges["mempool.depth"]
			if depth > depthMax {
				depthMax = depth
			}
			for k := int(depth); k < target; k++ {
				if err := submit(i); err != nil {
					return err
				}
			}
		}
		return runRound("")
	}

	before := captureInproc(snapshots(), govStats())
	val.calls.Store(0)
	start := time.Now()
	parts = newCPUWindows(start, rc.window, cpuParts)
	windowEnd := start.Add(rc.window)
	for time.Now().Before(windowEnd) && halt == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		halt = topUpRound()
	}
	// Drain: stop topping up and run rounds until every valid
	// transaction, receipts included, has committed, or 10 s pass.
	drainEnd := windowEnd.Add(10 * time.Second)
	for halt == nil && led.pendingValid() > 0 && time.Now().Before(drainEnd) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		halt = runRound("drain")
	}
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: no result, not a halt
	}
	after := captureInproc(snapshots(), govStats())
	cpu := after.cpu - before.cpu
	committed := led.committed
	rc.spans.finish(time.Now(), committed)
	if halt != nil {
		rep.note("HALT: %v", halt)
	}

	pendingEnd := cl.PendingReceipts()
	led.checkReceipts(pendingEnd)
	rep.violations = append(rep.violations, led.violations...)
	attempted, inWindow, _, lat := led.validStats(start, windowEnd)
	rep.note("rounds=%d refused=%d records=%d cross=%d (valid %d) drain=%.2fs", rounds, refused, led.records, crossTotal, crossValid, time.Since(windowEnd).Seconds())
	rep.addOutcome(attempted, inWindow, committed, lat, windowedCPU(parts, cpu, committed), rc.window)
	if rssMB == 0 {
		rssMB = peakRSSMB()
		rep.note("rss_mb: %d valid txs committed, fewer than %d; peak at the end reported", committed, rssWork)
	}
	rep.e2e("rss_mb", rssMB)
	rep.e2e("setup_s", setupS)
	rep.addInproc(before, after, rounds, val.calls.Load())
	rep.layer("repchain.txs_per_round", perTx(float64(led.records), rounds*committees))
	rep.layer("mempool.depth_max", depthMax)
	rep.layer("bench.generator_lag_ms_p99", 0)
	rep.layer("shard.cross_frac", perTx(float64(crossTotal), len(led.txs)-refused))
	// Little's law: mean receipts in flight over receipts created per
	// round (one per valid lock) is the mean rounds a receipt waits.
	if crossValid > 0 {
		rep.layer("shard.receipt_rounds_mean", float64(pendingSum)/float64(crossValid))
	} else {
		rep.layer("shard.receipt_rounds_mean", 0)
	}
	rep.layer("shard.receipts_pending_end", float64(pendingEnd))

	// Ledger: size on disk, snapshots and pruning, full-chain audit,
	// then Close and reopen on the same directories.
	var snaps, pruned int64
	for _, s := range after.snaps {
		snaps += s.Counters["ledger.snapshots_total"]
		pruned += s.Counters["ledger.segments_pruned_total"]
	}
	rep.layer("ledger.snapshots", float64(snaps))
	rep.layer("ledger.segments_pruned", float64(pruned))
	heights := make([]uint64, committees)
	var blocks uint64
	for i, cm := range comms {
		heights[i] = cm.Height()
		blocks += heights[i]
	}
	vstart := time.Now()
	_, end := rc.spans.begin("verify_chain", 0)
	rep.check("VerifyChain", cl.VerifyChain())
	end("")
	rep.layer("ledger.verify_chain_us_per_block", float64(time.Since(vstart).Microseconds())/float64(max64(1, int64(blocks))))
	closed = true
	if err := cl.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	size, err := dirBytes(chainDir)
	if err != nil {
		return nil, err
	}
	rep.layer("ledger.disk_bytes_per_tx", perTx(float64(size), committed))
	rstart := time.Now()
	_, end = rc.spans.begin("reopen", 0)
	reopened, err := repchain.NewCluster(optsFor(chainDir)...)
	end("")
	if err != nil {
		rep.violate("reopen cluster on its chain directories: %v", err)
		rep.layer("ledger.reopen_ms", 0)
	} else {
		rep.layer("ledger.reopen_ms", float64(time.Since(rstart).Microseconds())/1e3)
		rep.check("VerifyChain after reopen", reopened.VerifyChain())
		for i := range heights {
			cm, err := reopened.Committee(i)
			if err != nil {
				return nil, err
			}
			if h := cm.Height(); h != heights[i] {
				rep.violate("committee %d height %d after reopen, %d before", i, h, heights[i])
			}
		}
		if err := reopened.Close(); err != nil {
			return nil, fmt.Errorf("close reopened cluster: %w", err)
		}
	}
	rep.zero("trace.", "events.", "transport.")
	return rep, nil
}
