package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repchain"
	"repchain/internal/codec"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/tx"
)

// fakeClock is a clock that moves only when the code under test sleeps
// or a fake round takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

// fakeSystem commits everything staged in each round. Each round takes
// roundTime, the rounds listed in stall take stallTime instead, every
// refuseEvery-th submission is refused with ErrBacklog, and round
// haltAt (if non-zero) fails.
type fakeSystem struct {
	clk                  *fakeClock
	roundTime, stallTime time.Duration
	stall                map[int]bool
	refuseEvery          int
	haltAt               int

	submits, rounds int
	staging         []committedRecord
}

func fakeID(a *arrival) repchain.TxID {
	var id repchain.TxID
	copy(id[:], a.payload)
	return id
}

func (s *fakeSystem) submit(a *arrival) (repchain.TxID, error) {
	s.submits++
	if s.refuseEvery > 0 && s.submits%s.refuseEvery == 0 {
		return repchain.TxID{}, fmt.Errorf("shard full: %w", repchain.ErrBacklog)
	}
	s.staging = append(s.staging, committedRecord{id: fakeID(a), valid: a.valid})
	return fakeID(a), nil
}

func (s *fakeSystem) staged() bool { return len(s.staging) > 0 }

func (s *fakeSystem) round(context.Context) ([]committedRecord, error) {
	s.rounds++
	if s.rounds == s.haltAt {
		return nil, fmt.Errorf("halted")
	}
	if s.stall[s.rounds] {
		s.clk.sleep(s.stallTime)
	} else {
		s.clk.sleep(s.roundTime)
	}
	out := s.staging
	s.staging = nil
	return out, nil
}

// evenArrivals is one valid arrival every gap.
func evenArrivals(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: time.Duration(i) * gap, valid: true, payload: txPayload(uint64(i), true)}
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if q, ok := supportedQuantile(1000, 0.99); !ok || q != 0.99 {
		t.Fatalf("n=1000: p99 should be supported, got q=%v ok=%v", q, ok)
	}
	for _, n := range []int{100, 500, 999} {
		q, ok := supportedQuantile(n, 0.99)
		if !ok || q >= 0.99 || beyond(n, q) < minBeyond {
			t.Fatalf("n=%d: got q=%v ok=%v with %d beyond", n, q, ok, beyond(n, q))
		}
	}
	if _, ok := supportedQuantile(15, 0.5); ok {
		t.Fatal("n=15: the median has only 7 samples beyond it and must not be reported")
	}
	samples := make([]latencySample, 500)
	for i := range samples {
		samples[i] = latencySample{due: time.Duration(i), ms: float64(i)}
	}
	p := latencyPercentile(samples, 0.99)
	if !p.ok || p.q >= 0.99 || beyond(500, p.q) < minBeyond {
		t.Fatalf("500 samples: p99 must fall back to a supported quantile, got %+v", p)
	}
	if p := latencyPercentile(samples[:19], 0.5); p.ok {
		t.Fatalf("19 samples: not even the median has 10 beyond it, got %+v", p)
	}
	// Over the whole run: one late stretch of 2% of the samples sets
	// p99, however few parts of the run it falls in.
	big := make([]latencySample, 5000)
	for i := range big {
		big[i] = latencySample{due: time.Duration(i), ms: 1}
		if i >= 4000 && i < 4100 {
			big[i].ms = 500
		}
	}
	if p := latencyPercentile(big, 0.99); !p.ok || p.q != 0.99 || p.value != 500 {
		t.Fatalf("5000 samples with 100 late: want p99 = 500, got %+v", p)
	}
}

func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sys := &fakeSystem{clk: clk, roundTime: time.Millisecond, stallTime: 100 * time.Millisecond, stall: map[int]bool{1: true}}
	arr := evenArrivals(20, 10*time.Millisecond)
	out, err := runOpenLoop(context.Background(), sys, clk, arr, 200*time.Millisecond, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, total, lat, _ := out.validStats()
	if total != len(arr) {
		t.Fatalf("committed %d of %d", total, len(arr))
	}
	// Round 1 carries arrival 0 and stalls 100 ms. Arrivals 1..9 fall
	// due during the stall; each waits for it, so its latency counts
	// from its due time, not from when the generator got to submit it.
	for _, s := range lat[1:10] {
		want := 100*time.Millisecond - s.due + time.Millisecond
		if got := time.Duration(s.ms * 1e6); got != want {
			t.Fatalf("arrival due at %v: latency %v, want %v (timed from the due time)", s.due, got, want)
		}
	}
	if lat[15].ms > 2 {
		t.Fatalf("after the stall latency should recover, got %v ms", lat[15].ms)
	}
}

func TestRefusalsAndHaltsCountAsFailed(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sys := &fakeSystem{clk: clk, roundTime: time.Millisecond, refuseEvery: 4, haltAt: 12}
	arr := evenArrivals(40, 10*time.Millisecond)
	out, err := runOpenLoop(context.Background(), sys, clk, arr, 400*time.Millisecond, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.halt == nil {
		t.Fatal("the halt must be recorded")
	}
	attempted, _, committed, _, _ := out.validStats()
	if attempted != len(arr) {
		t.Fatalf("attempted %d, want every valid arrival (%d), refused ones included", attempted, len(arr))
	}
	// One arrival per round: arrivals 3, 7 and 11 (submissions 4, 8
	// and 12) are refused, rounds 1..11 commit the other eleven, and
	// round 12 halts with arrival 14 staged.
	if committed != 11 {
		t.Fatalf("committed %d, want 11", committed)
	}
	rep := newReport()
	rep.addOutcome(attempted, committed, committed, nil, 1, time.Second)
	if rep.failed != attempted-11 {
		t.Fatalf("failed %d, want %d (refusals and everything after the halt)", rep.failed, attempted-11)
	}
	if got := rep.endToEnd["delivered_frac"].Value; got != 11.0/40 {
		t.Fatalf("delivered_frac %v, want %v", got, 11.0/40)
	}
}

func TestOpenLoopFlagsInvalidRecordedValid(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sys := &lyingSystem{fakeSystem{clk: clk, roundTime: time.Millisecond}}
	arr := evenArrivals(5, 10*time.Millisecond)
	arr[2].valid = false
	out, err := runOpenLoop(context.Background(), sys, clk, arr, 50*time.Millisecond, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.book.violations; len(v) != 1 {
		t.Fatalf("violations %v, want exactly the invalid transaction recorded valid", v)
	}
}

// lyingSystem records every transaction valid.
type lyingSystem struct{ fakeSystem }

func (s *lyingSystem) round(ctx context.Context) ([]committedRecord, error) {
	recs, err := s.fakeSystem.round(ctx)
	for i := range recs {
		recs[i].valid = true
	}
	return recs, err
}

// fakeCommittee is a committee's chain for the saturated scan.
type fakeCommittee struct{ blocks [][]repchain.RecordStatus }

func (c *fakeCommittee) Height() uint64 { return uint64(len(c.blocks)) }

func (c *fakeCommittee) Block(s uint64) ([]repchain.RecordStatus, error) {
	return c.blocks[s-1], nil
}

func (c *fakeCommittee) commit(recs ...repchain.RecordStatus) { c.blocks = append(c.blocks, recs) }

// receiptFor builds a committed receipt for lock the way the cluster's
// relay encodes it.
func receiptFor(lock repchain.TxID, valid bool) repchain.RecordStatus {
	e := codec.NewEncoder(96)
	e.PutString("repchain/xshard/receipt/v1")
	e.PutInt(0)
	e.PutUint64(1)
	e.PutBytes(lock[:])
	e.PutString("bench/sat")
	e.PutBytes([]byte{1})
	return repchain.RecordStatus{ID: repchain.TxID{0xee, lock[0]}, Kind: kindReceipt, Payload: append([]byte(nil), e.Bytes()...), Valid: valid}
}

func TestSaturatedScanAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	led := newSatLedger(2, nil)
	id := func(n byte) repchain.TxID { return repchain.TxID{n} }
	submit := func(n byte, valid, cross bool) {
		k := led.offer(t0, valid)
		led.admit(id(n), k)
		if cross {
			led.cross[k] = &crossState{}
		}
	}
	submit(1, true, false) // plain, committed valid
	submit(2, true, true)  // cross-shard: lock, then one receipt
	submit(3, true, true)  // cross-shard: lock, then two receipts
	submit(4, false, false)
	led.offer(t0, true) // refused: attempted, never admitted
	c0, c1 := &fakeCommittee{}, &fakeCommittee{}
	sources := []blockSource{c0, c1}

	c0.commit(
		repchain.RecordStatus{ID: id(1), Kind: "bench/sat", Valid: true},
		repchain.RecordStatus{ID: id(2), Kind: kindLock, Valid: true},
		repchain.RecordStatus{ID: id(3), Kind: kindLock, Valid: true},
		repchain.RecordStatus{ID: id(4), Kind: "bench/sat", Valid: false},
	)
	if err := led.scan(sources, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if led.committed != 1 || led.pendingValid() != 2 {
		t.Fatalf("after the locks: committed %d pending %d, want 1 and 2 (a lock alone commits nothing)", led.committed, led.pendingValid())
	}
	c1.commit(receiptFor(id(2), true), receiptFor(id(3), true))
	c1.commit(receiptFor(id(3), true))
	if err := led.scan(sources, t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(led.violations) != 1 || !strings.Contains(led.violations[0], "second receipt") {
		t.Fatalf("violations %q, want exactly the duplicate receipt", led.violations)
	}
	if led.cross[1].receipts != 1 || led.cross[2].receipts != 2 {
		t.Fatalf("receipts %d and %d, want 1 and 2", led.cross[1].receipts, led.cross[2].receipts)
	}
	attempted, inWindow, total, lat := led.validStats(t0, t0.Add(time.Second))
	if attempted != 4 || total != 3 || inWindow != 1 {
		t.Fatalf("attempted %d committed %d (in window %d), want 4, 3 (1): the refused valid tx fails", attempted, total, inWindow)
	}
	// The cross-shard transactions commit with their receipt, one
	// scan after their lock.
	if lat[1].ms != 2000 || lat[2].ms != 2000 {
		t.Fatalf("cross-shard latencies %v and %v ms, want 2000", lat[1].ms, lat[2].ms)
	}

	// An invalid transaction recorded valid, a receipt for an unknown
	// lock, and a lock whose receipt never comes.
	led.violations = nil
	submit(5, true, true)
	c0.commit(
		repchain.RecordStatus{ID: id(4), Kind: "bench/sat", Valid: true},
		repchain.RecordStatus{ID: id(5), Kind: kindLock, Valid: true},
	)
	c1.commit(receiptFor(id(9), true))
	if err := led.scan(sources, t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	led.checkReceipts(1)
	if len(led.violations) != 2 ||
		!strings.Contains(led.violations[0], "recorded invalid transaction 3 valid") ||
		!strings.Contains(led.violations[1], "unknown transaction") {
		t.Fatalf("violations %q, want the invalid tx recorded valid and the unknown lock", led.violations)
	}
	led.checkReceipts(0)
	if len(led.violations) != 3 || !strings.Contains(led.violations[2], "no receipt") {
		t.Fatalf("violations %q, want the missing receipt flagged once nothing is pending", led.violations)
	}
}

// tcpRecord builds a committed record the way transport's provider
// builds the transaction: payload {validity, index, round}, signed
// with the submit time.
func tcpRecord(provider string, round, i int, validByte byte, status tx.Status, submitted time.Time) ledger.Record {
	return ledger.Record{
		Signed: tx.SignedTx{Tx: tx.Transaction{
			Provider:  identity.NodeID(provider),
			Timestamp: submitted.UnixNano(),
			Kind:      "tcp/demo",
			Payload:   []byte{validByte, byte(i), byte(round)},
		}},
		Status: status,
	}
}

func TestClassifyTCP(t *testing.T) {
	const seed, rounds = 5, 3
	bk := tcpBook(seed, rounds)
	// The expected validity is transport's draw: provider p, round r,
	// transaction i is draw (r-1)*tcpTxPerRound+i of rand.NewSource(seed+p).
	draws := rand.New(rand.NewSource(seed + 1))
	var want []bool
	for n := 0; n < 2*tcpTxPerRound; n++ {
		want = append(want, draws.Float64() < tcpValidFrac)
	}
	valid, invalid := -1, -1
	for i := 0; i < tcpTxPerRound; i++ {
		k, ok := bk.index[tcpKey{1, 2, i}]
		if !ok || bk.txs[k].valid != want[tcpTxPerRound+i] {
			t.Fatalf("provider 1 round 2 tx %d: expected validity does not follow the seed's draw order", i)
		}
		if want[tcpTxPerRound+i] && valid < 0 {
			valid = i
		} else if !want[tcpTxPerRound+i] && invalid < 0 {
			invalid = i
		}
	}
	if valid < 0 || invalid < 0 {
		t.Fatal("seed draws no valid or no invalid transaction in round 2")
	}
	epoch := time.Unix(2000, 0)
	sub := epoch.Add(tcpRound + 3*time.Millisecond) // round 2 starts at epoch+R
	providers := map[string]int{"provider/1": 1}
	blocks := []ledger.Block{
		{Serial: 1, Records: []ledger.Record{
			tcpRecord("provider/1", 2, valid, 1, tx.StatusValid, sub),
			tcpRecord("provider/1", 2, invalid, 0, tx.StatusInvalid, sub),
		}},
		{Serial: 2, Records: []ledger.Record{
			tcpRecord("provider/1", 2, valid, 1, tx.StatusValid, sub), // a duplicate commits once
		}},
	}
	seen := map[uint64]time.Time{1: sub.Add(900 * time.Millisecond), 2: sub.Add(1900 * time.Millisecond)}
	lag := classifyTCP(bk, blocks, seen, providers, epoch)
	if len(bk.violations) != 0 {
		t.Fatalf("violations %q on a clean chain", bk.violations)
	}
	_, _, total, lat := bk.validStats(epoch, epoch.Add(rounds*tcpRound))
	if total != 1 || len(lat) != 1 || lat[0].ms != 900 || lag[0] != 3 {
		t.Fatalf("committed %d, latency %v, lag %v: want one commit, 900 ms from its signed timestamp, 3 ms lag", total, lat, lag)
	}

	bad := []ledger.Block{{Serial: 3, Records: []ledger.Record{
		tcpRecord("provider/1", 2, invalid, 0, tx.StatusValid, sub),   // invalid recorded valid
		tcpRecord("provider/1", 2, invalid, 1, tx.StatusInvalid, sub), // validity byte out of step with the draw
		tcpRecord("provider/1", rounds+1, 0, 1, tx.StatusValid, sub),  // round past the load
		tcpRecord("provider/9", 1, 0, 1, tx.StatusValid, sub),         // not one of the load's providers
	}}}
	classifyTCP(bk, bad, seen, providers, epoch)
	wantMsgs := []string{"recorded invalid", "validity byte", "unknown transaction", "did not submit"}
	if len(bk.violations) != len(wantMsgs) {
		t.Fatalf("violations %q, want %d", bk.violations, len(wantMsgs))
	}
	for i, m := range wantMsgs {
		if !strings.Contains(bk.violations[i], m) {
			t.Fatalf("violation %d is %q, want it to mention %q", i, bk.violations[i], m)
		}
	}
}

func TestSameSeedSameArrivals(t *testing.T) {
	a := poissonArrivals(7, 400, 2*time.Second, 8, 0.75)
	b := poissonArrivals(7, 400, 2*time.Second, 8, 0.75)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the identical arrival sequence")
	}
	c := poissonArrivals(8, 400, 2*time.Second, 8, 0.75)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if n := len(a); n < 700 || n > 900 {
		t.Fatalf("%d arrivals in 2 s at 400/s", n)
	}
	for i, x := range a {
		if binary.BigEndian.Uint64(x.payload[1:]) != uint64(i) || (x.payload[0] == 1) != x.valid {
			t.Fatalf("arrival %d payload %x does not encode its index and validity", i, x.payload)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "validate", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "validate", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "validate", Start: 90, End: 120},
	}
	agg := aggregate(spans)
	if got := agg["round"].selfNS; got != 100-40-10 {
		t.Fatalf("round self time %v, want 50 (overlapping children counted once, clipped to the parent)", got)
	}
	if got := agg["validate"].selfNS; got != 20+30+30 {
		t.Fatalf("validate self time %v, want 80", got)
	}
}

func TestBenchmarkJSONMatchesMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames)
}
