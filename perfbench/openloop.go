package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repchain"
)

// arrival is one generated transaction of an open-loop schedule.
type arrival struct {
	// due is when the transaction is due, as an offset from the start
	// of the measured window.
	due      time.Duration
	provider int
	valid    bool
	payload  []byte
}

// poissonArrivals draws a Poisson arrival schedule at rate per second
// over window from seed alone: exponential gaps, a uniform provider,
// and validity with probability validFrac. The payload's first byte is
// 1 exactly for valid transactions (the workloads' validators check
// it); the next eight bytes are the arrival's index, so every payload
// is distinct.
func poissonArrivals(seed int64, rate float64, window time.Duration, providers int, validFrac float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		valid := rng.Float64() < validFrac
		out = append(out, arrival{
			due:      due,
			provider: rng.Intn(providers),
			valid:    valid,
			payload:  txPayload(uint64(i), valid),
		})
	}
}

// txPayload builds a payload: validity byte, then a unique index.
func txPayload(index uint64, valid bool) []byte {
	p := make([]byte, 9)
	if valid {
		p[0] = 1
	}
	binary.BigEndian.PutUint64(p[1:], index)
	return p
}

// committedRecord is one record of a block a round committed.
type committedRecord struct {
	id    repchain.TxID
	valid bool
}

// openSystem is the system under an open-loop load.
type openSystem interface {
	// submit stages one arrival and returns its ID; an error counts the
	// arrival as refused (it is never retried).
	submit(a *arrival) (repchain.TxID, error)
	// staged reports whether anything awaits a round.
	staged() bool
	// round runs one round and returns the records it committed.
	round(ctx context.Context) ([]committedRecord, error)
}

// clock abstracts time so the generator's accounting can be tested.
type clock interface {
	now() time.Time
	sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) now() time.Time        { return time.Now() }
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }

// openOutcome is the per-transaction record of an open-loop run.
type openOutcome struct {
	start    time.Time
	arrivals []arrival
	// book holds arrival i at index i, keyed by its ID once admitted.
	book *book[repchain.TxID]
	// submitted[i] is when arrival i was submitted (zero if refused).
	submitted []time.Time
	refused   int
	rounds    int
	// halt is the error a round failed with; the generator stops there
	// and every valid transaction not yet committed counts as failed.
	halt error
	// roundRecords counts the records each round committed.
	roundRecords []int
	// windowEnd is the end of the measured window; drainEnd when the
	// drain stopped.
	windowEnd, drainEnd time.Time
	// cpu is the process CPU the run took, window and drain; cpuParts
	// samples it over the window's parts.
	cpu      time.Duration
	cpuParts *cpuWindows
}

// runOpenLoop drives sys with the arrival schedule: every arrival due
// by now is submitted, then a round runs whenever anything is staged;
// arrivals that fall due during a round are submitted right after it.
// Latency is timed from each arrival's due time, so a stalled round
// delays every transaction behind it. After the window the generator
// keeps running rounds until every admitted valid transaction is
// committed valid and nothing is staged, or drainLimit passes. onRound,
// if set, is called after every round with the running count of
// committed valid transactions.
func runOpenLoop(ctx context.Context, sys openSystem, clk clock, arrivals []arrival, window, drainLimit time.Duration, onRound func(now time.Time, committedValid int)) (*openOutcome, error) {
	out := &openOutcome{
		arrivals:  arrivals,
		book:      newBook[repchain.TxID](),
		submitted: make([]time.Time, len(arrivals)),
	}
	bk := out.book
	out.start = clk.now()
	// Every arrival is offered up front, so those a halt leaves
	// unsubmitted still count as attempted.
	for _, a := range arrivals {
		bk.offer(out.start.Add(a.due), a.valid)
	}
	cpu0 := processCPU()
	defer func() { out.cpu = processCPU() - cpu0 }()
	out.windowEnd = out.start.Add(window)
	out.cpuParts = newCPUWindows(out.start, window, cpuParts)
	drainDeadline := out.windowEnd.Add(drainLimit)
	next := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := clk.now()
		for next < len(arrivals) && !out.start.Add(arrivals[next].due).After(now) {
			a := &arrivals[next]
			id, err := sys.submit(a)
			if err != nil {
				if !errors.Is(err, repchain.ErrBacklog) {
					return nil, fmt.Errorf("submit arrival %d: %w", next, err)
				}
				out.refused++
			} else {
				bk.admit(id, next)
				out.submitted[next] = now
			}
			next++
		}
		if !now.Before(drainDeadline) {
			out.drainEnd = now
			return out, nil
		}
		if sys.staged() {
			recs, err := sys.round(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				out.halt = fmt.Errorf("round %d: %w", out.rounds+1, err)
				out.drainEnd = clk.now()
				return out, nil
			}
			done := clk.now()
			out.rounds++
			out.roundRecords = append(out.roundRecords, len(recs))
			for _, r := range recs {
				bk.commit(r.id, r.valid, done, "round", uint64(out.rounds))
			}
			out.cpuParts.mark(done, bk.committed)
			if onRound != nil {
				onRound(done, bk.committed)
			}
			continue
		}
		if next < len(arrivals) {
			clk.sleep(out.start.Add(arrivals[next].due).Sub(now))
			continue
		}
		// Window over and nothing staged: the drain is done once every
		// admitted valid transaction is committed.
		if bk.pendingValid() == 0 {
			out.drainEnd = now
			return out, nil
		}
		clk.sleep(time.Millisecond)
	}
}

// validStats summarizes an open-loop outcome over valid transactions:
// how many were attempted, how many committed valid (inside the
// measured window, and at all), their latency samples, and how late
// the generator submitted each admitted arrival, in ms.
func (o *openOutcome) validStats() (attempted, committedInWindow, committedTotal int, lat []latencySample, lag []float64) {
	attempted, committedInWindow, committedTotal, lat = o.book.validStats(o.start, o.windowEnd)
	for i, a := range o.arrivals {
		if !o.submitted[i].IsZero() {
			lag = append(lag, float64(o.submitted[i].Sub(o.start.Add(a.due)))/1e6)
		}
	}
	return
}
