package main

import (
	"fmt"
	"time"
)

// book is a workload's ledger of the transactions it offered, keyed
// the way the workload finds them again in committed blocks, with each
// one's first commit that recorded it valid. Every workload classifies
// the records it reads back through it, so the correctness rules and
// the latency samples are the same everywhere.
type book[K comparable] struct {
	index map[K]int
	txs   []bookTx
	// admittedValid counts valid transactions the system accepted;
	// committed those of them committed valid.
	admittedValid, committed int
	violations               []string
}

type bookTx struct {
	// due is when the transaction was due; latency counts from it.
	due   time.Time
	valid bool
	// committed is when a record first showed it valid (zero if never).
	committed time.Time
}

func newBook[K comparable]() *book[K] {
	return &book[K]{index: map[K]int{}}
}

// offer enters a transaction and returns its index. A transaction the
// system refused is offered but never admitted: it counts as attempted
// and, if valid, as failed.
func (b *book[K]) offer(due time.Time, valid bool) int {
	b.txs = append(b.txs, bookTx{due: due, valid: valid})
	return len(b.txs) - 1
}

// admit records that the system accepted transaction i under key.
func (b *book[K]) admit(key K, i int) {
	b.index[key] = i
	if b.txs[i].valid {
		b.admittedValid++
	}
}

// pendingValid counts admitted valid transactions not yet committed
// valid.
func (b *book[K]) pendingValid() int { return b.admittedValid - b.committed }

// check classifies one committed record of the transaction under key,
// recorded valid or not, found in the block or round named by where
// and serial. It returns the transaction's index and whether the
// record is a valid commit of a valid transaction. A record of a
// transaction never admitted, or of an invalid one recorded valid,
// fails the correctness check.
func (b *book[K]) check(key K, recValid bool, where string, serial uint64) (int, bool) {
	i, ok := b.index[key]
	if !ok {
		b.violate("%s %d committed unknown transaction %v", where, serial, key)
		return -1, false
	}
	if recValid && !b.txs[i].valid {
		b.violate("%s %d recorded invalid transaction %d valid", where, serial, i)
		return i, false
	}
	return i, recValid
}

// commitAt marks transaction i committed valid at time at, unless an
// earlier record already did, and reports whether this was the first.
func (b *book[K]) commitAt(i int, at time.Time) bool {
	if !b.txs[i].committed.IsZero() {
		return false
	}
	b.txs[i].committed = at
	b.committed++
	return true
}

// commit is check followed, for a valid commit of a valid transaction,
// by commitAt. It returns the index and whether the record was the
// transaction's first valid commit.
func (b *book[K]) commit(key K, recValid bool, at time.Time, where string, serial uint64) (int, bool) {
	i, ok := b.check(key, recValid, where, serial)
	if !ok {
		return i, false
	}
	return i, b.commitAt(i, at)
}

func (b *book[K]) violate(format string, args ...any) {
	b.violations = append(b.violations, fmt.Sprintf(format, args...))
}

// validStats summarizes the book over valid transactions: how many
// were attempted, how many committed valid by windowEnd and at all,
// and each committed one's latency from its due time, with the due
// time as an offset from start.
func (b *book[K]) validStats(start, windowEnd time.Time) (attempted, inWindow, total int, lat []latencySample) {
	for _, t := range b.txs {
		if !t.valid {
			continue
		}
		attempted++
		if t.committed.IsZero() {
			continue
		}
		total++
		if !t.committed.After(windowEnd) {
			inWindow++
		}
		lat = append(lat, latencySample{due: t.due.Sub(start), ms: float64(t.committed.Sub(t.due)) / 1e6})
	}
	return
}
