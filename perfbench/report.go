package main

import (
	"sort"
)

// addCalibration reports the host calibration taken at the start of
// the run.
func (r *report) addCalibration(c calibration) {
	r.layer("calib.ed25519_verify_us", c.verifyUS)
	r.layer("calib.ed25519_sign_us", c.signUS)
	r.layer("calib.sha256_ns", c.sha256NS)
	r.note("calibration: ed25519 verify %.2f us, sign %.2f us, sha256(64 B) %.1f ns", c.verifyUS, c.signUS, c.sha256NS)
}

// spanMetricNames maps each self_us_per_tx metric to the span names it
// sums.
var spanMetricNames = map[string][]string{
	"self_us_per_tx.submit":         {"submit", "submit_cross"},
	"self_us_per_tx.round":          {"round"},
	"self_us_per_tx.validate":       {"validate"},
	"self_us_per_tx.block":          {"block"},
	"self_us_per_tx.verify_chain":   {"verify_chain"},
	"self_us_per_tx.reopen":         {"reopen"},
	"self_us_per_tx.node_lifecycle": {"node_launch", "node_kill", "node_restart", "restart_first_commit"},
}

// addSpanMetrics derives the span-based per-layer metrics. committed
// is the run's count of committed valid transactions.
func (r *report) addSpanMetrics(rec *spanRecorder, committed int) {
	agg := aggregate(rec.snapshot())
	pct := func(name string, q, scale float64) float64 {
		st := agg[name]
		if st == nil {
			return 0
		}
		d := append([]float64(nil), st.durs...)
		sort.Float64s(d)
		return quantile(d, q) / scale
	}
	r.layer("repchain.submit_us_p50", pct("submit", 0.5, 1e3))
	r.layer("repchain.round_ms_p50", pct("round", 0.5, 1e6))
	if st := agg["round"]; st != nil {
		q, ok := supportedQuantile(st.count, 0.99)
		if !ok {
			q = 1
		}
		r.layer("repchain.round_ms_p99", pct("round", q, 1e6))
		r.note("round spans: %d, tail reported at p%.4g", st.count, 100*q)
	} else {
		r.layer("repchain.round_ms_p99", 0)
	}
	r.layer("repchain.block_read_us_p50", pct("block", 0.5, 1e3))

	tx := rec.tracedTx(committed)
	validateNS := 0.0
	if st := agg["validate"]; st != nil {
		for _, d := range st.durs {
			validateNS += d
		}
	}
	r.layer("tx.validate_ms_per_tx", perTx(validateNS, tx)/1e6)
	for name, spans := range spanMetricNames {
		self := 0.0
		for _, sn := range spans {
			if st := agg[sn]; st != nil {
				self += st.selfNS
			}
		}
		r.layer(name, perTx(self, tx)/1e3)
	}
	spanNames := make([]string, 0, len(agg))
	for n := range agg {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	for _, n := range spanNames {
		st := agg[n]
		r.note("self time %-22s %8d spans %12.3f ms", n, st.count, st.selfNS/1e6)
	}
	r.layer("bench.trace_overhead_frac", rec.overhead())
	r.note("tracing overhead: CPU per tx with spans on vs off (alternating 1 s slices) %+.2f%%", 100*rec.overhead())
}

// perTx divides v by n, or returns 0 when n is 0.
func perTx(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}
