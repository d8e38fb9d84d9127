package main

// metricName is a reported metric's name and unit.
type metricName struct{ name, unit string }

// endToEndNames are the metrics an untraced run reports, in
// BENCHMARK.json order. Every workload reports all of them.
var endToEndNames = []metricName{
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"committed_tps", "tx/s"},
	{"delivered_frac", "ratio"},
	{"cpu_ms_per_tx", "ms/tx"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerNames are the metrics a traced run reports, named by module.
// Every workload reports all of them; a metric a workload's layers do
// not exercise reads 0 (WORKLOADS.md maps each to the end-to-end
// metric it should move).
var perLayerNames = []metricName{
	// repchain: the facade calls, timed from the benchmark's spans.
	{"repchain.submit_us_p50", "us"},
	{"repchain.round_ms_p50", "ms"},
	{"repchain.round_ms_p99", "ms"},
	{"repchain.txs_per_round", "tx"},
	{"repchain.block_read_us_p50", "us"},
	// core: the engine's round.stage_seconds, per round.
	{"core.stage_ms.ingest", "ms"},
	{"core.stage_ms.resync", "ms"},
	{"core.stage_ms.upload", "ms"},
	{"core.stage_ms.screen", "ms"},
	{"core.stage_ms.elect", "ms"},
	{"core.stage_ms.pack", "ms"},
	{"core.stage_ms.commit", "ms"},
	{"core.stage_ms.argue", "ms"},
	// crypto: signature-cache work per committed valid transaction.
	{"crypto.verifies_per_tx", "1/tx"},
	{"crypto.cache_hits_per_tx", "1/tx"},
	{"crypto.batch_deduped_per_tx", "1/tx"},
	{"crypto.verifies_per_tx.governor", "1/tx"},
	{"crypto.verifies_per_tx.collector", "1/tx"},
	// reputation and tx: screening and the application validator.
	{"reputation.check_fraction", "ratio"},
	{"reputation.unchecked_per_tx", "1/tx"},
	{"tx.validate_calls_per_tx", "1/tx"},
	{"tx.validate_ms_per_tx", "ms/tx"},
	// mempool
	{"mempool.drain_batch_mean", "tx"},
	{"mempool.depth_max", "tx"},
	// ledger
	{"ledger.disk_bytes_per_tx", "B/tx"},
	{"ledger.snapshots", "count"},
	{"ledger.segments_pruned", "count"},
	{"ledger.reopen_ms", "ms"},
	{"ledger.verify_chain_us_per_block", "us"},
	// shard
	{"shard.cross_frac", "ratio"},
	{"shard.receipt_rounds_mean", "rounds"},
	{"shard.receipts_pending_end", "count"},
	// transport: the multi-process TCP cluster.
	{"transport.lo_bytes_per_tx", "B/tx"},
	{"transport.frames_per_tx", "1/tx"},
	{"transport.send_failures", "count"},
	{"transport.retries", "count"},
	{"transport.cpu_ms_per_tx.provider", "ms/tx"},
	{"transport.cpu_ms_per_tx.collector", "ms/tx"},
	{"transport.cpu_ms_per_tx.governor", "ms/tx"},
	{"transport.stage_ms_p99.screen", "ms"},
	{"transport.stage_ms_p99.elect", "ms"},
	{"transport.stage_ms_p99.pack", "ms"},
	{"transport.stage_ms_p99.commit", "ms"},
	{"transport.screen_slack_ms", "ms"},
	{"transport.restart_catchup_s", "s"},
	{"transport.downtime_s", "s"},
	// trace and events: the program's own telemetry rings.
	{"trace.spans_per_round", "count"},
	{"events.events_per_round", "count"},
	{"trace.dropped", "count"},
	{"events.dropped", "count"},
	// go runtime, in process.
	{"go.allocs_per_tx", "1/tx"},
	{"go.alloc_bytes_per_tx", "B/tx"},
	// calib and bench: host calibration and the harness itself.
	{"calib.ed25519_verify_us", "us"},
	{"calib.ed25519_sign_us", "us"},
	{"calib.sha256_ns", "ns"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	// self time per committed valid transaction of each span the
	// benchmark records (span duration minus the part its children
	// cover).
	{"self_us_per_tx.submit", "us/tx"},
	{"self_us_per_tx.round", "us/tx"},
	{"self_us_per_tx.validate", "us/tx"},
	{"self_us_per_tx.block", "us/tx"},
	{"self_us_per_tx.verify_chain", "us/tx"},
	{"self_us_per_tx.reopen", "us/tx"},
	{"self_us_per_tx.node_lifecycle", "us/tx"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricName{endToEndNames, perLayerNames} {
		for _, n := range l {
			m[n.name] = n.unit
		}
	}
	return m
}()
