package main

// metricDef is one row of BENCHMARK.json; a test keeps that file equal
// to these tables.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEndMetrics are what a client of the daemon pays: every workload
// reports all six with tracing off. The times are at reference host
// speed (see summarize); README.md has the definitions.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.15},
	{"throughput_rps", "1/s", "higher", 0.10},
	{"read_p50_ms", "ms", "lower", 0.15},
	{"write_p50_ms", "ms", "lower", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayerMetrics are single layers' numbers, reported by the traced
// run; they carry no bound. A metric a workload has nothing to say
// about (no translation happened, no write was made) reads 0.
var perLayerMetrics = []metricDef{
	// endpoint, read from outside the daemon around the measured phase
	{name: "endpoint.read_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "endpoint.read_p95_ms", unit: "ms", better: "lower"},
	{name: "endpoint.read_p99_ms", unit: "ms", better: "lower"},
	{name: "endpoint.read_samples", unit: "count", better: "higher"},
	{name: "endpoint.write_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "endpoint.write_p95_ms", unit: "ms", better: "lower"},
	{name: "endpoint.write_p99_ms", unit: "ms", better: "lower"},
	{name: "endpoint.write_samples", unit: "count", better: "higher"},
	{name: "endpoint.throughput_raw_rps", unit: "1/s", better: "higher"},
	{name: "endpoint.throughput_mean_rps", unit: "1/s", better: "higher"},
	{name: "endpoint.bytes_per_read", unit: "B", better: "lower"},
	{name: "endpoint.shed", unit: "count", better: "lower"},
	{name: "endpoint.timed_out", unit: "count", better: "lower"},
	{name: "endpoint.truncated", unit: "count", better: "lower"},
	// endpoint, traced
	{name: "endpoint.serve_read_us", unit: "us", better: "lower"},
	{name: "endpoint.serve_write_us", unit: "us", better: "lower"},
	{name: "endpoint.transport_us", unit: "us", better: "lower"},
	// sparql, update
	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "sparql.serialize_us_per_row", unit: "us", better: "lower"},
	{name: "update.parse_us", unit: "us", better: "lower"},
	// core
	{name: "core.query_us", unit: "us", better: "lower"},
	{name: "core.execute_us", unit: "us", better: "lower"},
	{name: "core.translate_us", unit: "us", better: "lower"},
	{name: "core.plan_compile_us", unit: "us", better: "lower"},
	{name: "core.query_plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.update_plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.modify_plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.compiled_ratio", unit: "ratio", better: "higher"},
	{name: "core.batch_size_mean", unit: "ops", better: "higher"},
	{name: "core.keyed_fallbacks", unit: "count", better: "lower"},
	{name: "core.allocs_per_read", unit: "count", better: "lower"},
	{name: "core.allocs_per_write", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_row", unit: "B", better: "lower"},
	// rdb and below
	{name: "rdb.sqlparser.parse_us", unit: "us", better: "lower"},
	{name: "rdb.sqlexec.select_us", unit: "us", better: "lower"},
	{name: "rdb.sqlexec.rows_per_s", unit: "1/s", better: "higher"},
	{name: "rdb.point_lookup_us", unit: "us", better: "lower"},
	{name: "rdb.tx_commit_us", unit: "us", better: "lower"},
	{name: "rdb.history_retained", unit: "count", better: "lower"},
	{name: "rdb.history_evictions", unit: "count", better: "lower"},
	{name: "rdb.wal.append_us", unit: "us", better: "lower"},
	{name: "rdb.wal.fsync_us", unit: "us", better: "lower"},
	{name: "rdb.wal.fsyncs_per_write", unit: "ratio", better: "lower"},
	{name: "rdb.wal.bytes_per_write", unit: "B", better: "lower"},
	{name: "rdb.wal.commit_overhead_us", unit: "us", better: "lower"},
	{name: "rdb.persist.recover_s", unit: "s", better: "lower"},
	{name: "rdb.persist.open_s", unit: "s", better: "lower"},
	{name: "rdb.persist.replay_records_per_s", unit: "1/s", better: "higher"},
	{name: "rdb.persist.checkpoint_s", unit: "s", better: "lower"},
	{name: "rdb.persist.checkpoints", unit: "count", better: "higher"},
	{name: "rdb.persist.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
	// r3m, the process, the harness itself
	{name: "r3m.load_ms", unit: "ms", better: "lower"},
	{name: "proc.start_ms", unit: "ms", better: "lower"},
	{name: "proc.setup_raw_s", unit: "s", better: "lower"},
	{name: "proc.cpu_raw_us_per_op", unit: "us", better: "lower"},
	{name: "proc.hwm_start_mb", unit: "MiB", better: "lower"},
	{name: "proc.rss_end_mb", unit: "MiB", better: "lower"},
	{name: "bench.host_speed", unit: "ratio", better: "higher"},
	{name: "bench.client_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "bench.setup_client_cpu_s", unit: "s", better: "lower"},
	{name: "bench.gen_us_per_req", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// conform makes got hold exactly the metrics of defs, in their units:
// one missing from got reads 0. It returns the names got had that defs
// does not know, which is a bug in the harness.
func conform(got map[string]metric, defs []metricDef) (out map[string]metric, unknown []string) {
	out = make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: got[d.name].Value, Unit: d.unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	return out, unknown
}
