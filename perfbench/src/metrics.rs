//! Every metric the benchmark reports, and the record of what each
//! workload is (`--describe`, kept in `perfbench/workloads.json`).

use crate::workloads::{Workload, APPEND_ROWS, NAMES};
use std::fmt::Write as _;

/// A reported metric.
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What is measured.
    pub what: &'static str,
    /// Per-layer metrics: the end-to-end metric and workload the layer
    /// should move. Empty for end-to-end metrics, whose regression bounds
    /// are in `BENCHMARK.json`.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
        moves,
    }
}

/// Metrics of the untraced run (`--trace 0`), as a user of the service sees
/// them. The bound is in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 5] = [
    m(
        "setup_s",
        "s",
        "lower",
        "median of five generate-and-load rounds of the workload's tables",
        "",
    ),
    m(
        "query_p50_ms",
        "ms",
        "lower",
        "median latency of QueryService::execute_sql",
        "",
    ),
    m(
        "query_tail_ms",
        "ms",
        "lower",
        "latency at the workload's tail percentile",
        "",
    ),
    m(
        "queries_per_s",
        "1/s",
        "higher",
        "completed queries per second of the timed loop, appends included in its time",
        "",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "VmHWM over the timed loop (the high-water mark is reset after the output check)",
        "",
    ),
];

/// Metrics of the traced run (`--trace 1`), one or more per layer.
pub const PER_LAYER: [Metric; 40] = [
    m("service.self_ms", "ms", "lower", "QueryService span minus an untraced PercentageEngine::execute_sql of the same statement, mean over warm queries", "query_p50_ms on paper_sql"),
    m("service.queue_wait_us", "us", "lower", "mean of the service's admission-queue histogram (render_metrics)", "query_p50_ms on paper_sql"),
    m("service.degraded", "count", "lower", "answers from a degradation-ladder rung (render_metrics)", "query_p50_ms on paper_sql"),
    m("sql.parse_us", "us", "lower", "mean pa_sql::parse span", "query_p50_ms on paper_sql"),
    m("core.plan_us", "us", "lower", "mean span of from_sql per statement or grouping set, plus the strategy choice where the engine makes one: choose_horizontal_strategy for Hpct, choose_vpct_strategy for flat one-term Vpct", "query_p50_ms on paper_sql"),
    m("core.execute_ms", "ms", "lower", "mean PercentageEngine::execute_sql_traced span; right after an append it runs first and cold, as the untraced run's service call does there", "query_p50_ms on paper_sql and scan_kernels"),
    m("core.unattributed_share", "fraction", "lower", "share of the execute_sql_traced span outside every engine operator span", "query_p50_ms on paper_sql and scan_kernels"),
    m("engine.op.aggregate_ms", "ms", "lower", "mean time per query in the engine's aggregate spans", "queries_per_s and query_tail_ms on scan_kernels"),
    m("engine.op.pivot_ms", "ms", "lower", "mean time per query in pivot spans", "queries_per_s and query_tail_ms on scan_kernels"),
    m("engine.op.join_ms", "ms", "lower", "mean time per query in join spans", "query_tail_ms on paper_sql"),
    m("engine.op.lattice_ms", "ms", "lower", "mean time per query in lattice spans", "query_p50_ms on cube_append"),
    m("engine.op.combos_ms", "ms", "lower", "mean time per query in combos spans", "queries_per_s on scan_kernels"),
    m("engine.op.sort_ms", "ms", "lower", "mean time per query in sort spans", "query_tail_ms on paper_sql"),
    m("engine.op.union_sets_ms", "ms", "lower", "mean time per query in union_sets spans", "query_p50_ms on cube_append"),
    m("engine.scan_rows_per_s", "1/s", "higher", "ExecStats rows_scanned per second of counted call", "queries_per_s on scan_kernels"),
    m("engine.vectorized_row_share", "fraction", "higher", "vectorized_kernel_rows / (vectorized + scalar kernel rows)", "queries_per_s on scan_kernels"),
    m("engine.dense_group_share", "fraction", "higher", "dense_group_ops / (dense + hash group ops)", "queries_per_s on scan_kernels"),
    m("engine.rle_runs", "count/query", "higher", "RLE runs absorbed by the run-level path, per query", "queries_per_s on scan_kernels"),
    m("engine.pack_width_max", "bits", "lower", "widest bit-packed dimension read", "queries_per_s on scan_kernels"),
    m("engine.holistic_lanes", "count/query", "lower", "holistic aggregate lanes planned, per query", "query_tail_ms on scan_kernels"),
    m("engine.sketch_spills", "count/query", "lower", "exact percentile states spilled to a t-digest, per query", "query_tail_ms on scan_kernels"),
    m("storage.pin_us", "us", "lower", "mean Catalog::pin_table span before a query", "query_p50_ms on paper_sql"),
    m("storage.wal_records_per_query", "count/query", "lower", "Catalog::wal_stats record delta around each counted call", "query_tail_ms and peak_rss_mb on paper_sql and cube_append"),
    m("storage.wal_bytes_per_query", "B/query", "lower", "Catalog::wal_stats byte delta around each counted call", "query_tail_ms and peak_rss_mb on paper_sql and cube_append"),
    m("storage.version_bumps_per_query", "count/query", "lower", "Catalog::epoch delta around each counted call", "query_p50_ms on paper_sql and cube_append"),
    m("storage.rows_materialized_per_output_row", "ratio", "lower", "ExecStats rows_materialized over result rows", "queries_per_s on paper_sql"),
    m("storage.temp_tables_left", "count", "lower", "catalog tables beyond the workload's own after the run", "peak_rss_mb on paper_sql"),
    m("storage.wal_total_mb", "MB/pass", "lower", "WAL written by counted calls and appends per pass of the shape list", "peak_rss_mb and queries_per_s on paper_sql"),
    m("storage.lattice_hit_rate", "fraction", "higher", "lattice_cache().stats() hits / lookups around counted calls", "query_p50_ms on cube_append"),
    m("storage.levels_from_cache_share", "fraction", "higher", "ExecStats levels_from_cache / lattice_levels", "query_p50_ms on cube_append"),
    m("storage.lattice_invalidations", "count/query", "lower", "lattice cache entries invalidated per query, appends included", "query_p50_ms on cube_append"),
    m("storage.combo_hit_rate", "fraction", "higher", "combo_cache().stats() hits / lookups around counted calls", "query_p50_ms on cube_append"),
    m("storage.append_us", "us", "lower", "mean PercentageEngine::append_rows span", "queries_per_s on cube_append"),
    m("storage.append_pin_us", "us", "lower", "mean Catalog::pin_table span right after an append", "query_p50_ms on cube_append"),
    m("storage.append_p50_ms", "ms", "lower", "median append_rows latency", "queries_per_s on cube_append"),
    m("storage.append_tail_ms", "ms", "lower", "append_rows latency at the workload's tail percentile", "queries_per_s on cube_append"),
    m("storage.append_wal_bytes_per_row", "B/row", "lower", "Catalog::wal_stats byte delta per appended row", "queries_per_s on cube_append"),
    m("storage.rows_scanned_per_query", "count/query", "lower", "ExecStats rows_scanned per query", "queries_per_s on all workloads"),
    m("obs.trace_overhead_pct", "%", "lower", "execute_sql_traced over an untraced execute_sql of the same statement, both warm, minus 100", "none: tracing cost"),
    m("obs.span_coverage", "fraction", "higher", "share of the engine's query span covered by its operator spans", "none: tracing blind spots"),
];

/// `layer → metrics` for the traced run, by name prefix.
pub const LAYERS: [(&str, &str); 5] = [
    ("service", "service"),
    ("sql", "sql"),
    (
        "core (optimizer, executor) and engine (kernels)",
        "core|engine",
    ),
    ("storage (catalog, WAL, caches, write path)", "storage"),
    ("obs", "obs"),
];

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("write to String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_json(m: &Metric) -> String {
    let mut out = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"what\": {}",
        json_str(m.name),
        json_str(m.unit),
        json_str(m.better),
        json_str(m.what)
    );
    if !m.moves.is_empty() {
        write!(out, ", \"should_move\": {}", json_str(m.moves)).expect("write to String");
    }
    out.push('}');
    out
}

fn workload_json(w: &Workload) -> String {
    let tables: Vec<String> = w
        .tables
        .iter()
        .map(|(n, rows)| format!("{{\"table\": {}, \"rows\": {rows}}}", json_str(n)))
        .collect();
    let shapes: Vec<String> = w.shapes.iter().map(|s| json_str(&s.sql())).collect();
    let writes = match w.append_to {
        Some(t) => json_str(&format!(
            "PercentageEngine::append_rows of {APPEND_ROWS} seeded rows to {t}, then Catalog::pin_table, before each shape's {} back-to-back runs",
            w.repeats
        )),
        None => "null".to_string(),
    };
    format!(
        "    {{\"name\": {}, \"why\": {}, \"tables\": [{}], \"clients\": 1, \"loop\": \"closed\", \
         \"threads\": \"PA_THREADS unset: host parallelism\", \
         \"flush_policy\": \"default in-memory WAL (64 MiB retained), no checkpoint store\", \
         \"queries_per_pass\": {}, \"tail_percentile\": {}, \"min_query_samples\": {}, \"writes\": {writes},\n     \"shapes\": [\n      {}]}}",
        json_str(w.name),
        json_str(w.why),
        tables.join(", "),
        w.pass_queries(),
        w.tail_percentile,
        w.min_samples(),
        shapes.join(",\n      ")
    )
}

/// The record of every workload and metric, as JSON.
pub fn describe() -> String {
    let workloads: Vec<String> = NAMES
        .iter()
        .map(|n| workload_json(&Workload::named(n).expect("listed workload")))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| format!("    {}", metric_json(m)))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| format!("    {}", metric_json(m)))
        .collect();
    let layer_map: Vec<String> = LAYERS
        .iter()
        .map(|(layer, prefixes)| {
            let names: Vec<String> = PER_LAYER
                .iter()
                .filter(|m| {
                    prefixes
                        .split('|')
                        .any(|p| m.name.split('.').next() == Some(p))
                })
                .map(|m| json_str(m.name))
                .collect();
            format!(
                "    {{\"layer\": {}, \"metrics\": [{}]}}",
                json_str(layer),
                names.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"generated_by\": \"cargo run --release --manifest-path perfbench/Cargo.toml -- --describe\",\n  \
         \"seeded\": \"--seed drives every table generator, the pass order and the appended rows\",\n  \
         \"counted_call\": \"per-query counters and ExecStats of the traced run come from the call that finds the caches as the untraced run's service call does: the service call, or right after an append the traced engine call, which then runs first\",\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ],\n  \"layers\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
        layer_map.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_description_is_current() {
        assert_eq!(
            include_str!("../workloads.json"),
            describe(),
            "regenerate perfbench/workloads.json with --describe"
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let bench = include_str!("../../BENCHMARK.json");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert_eq!(bench.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            bench.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(bench.contains(&entry), "{entry}");
        }
        assert_eq!(bench.matches("\"why\"").count(), NAMES.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn every_per_layer_metric_has_a_layer() {
        for m in &PER_LAYER {
            let prefix = m.name.split('.').next().unwrap();
            assert!(
                LAYERS
                    .iter()
                    .any(|(_, p)| p.split('|').any(|p| p == prefix)),
                "{}",
                m.name
            );
        }
    }
}
