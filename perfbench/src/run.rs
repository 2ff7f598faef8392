//! One run of one workload: set up, check the answers, then a closed loop
//! of one client for the measured time — untraced for the end-to-end
//! metrics, or traced for the per-layer ones.

use crate::oracle::{self, Oracle};
use crate::spans::Recorder;
use crate::workloads::{SplitMix, Workload};
use pa_core::{
    choose_horizontal_strategy, choose_vpct_strategy, from_sql, per_set_statements, Clock,
    ExecStats, PercentageEngine, Query, QueryLimits, SystemClock,
};
use pa_service::{QueryService, ServiceConfig};
use pa_storage::{Catalog, ComboCacheStats, LatticeCacheStats, WalStats};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generate-and-load rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// What a run measured.
pub struct Outcome {
    /// Operations attempted: checked executions, timed queries, appends.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Metric name → value, in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about the run printed beside the result.
    pub info: BTreeMap<&'static str, String>,
    /// Span dump of a traced run.
    pub spans: Option<String>,
}

/// Counts that repeat exactly for one seed: the benchmark's tests compare
/// them across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// WAL bytes written by setup and one execution of every shape.
    pub wal_bytes: u64,
    /// Rows scanned by those executions.
    pub rows_scanned: u64,
    /// Digest of their results, in shape order.
    pub checksum: u64,
    /// Digest of the generated tables.
    pub data: u64,
}

/// Nearest-rank percentile of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Generate and load the workload's tables into a fresh catalog.
pub fn load(w: &Workload, seed: u64, scale: f64) -> Result<Catalog, String> {
    let catalog = Catalog::new();
    for (name, table) in w.generate(seed, scale) {
        catalog
            .create_table(name, table)
            .map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

/// The service as the benchmark drives it: the standard serving engine
/// (unique temp names, temp cleanup) on a clock the span recorder shares.
pub fn service<'a>(catalog: &'a Catalog, clock: &Arc<dyn Clock>) -> QueryService<'a> {
    let engine = PercentageEngine::with_unique_temps(catalog)
        .with_temp_cleanup()
        .with_clock(Arc::clone(clock));
    QueryService::from_engine(engine, ServiceConfig::default())
}

/// Execute every shape once and compare each answer with the naive
/// evaluation over the catalog's current rows. Failures are appended to
/// `errors`.
pub fn check_all(
    w: &Workload,
    catalog: &Catalog,
    service: &QueryService<'_>,
    errors: &mut Vec<String>,
) -> Fingerprint {
    use std::hash::{Hash, Hasher};
    let mut oracle = Oracle::default();
    let mut fp = Fingerprint::default();
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    for spec in &w.shapes {
        let sql = spec.sql();
        let answer = service
            .execute_sql(&sql)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                let f = catalog.table(spec.table).map_err(|e| e.to_string())?;
                let f = f.read();
                oracle.check(spec, &f, &r.table).map(|()| r)
            });
        match answer {
            Ok(r) => {
                fp.rows_scanned += r.stats.rows_scanned;
                oracle::checksum(&r.table).hash(&mut digest);
            }
            Err(e) => errors.push(format!("{sql}: {e}")),
        }
    }
    fp.checksum = digest.finish();
    fp.wal_bytes = catalog.wal_stats().bytes_written;
    fp
}

/// Peak resident set (VmHWM) in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Return the allocator's free memory to the system, so what follows pays
/// for its memory as a fresh process would, not by reusing what earlier
/// phases of the run freed.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free memory; it is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset VmHWM to the current RSS, so the peak covers only what follows.
fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The samples at the `p` percentile and half a pass's count of one shape
/// (`passes / 2` samples) below and above it. Within one shape's latency
/// cluster the three are close; a tail on the gap between two clusters
/// shows as a jump on one side.
fn tail_window(sorted: &[f64], p: f64, passes: usize) -> [f64; 3] {
    if sorted.is_empty() {
        return [0.0; 3];
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let half = (passes / 2).max(1);
    [
        sorted[rank.saturating_sub(half)],
        sorted[rank],
        sorted[(rank + half).min(sorted.len() - 1)],
    ]
}

/// Query order of pass `pass`: a seeded shuffle of the shape indices.
fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng =
        SplitMix::new(seed ^ pass.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xd1b5_4a32_d192_ed03);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Run `w` with `seed` for at least `seconds`, traced or not, with tables
/// at `scale` × their base sizes.
pub fn run(
    w: &Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_ROUNDS);
    let mut loaded = None;
    for _ in 0..SETUP_ROUNDS {
        drop(loaded.take());
        release_free_heap();
        let t0 = Instant::now();
        loaded = Some(load(w, seed, scale)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let catalog = loaded.expect("at least one setup round");
    let clock = SystemClock::shared();
    let svc = service(&catalog, &clock);

    let mut errors = Vec::new();
    let t0 = Instant::now();
    check_all(w, &catalog, &svc, &mut errors);
    let check_s = t0.elapsed().as_secs_f64();
    let mut attempted = w.shapes.len() as u64;
    let rss_reset = reset_peak_rss();

    let sqls: Vec<String> = w.shapes.iter().map(|s| s.sql()).collect();
    let mut lp = Loop {
        w,
        catalog: &catalog,
        svc: &svc,
        sqls: &sqls,
        rec: Recorder::new(Arc::clone(&clock)),
        tally: Tally::default(),
        query_ms: Vec::new(),
        shape_ms: vec![Vec::new(); w.shapes.len()],
        append_ms: Vec::new(),
        errors: Vec::new(),
        requests: 0,
    };
    let start = Instant::now();
    let mut passes = 0u64;
    let mut pass_s = Vec::new();
    while start.elapsed() < Duration::from_secs_f64(seconds) || lp.query_ms.len() < w.min_samples()
    {
        let pass_start = Instant::now();
        for i in pass_order(sqls.len(), seed, passes) {
            if w.append_to.is_some() {
                lp.append(seed, traced);
            }
            for k in 0..w.repeats {
                if traced {
                    lp.traced_query(i, w.append_to.is_some() && k == 0);
                } else {
                    lp.query(i);
                }
            }
        }
        passes += 1;
        pass_s.push(pass_start.elapsed().as_secs_f64());
        if !lp.errors.is_empty() {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb().ok_or("VmHWM not readable from /proc/self/status")?;
    attempted += lp.requests;
    errors.append(&mut lp.errors);

    // Answers after the appends must reflect them.
    if w.append_to.is_some() {
        check_all(w, &catalog, &svc, &mut errors);
        attempted += w.shapes.len() as u64;
    }

    let queries = lp.query_ms.len();
    let query_ms = sorted(std::mem::take(&mut lp.query_ms));
    let mut info = BTreeMap::new();
    info.insert("passes", passes.to_string());
    info.insert("loop_s", format!("{loop_s:.3}"));
    info.insert("pass_s", format!("{pass_s:.3?}"));
    info.insert("check_s", format!("{check_s:.3}"));
    info.insert("setup_rounds_s", format!("{setup:.3?}"));
    info.insert("query_samples", queries.to_string());
    info.insert("append_samples", lp.append_ms.len().to_string());
    info.insert("tail_percentile", w.tail_percentile.to_string());
    info.insert(
        "tail_window_ms",
        format!(
            "{:.3?}",
            tail_window(&query_ms, w.tail_percentile, passes as usize)
        ),
    );
    let shape_p50: Vec<String> = lp
        .shape_ms
        .iter()
        .map(|v| format!("{:.3}", percentile(&sorted(v.clone()), 0.5)))
        .collect();
    info.insert("shape_p50_ms", shape_p50.join(" "));
    info.insert(
        "peak_rss_scope",
        if rss_reset {
            "timed loop"
        } else {
            "whole process"
        }
        .to_string(),
    );
    if !errors.is_empty() {
        info.insert("errors", errors.join("; "));
    }
    let metrics = if traced {
        let (metrics, self_ms) = lp.per_layer(passes);
        info.insert("self_ms_per_query", self_ms);
        metrics
    } else {
        vec![
            ("setup_s", percentile(&sorted(setup.clone()), 0.5)),
            ("query_p50_ms", percentile(&query_ms, 0.5)),
            ("query_tail_ms", percentile(&query_ms, w.tail_percentile)),
            ("queries_per_s", queries as f64 / loop_s),
            ("peak_rss_mb", peak),
        ]
    };
    Ok(Outcome {
        attempted,
        failed: errors.len() as u64,
        metrics,
        info,
        spans: traced.then(|| lp.rec.to_json()),
    })
}

/// Counters summed over the calls a traced loop counts: the service call
/// of each request, or the traced engine call where that one runs first.
#[derive(Default)]
struct Tally {
    queries: u64,
    /// Wall time of the counted calls.
    ns: u64,
    stats: ExecStats,
    result_rows: u64,
    wal_records: u64,
    wal_bytes: u64,
    epoch_bumps: u64,
    lattice_hits: u64,
    lattice_lookups: u64,
    combo_hits: u64,
    combo_lookups: u64,
    /// Requests whose service call missed the lattice or combo cache.
    service_cold: BTreeSet<u64>,
    /// Requests right after an append, whose traced engine call ran first
    /// and found the caches cold.
    after_append: BTreeSet<u64>,
    appends: u64,
    append_wal_bytes: u64,
    lattice_invalidations: u64,
}

/// Storage counters read before and after one call.
struct Counters {
    wal: WalStats,
    epoch: u64,
    lattice: LatticeCacheStats,
    combo: ComboCacheStats,
}

impl Counters {
    fn read(c: &Catalog) -> Counters {
        Counters {
            wal: c.wal_stats(),
            epoch: c.epoch(),
            lattice: c.lattice_cache().stats(),
            combo: c.combo_cache().stats(),
        }
    }

    /// Whether no lattice or combo lookup missed between `before` and now.
    fn warm_since(&self, before: &Counters) -> bool {
        self.lattice.misses == before.lattice.misses && self.combo.misses == before.combo.misses
    }
}

struct Loop<'a, 's> {
    w: &'a Workload,
    catalog: &'a Catalog,
    svc: &'a QueryService<'s>,
    sqls: &'a [String],
    rec: Recorder,
    tally: Tally,
    query_ms: Vec<f64>,
    shape_ms: Vec<Vec<f64>>,
    append_ms: Vec<f64>,
    errors: Vec<String>,
    requests: u64,
}

impl Loop<'_, '_> {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.errors.push(format!("{what}: {e}"));
    }

    /// One untraced query: only the service call is timed.
    fn query(&mut self, i: usize) {
        self.requests += 1;
        let t0 = Instant::now();
        let r = self.svc.execute_sql(&self.sqls[i]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(r) => {
                black_box(r);
                self.query_ms.push(ms);
                self.shape_ms[i].push(ms);
            }
            Err(e) => {
                let sqls = self.sqls;
                self.fail(&sqls[i], e);
            }
        }
    }

    /// One append of seeded rows, then the pin the next reader takes.
    fn append(&mut self, seed: u64, traced: bool) {
        let table = self.w.append_to.expect("workload appends");
        let rows = self.w.append_batch(seed, self.tally.appends);
        self.tally.appends += 1;
        self.requests += 1;
        let (catalog, engine) = (self.catalog, self.svc.engine());
        let wal0 = catalog.wal_stats();
        let lat0 = catalog.lattice_cache().stats();
        let (r, ms) = if traced {
            let req = self.requests;
            let root = self.rec.open("append", None, req);
            let t0 = Instant::now();
            let r = self.rec.time("storage.append_rows", root, req, || {
                engine.append_rows(table, &rows)
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.rec.time("storage.append_pin", root, req, || {
                drop(catalog.pin_table(table))
            });
            self.rec.close(root);
            (r, ms)
        } else {
            let t0 = Instant::now();
            let r = engine.append_rows(table, &rows);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(catalog.pin_table(table));
            (r, ms)
        };
        self.tally.append_wal_bytes += catalog.wal_stats().bytes_written - wal0.bytes_written;
        self.tally.lattice_invalidations +=
            catalog.lattice_cache().stats().invalidations - lat0.invalidations;
        match r {
            Ok(_) => self.append_ms.push(ms),
            Err(e) => self.fail("append_rows", e),
        }
    }

    /// One traced query: the service call, then each layer's public entry
    /// point called on its own, then the engine traced and untraced in
    /// alternating order (their difference is the tracing overhead).
    ///
    /// The first run after an append starts with the traced engine call
    /// instead: it finds the caches as cold as the untraced run's service
    /// call does there, so the engine's operator spans cover the cold work
    /// (lattice scan, combo misses), and the request's counters are its.
    /// The service and untraced engine calls after it are warm.
    fn traced_query(&mut self, i: usize, after_append: bool) {
        self.requests += 1;
        let req = self.requests;
        let sql = self.sqls[i].as_str();
        let table = self.w.shapes[i].table;
        let (catalog, svc) = (self.catalog, self.svc);
        let root = self.rec.open("request", None, req);

        if after_append {
            self.tally.after_append.insert(req);
            self.traced_execute(root, req, i, true);
        }

        let before = Counters::read(catalog);
        let t0 = Instant::now();
        let r = self
            .rec
            .time("service.execute_sql", root, req, || svc.execute_sql(sql));
        let ns = t0.elapsed().as_nanos() as u64;
        let after = Counters::read(catalog);
        match r {
            Ok(r) => {
                let ms = ns as f64 / 1e6;
                self.query_ms.push(ms);
                self.shape_ms[i].push(ms);
                if !after.warm_since(&before) {
                    self.tally.service_cold.insert(req);
                }
                if !after_append {
                    let rows = r.table.num_rows() as u64;
                    self.tally.record(&r.stats, rows, &before, &after, ns);
                }
            }
            Err(e) => {
                self.tally.service_cold.insert(req);
                self.fail(sql, e);
            }
        }

        let parsed = self.rec.time("sql.parse", root, req, || pa_sql::parse(sql));
        match parsed {
            Ok(stmt) => {
                let planned = self
                    .rec
                    .time("core.plan", root, req, || plan(catalog, &stmt));
                if let Err(e) = planned {
                    self.fail(sql, e);
                }
            }
            Err(e) => self.fail(sql, e),
        }
        self.rec
            .time("storage.pin", root, req, || drop(catalog.pin_table(table)));

        let engine = svc.engine();
        for traced_first in [req.is_multiple_of(2), !req.is_multiple_of(2)] {
            if traced_first {
                if !after_append {
                    self.traced_execute(root, req, i, false);
                }
            } else {
                let r = self.rec.time("core.execute_untraced", root, req, || {
                    engine.execute_sql(sql)
                });
                if let Err(e) = r {
                    self.fail(sql, e);
                }
            }
        }
        self.rec.close(root);
    }

    /// `execute_sql_traced` of shape `i` in a `core.execute` span, with the
    /// engine's operator spans attached under it. With `count`, its
    /// counters go into the tally.
    fn traced_execute(&mut self, root: usize, req: u64, i: usize, count: bool) {
        let sql = self.sqls[i].as_str();
        let before = Counters::read(self.catalog);
        let t0 = Instant::now();
        let span = self.rec.open("core.execute", Some(root), req);
        let r = self
            .svc
            .engine()
            .execute_sql_traced(sql, QueryLimits::none());
        self.rec.close(span);
        let ns = t0.elapsed().as_nanos() as u64;
        let after = Counters::read(self.catalog);
        match r {
            Ok((out, report)) => {
                if count {
                    let rows = out.table().read().num_rows() as u64;
                    self.tally.record(&out.stats(), rows, &before, &after, ns);
                }
                black_box(out);
                self.rec.attach(span, req, &report);
            }
            Err(e) => {
                let sqls = self.sqls;
                self.fail(&sqls[i], e);
            }
        }
    }

    /// Per-layer metrics from the spans and counters of a traced loop, and
    /// each span name's self time per query.
    fn per_layer(&mut self, passes: u64) -> (Vec<(&'static str, f64)>, String) {
        let spans = self.rec.spans();
        let self_ns = self.rec.self_ns();
        let t = &self.tally;
        let q = t.queries.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        // Per name: count, summed duration, summed self time.
        let mut by_name: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
        // Per request: the service call, the traced and the untraced engine
        // call.
        let mut calls: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&self_ns) {
            let ns = s.duration_ns() as f64;
            let e = by_name.entry(s.name.as_str()).or_default();
            e.0 += 1.0;
            e.1 += ns;
            e.2 += *own as f64;
            let slot = match s.name.as_str() {
                "service.execute_sql" => 0,
                "core.execute" => 1,
                "core.execute_untraced" => 2,
                _ => continue,
            };
            calls.entry(s.request).or_default()[slot] = ns;
        }
        // Service versus untraced engine where the service call found the
        // caches warm, as the engine call after it does.
        let service_self: Vec<f64> = calls
            .iter()
            .filter(|(req, c)| !t.service_cold.contains(req) && c[0] > 0.0 && c[2] > 0.0)
            .map(|(_, c)| c[0] - c[2])
            .collect();
        // Traced versus untraced engine where both calls ran warm.
        let (traced_ns, untraced_ns) = calls
            .iter()
            .filter(|(req, c)| !t.after_append.contains(req) && c[1] > 0.0 && c[2] > 0.0)
            .fold((0.0, 0.0), |(a, b), (_, c)| (a + c[1], b + c[2]));
        let self_ms: Vec<String> = by_name
            .iter()
            .map(|(name, (_, _, own))| format!("{name}={:.4}", own / q / 1e6))
            .collect();
        let get = |n: &str| by_name.get(n).copied().unwrap_or_default();
        let mean_us = |n: &str| {
            let (c, d, _) = get(n);
            ratio(d, c) / 1e3
        };
        let op_ms = |n: &str| get(n).1 / q / 1e6;
        let (_, exec_ns, exec_self) = get("core.execute");
        let (_, query_ns, query_self) = get("core.query");
        let metrics_text = self.svc.render_metrics();
        let prom = |prefix: &str| -> f64 {
            metrics_text
                .lines()
                .filter(|l| l.starts_with(prefix))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        };
        let s = &t.stats;
        let append_ms = sorted(self.append_ms.clone());
        let base: Vec<&str> = self.w.tables.iter().map(|(n, _)| *n).collect();
        let temps = self
            .catalog
            .table_names()
            .iter()
            .filter(|n| !base.contains(&n.as_str()))
            .count();
        let metrics = vec![
            (
                "service.self_ms",
                ratio(service_self.iter().sum(), service_self.len() as f64) / 1e6,
            ),
            (
                "service.queue_wait_us",
                ratio(
                    prom("pa_service_queue_wait_nanoseconds_sum"),
                    prom("pa_service_queue_wait_nanoseconds_count"),
                ) / 1e3,
            ),
            ("service.degraded", prom("pa_service_degraded_total")),
            ("sql.parse_us", mean_us("sql.parse")),
            ("core.plan_us", mean_us("core.plan")),
            ("core.execute_ms", mean_us("core.execute") / 1e3),
            (
                "core.unattributed_share",
                ratio(exec_self + query_self, exec_ns),
            ),
            ("engine.op.aggregate_ms", op_ms("engine.aggregate")),
            ("engine.op.pivot_ms", op_ms("engine.pivot")),
            ("engine.op.join_ms", op_ms("engine.join")),
            ("engine.op.lattice_ms", op_ms("engine.lattice")),
            ("engine.op.combos_ms", op_ms("engine.combos")),
            ("engine.op.sort_ms", op_ms("engine.sort")),
            ("engine.op.union_sets_ms", op_ms("engine.union_sets")),
            (
                "engine.scan_rows_per_s",
                ratio(s.rows_scanned as f64, t.ns as f64 / 1e9),
            ),
            (
                "engine.vectorized_row_share",
                ratio(
                    s.vectorized_kernel_rows as f64,
                    (s.vectorized_kernel_rows + s.scalar_kernel_rows) as f64,
                ),
            ),
            (
                "engine.dense_group_share",
                ratio(
                    s.dense_group_ops as f64,
                    (s.dense_group_ops + s.hash_group_ops) as f64,
                ),
            ),
            ("engine.rle_runs", s.rle_runs as f64 / q),
            ("engine.pack_width_max", s.pack_width as f64),
            ("engine.holistic_lanes", s.holistic_lanes as f64 / q),
            ("engine.sketch_spills", s.sketch_spills as f64 / q),
            ("storage.pin_us", mean_us("storage.pin")),
            ("storage.wal_records_per_query", t.wal_records as f64 / q),
            ("storage.wal_bytes_per_query", t.wal_bytes as f64 / q),
            ("storage.version_bumps_per_query", t.epoch_bumps as f64 / q),
            (
                "storage.rows_materialized_per_output_row",
                ratio(s.rows_materialized as f64, t.result_rows as f64),
            ),
            ("storage.temp_tables_left", temps as f64),
            (
                "storage.wal_total_mb",
                ratio((t.wal_bytes + t.append_wal_bytes) as f64, passes as f64) / 1e6,
            ),
            (
                "storage.lattice_hit_rate",
                ratio(t.lattice_hits as f64, t.lattice_lookups as f64),
            ),
            (
                "storage.levels_from_cache_share",
                ratio(s.levels_from_cache as f64, s.lattice_levels as f64),
            ),
            (
                "storage.lattice_invalidations",
                t.lattice_invalidations as f64 / q,
            ),
            (
                "storage.combo_hit_rate",
                ratio(t.combo_hits as f64, t.combo_lookups as f64),
            ),
            ("storage.append_us", mean_us("storage.append_rows")),
            ("storage.append_pin_us", mean_us("storage.append_pin")),
            ("storage.append_p50_ms", percentile(&append_ms, 0.5)),
            (
                "storage.append_tail_ms",
                percentile(&append_ms, self.w.tail_percentile),
            ),
            (
                "storage.append_wal_bytes_per_row",
                ratio(
                    t.append_wal_bytes as f64,
                    (append_ms.len() * crate::workloads::APPEND_ROWS) as f64,
                ),
            ),
            ("storage.rows_scanned_per_query", s.rows_scanned as f64 / q),
            (
                "obs.trace_overhead_pct",
                100.0 * ratio(traced_ns - untraced_ns, untraced_ns),
            ),
            ("obs.span_coverage", 1.0 - ratio(query_self, query_ns)),
        ];
        (metrics, self_ms.join(" "))
    }
}

impl Tally {
    /// Add one counted call: its stats, result rows, the storage counters
    /// around it and its wall time.
    fn record(
        &mut self,
        stats: &ExecStats,
        rows: u64,
        before: &Counters,
        after: &Counters,
        ns: u64,
    ) {
        self.queries += 1;
        self.ns += ns;
        let pack = self.stats.pack_width.max(stats.pack_width);
        self.stats += *stats;
        self.stats.pack_width = pack;
        self.result_rows += rows;
        self.wal_records += after.wal.records - before.wal.records;
        self.wal_bytes += after.wal.bytes_written - before.wal.bytes_written;
        self.epoch_bumps += after.epoch - before.epoch;
        let (lat0, lat1) = (&before.lattice, &after.lattice);
        let (combo0, combo1) = (&before.combo, &after.combo);
        self.lattice_hits += lat1.hits - lat0.hits;
        self.lattice_lookups += lat1.hits - lat0.hits + lat1.misses - lat0.misses;
        self.lattice_invalidations += lat1.invalidations - lat0.invalidations;
        self.combo_hits += combo1.hits - combo0.hits;
        self.combo_lookups += combo1.hits - combo0.hits + combo1.misses - combo0.misses;
    }
}

/// What the engine plans before executing: `from_sql` for the statement or
/// each of its grouping sets, and the strategy choice where the engine
/// makes one. Hpct always chooses; Vpct chooses only for a flat one-term
/// statement, since grouping sets and multi-term Vpct go straight to the
/// lattice evaluator.
fn plan(catalog: &Catalog, stmt: &pa_sql::SelectStmt) -> Result<(), pa_core::CoreError> {
    let one = |s: &pa_sql::SelectStmt, flat: bool| -> Result<(), pa_core::CoreError> {
        match from_sql(s)? {
            Query::Vertical(q) => {
                if flat && q.terms.len() == 1 {
                    black_box(choose_vpct_strategy(catalog, &q));
                }
            }
            Query::Horizontal(q) => {
                black_box(choose_horizontal_strategy(catalog, &q)?);
            }
        }
        Ok(())
    };
    if stmt.grouping.is_flat() {
        return one(stmt, true);
    }
    for (_, flat) in per_set_statements(stmt)? {
        if let Some(flat) = flat {
            one(&flat, false)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use std::hash::{Hash, Hasher};

    /// Table sizes for the tests: a few thousand rows per table.
    const TINY: f64 = 0.002;

    /// Set up `w` small, append once if it appends, and check every shape
    /// before and after: the counts two runs with one seed must agree on,
    /// and the check failures.
    fn fingerprint(w: &Workload, seed: u64) -> (Fingerprint, Vec<String>) {
        let catalog = load(w, seed, TINY).unwrap();
        let mut data = std::collections::hash_map::DefaultHasher::new();
        for (name, _) in &w.tables {
            oracle::checksum(&catalog.table(name).unwrap().read()).hash(&mut data);
        }
        let clock = SystemClock::shared();
        let svc = service(&catalog, &clock);
        let mut errors = Vec::new();
        let mut fp = check_all(w, &catalog, &svc, &mut errors);
        if let Some(table) = w.append_to {
            svc.engine()
                .append_rows(table, &w.append_batch(seed, 0))
                .unwrap();
            let after = check_all(w, &catalog, &svc, &mut errors);
            fp.rows_scanned += after.rows_scanned;
            fp.checksum ^= after.checksum.rotate_left(1);
            fp.wal_bytes = after.wal_bytes;
        }
        fp.data = data.finish();
        (fp, errors)
    }

    #[test]
    fn every_shape_parses_and_passes_the_check_at_a_tiny_scale() {
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            for spec in &w.shapes {
                pa_sql::parse(&spec.sql()).unwrap();
            }
            let (_, errors) = fingerprint(&w, 11);
            assert!(errors.is_empty(), "{name}: {errors:#?}");
        }
    }

    #[test]
    fn one_seed_gives_identical_counts() {
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            assert_eq!(fingerprint(&w, 5), fingerprint(&w, 5), "{name}");
        }
    }

    #[test]
    fn another_seed_changes_the_data() {
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            let (a, _) = fingerprint(&w, 5);
            let (b, _) = fingerprint(&w, 6);
            assert_ne!(a.data, b.data, "{name}");
            assert_ne!(a.checksum, b.checksum, "{name}");
        }
        let w = Workload::named("cube_append").unwrap();
        assert_ne!(w.append_batch(5, 0), w.append_batch(6, 0));
        assert_ne!(w.append_batch(5, 0), w.append_batch(5, 1));
    }

    #[test]
    fn passes_are_seeded_permutations() {
        let a = pass_order(38, 1, 0);
        assert_eq!(a, pass_order(38, 1, 0));
        assert_ne!(a, pass_order(38, 2, 0));
        assert_ne!(a, pass_order(38, 1, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..38).collect::<Vec<_>>());
    }

    /// Only where each shape runs once a pass are the clusters equal, so
    /// that the slot alone shows the percentile clears their edges.
    #[test]
    fn tail_percentiles_fall_mid_slot_where_clusters_are_equal() {
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            if w.repeats > 1 {
                continue;
            }
            let slot = w.tail_percentile * w.pass_queries() as f64;
            assert!((slot.fract() - 0.5).abs() < 0.1, "{name}: {slot}");
        }
    }

    #[test]
    fn tail_window_spans_half_a_pass_each_side() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten passes: the rank of p90 is 90, five samples either side.
        assert_eq!(tail_window(&v, 0.9, 10), [85.0, 90.0, 95.0]);
        assert_eq!(tail_window(&v, 0.99, 10), [94.0, 99.0, 100.0]);
    }

    #[test]
    fn runs_report_every_metric_in_order() {
        use crate::metrics::{END_TO_END, PER_LAYER};
        for name in NAMES {
            let w = Workload::named(name).unwrap();
            for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let out = run(&w, 3, TINY, 0.01, traced).unwrap();
                assert_eq!(out.failed, 0, "{name}: {:?}", out.info);
                let got: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
                let want: Vec<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(got, want, "{name}");
                assert!(out.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.86), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }
}
