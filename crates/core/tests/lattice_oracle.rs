//! Differential oracle for the one-scan lattice evaluator (DESIGN.md §15).
//!
//! The fused path — one scan feeding every lattice level through radix
//! projection, partials cached and re-aggregated for coarser queries —
//! must be *indistinguishable* from the naive per-level evaluator. Every
//! test here compares the two end to end, sweeping the knobs that change
//! which kernel actually runs — pinned on the guard passed to the direct
//! evaluator calls, and through the environment for the engine-level CUBE
//! test:
//!
//! * `PA_THREADS` 1/2/4 — serial vs morsel-parallel scan with the
//!   deterministic worker-order merge;
//! * `PA_DENSE_BUDGET` high/1 — dense radix jump tables vs shift-packed
//!   wide codes with mask-and-shift projection;
//! * `PA_VECTOR=0` — the fused kernel refuses and the per-level fallback
//!   runs inside the lattice evaluator itself;
//! * cache-cold vs cache-warm — the second run serves levels from
//!   serialized [`pa_engine::ShardPartial`]s instead of the scan.
//!
//! Measures are integer-valued floats, so sums are exact under any
//! regrouping and the comparison is byte identity (after the canonical
//! key sort both evaluators end with), not an epsilon.
//!
//! A proptest closes the loop at the kernel layer: on random tables,
//! aggregating a level by *projecting* the finest composite code must
//! equal *coding that level directly* (independent per-level hash
//! aggregation), on both sides of the dense budget.
//!
//! The golden snapshot in `tests/golden/lattice_explain.txt` pins the
//! EXPLAIN rendering of a CUBE plan — per-set headers and per-level
//! `-- lattice:` source lines. Regenerate with `UPDATE_GOLDEN=1`.

use pa_core::{
    eval_vpct, eval_vpct_batch, eval_vpct_lattice, PercentageEngine, VpctQuery, VpctStrategy,
    VpctTerm,
};
use pa_engine::{
    lattice_aggregate, Acc, AggFunc, AggSpec, ExecStats, Expr, ParallelConfig, ResourceGuard,
    RowKeyMap,
};
use pa_storage::{Catalog, DataType, Field, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The engine-level tests here pin env knobs, which are process-global
/// (the executor reads them when it mints each query's guard); those tests
/// serialize on this lock for their whole set..restore window.
static ENV: Mutex<()> = Mutex::new(());

fn env_window() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|e| e.into_inner())
}

/// Set env knobs for one evaluation, restoring (removing) them on drop so
/// a panicking assertion cannot leak configuration into the next test.
struct EnvPins(Vec<&'static str>);

impl EnvPins {
    fn set(pairs: &[(&'static str, String)]) -> EnvPins {
        for (k, v) in pairs {
            std::env::set_var(k, v);
        }
        EnvPins(pairs.iter().map(|(k, _)| *k).collect())
    }
}

impl Drop for EnvPins {
    fn drop(&mut self) {
        for k in &self.0 {
            std::env::remove_var(k);
        }
    }
}

/// The unlimited guard running under `config`: the direct evaluator calls
/// pin the knobs they sweep on the guard they pass in.
fn pinned(config: ParallelConfig) -> ResourceGuard {
    ResourceGuard::unlimited().with_config(config)
}

/// ~12k-row fact table: three enumerable dimensions with NULLs and an
/// integer-valued float measure (NULLs too). Big enough that parallel
/// scans genuinely split, small enough to aggregate naively as an oracle.
fn fact_catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("dweek", DataType::Int),
        ("salesAmt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let n = 12_000usize;
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        t.push_row(&[
            if i % 23 == 0 {
                Value::Null
            } else {
                Value::str(format!("st{}", (i * 7919) % 5))
            },
            Value::str(format!("ci{}", (i * 31) % 13)),
            if i % 17 == 0 {
                Value::Null
            } else {
                Value::Int((i % 7) as i64)
            },
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Float((i % 97) as f64)
            },
        ])
        .unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("sales", t).unwrap();
    catalog
}

/// A three-term query spanning the lattice: totals at (state), (state,
/// city), and the grand total, all over GROUP BY (state, city, dweek).
fn lattice_query() -> VpctQuery {
    VpctQuery {
        table: "sales".into(),
        group_by: vec!["state".into(), "city".into(), "dweek".into()],
        terms: vec![
            VpctTerm::new("salesAmt", &["city", "dweek"]),
            VpctTerm::new("salesAmt", &["dweek"]),
            VpctTerm::new("salesAmt", &["state", "city", "dweek"]),
        ],
        extra: Vec::new(),
    }
}

fn sorted_rows(t: &Table, key_cols: usize) -> Vec<Vec<Value>> {
    let cols: Vec<usize> = (0..key_cols).collect();
    t.sorted_by(&cols).rows().collect()
}

#[test]
fn fused_lattice_matches_per_level_reference() {
    let q = lattice_query();
    // The reference runs serial and scalar on its own catalog once: with
    // vectors off and a one-code dense budget every level groups on the
    // `RowKeyMap` hash path, not on the codes the lattice scan projects.
    let reference = {
        let pinned = pinned(ParallelConfig {
            vector: false,
            dense_budget: 1,
            ..ParallelConfig::serial()
        });
        let catalog = fact_catalog();
        sorted_rows(
            &eval_vpct(&catalog, &q, &VpctStrategy::best(), "ref_", &pinned)
                .unwrap()
                .snapshot(),
            3,
        )
    };
    for threads in [1usize, 2, 4] {
        // High budget exercises the dense radix jump tables; budget 1
        // refuses the dense space and forces wide mask-and-shift codes.
        for dense_budget in [1usize << 20, 1] {
            let pinned = pinned(ParallelConfig {
                threads,
                dense_budget,
                morsel_rows: 1024,
                min_parallel_rows: 1,
                ..ParallelConfig::serial()
            });
            let catalog = fact_catalog();
            let cold = eval_vpct_lattice(&catalog, &q, "c_", &pinned).unwrap();
            assert!(
                cold.stats.levels_from_scan > 0,
                "threads={threads} budget={dense_budget}: cold run must scan"
            );
            // Same catalog, second run: the scanned partials are cached.
            let warm = eval_vpct_lattice(&catalog, &q, "w_", &pinned).unwrap();
            assert_eq!(
                warm.stats.levels_from_scan, 0,
                "threads={threads} budget={dense_budget}: warm run must not scan"
            );
            assert!(warm.stats.levels_from_cache > 0);
            let cold = sorted_rows(&cold.snapshot(), 3);
            let warm = sorted_rows(&warm.snapshot(), 3);
            assert_eq!(
                cold, reference,
                "cold lattice diverged (threads={threads} budget={dense_budget})"
            );
            assert_eq!(
                warm, reference,
                "warm (cached) lattice diverged (threads={threads} budget={dense_budget})"
            );
        }
    }
}

#[test]
fn vector_ablation_still_matches() {
    let q = lattice_query();
    let with_vector = {
        let pinned = pinned(ParallelConfig::serial());
        let catalog = fact_catalog();
        sorted_rows(
            &eval_vpct_lattice(&catalog, &q, "v_", &pinned)
                .unwrap()
                .snapshot(),
            3,
        )
    };
    // PA_VECTOR=0: the lattice scan groups every level row by row — same
    // bytes.
    let pinned = pinned(ParallelConfig {
        vector: false,
        ..ParallelConfig::serial()
    });
    let catalog = fact_catalog();
    let scalar = eval_vpct_lattice(&catalog, &q, "s_", &pinned).unwrap();
    assert_eq!(
        sorted_rows(&scalar.snapshot(), 3),
        with_vector,
        "PA_VECTOR=0 ablation diverged"
    );
}

#[test]
fn batch_prefixes_match_solo_queries() {
    let pinned = pinned(ParallelConfig::with_threads(2));
    let dims = ["state", "city", "dweek"];
    // Query j: percentages of each finest group against the totals at
    // prefix dims[..j] — the percentage_batch shape.
    let queries: Vec<VpctQuery> = (0..dims.len())
        .map(|j| VpctQuery {
            table: "sales".into(),
            group_by: dims.iter().map(|d| d.to_string()).collect(),
            terms: vec![VpctTerm::new("salesAmt", &dims[j..])],
            extra: Vec::new(),
        })
        .collect();
    let catalog = fact_catalog();
    let batch = eval_vpct_batch(&catalog, &queries, "b_", &pinned).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (j, (q, r)) in queries.iter().zip(&batch).enumerate() {
        let solo_catalog = fact_catalog();
        let solo = eval_vpct(&solo_catalog, q, &VpctStrategy::best(), "solo_", &pinned).unwrap();
        assert_eq!(
            sorted_rows(&r.snapshot(), 3),
            sorted_rows(&solo.snapshot(), 3),
            "batch prefix {j} diverged from the standalone query"
        );
    }
}

const CUBE_SQL: &str = "SELECT state, city, Vpct(salesAmt BY city) AS p \
                        FROM sales GROUP BY CUBE (state, city);";

#[test]
fn cube_sql_matches_scalar_serial_rerun() {
    let _w = env_window();
    // Fused, parallel, and (second run) cache-served...
    let fused = {
        let _pins = EnvPins::set(&[
            ("PA_THREADS", "4".into()),
            ("PA_MORSEL_ROWS", "1024".into()),
            ("PA_MIN_PARALLEL_ROWS", "1".into()),
        ]);
        let catalog = fact_catalog();
        let engine = PercentageEngine::with_unique_temps(&catalog).with_temp_cleanup();
        let cold = engine.execute_sql(CUBE_SQL).unwrap();
        let cold_rows: Vec<Vec<Value>> = cold.table().read().sorted_by(&[0, 1]).rows().collect();
        let warm = engine.execute_sql(CUBE_SQL).unwrap();
        assert_eq!(
            warm.stats().levels_from_scan,
            0,
            "warm CUBE must serve every level from cache"
        );
        let warm_rows: Vec<Vec<Value>> = warm.table().read().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(cold_rows, warm_rows, "CUBE cache-warm rerun diverged");
        cold_rows
    };
    // ...must match a serial scalar evaluation from scratch.
    let _pins = EnvPins::set(&[("PA_THREADS", "1".into()), ("PA_VECTOR", "0".into())]);
    let catalog = fact_catalog();
    let engine = PercentageEngine::with_unique_temps(&catalog).with_temp_cleanup();
    let scalar = engine.execute_sql(CUBE_SQL).unwrap();
    let scalar_rows: Vec<Vec<Value>> = scalar.table().read().sorted_by(&[0, 1]).rows().collect();
    assert_eq!(fused, scalar_rows, "CUBE fused/parallel vs scalar/serial");
}

/// Random small-domain rows for the kernel-level projection oracle.
#[derive(Debug, Clone)]
struct OracleRow {
    a: Option<i64>,
    b: Option<usize>,
    c: i64,
    m: Option<i64>,
}

fn oracle_rows(max: usize) -> impl Strategy<Value = Vec<OracleRow>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.9, 0..5i64),
            prop::option::weighted(0.9, 0..4usize),
            0..3i64,
            prop::option::weighted(0.85, -40..=40i64),
        )
            .prop_map(|(a, b, c, m)| OracleRow { a, b, c, m }),
        1..max,
    )
}

const CITIES: [&str; 4] = ["lyon", "turin", "graz", "brno"];

fn oracle_table(rows: &[OracleRow]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Str),
        ("c", DataType::Int),
        ("m", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, rows.len());
    for r in rows {
        t.push_row(&[
            Value::from(r.a),
            r.b.map_or(Value::Null, |i| Value::str(CITIES[i])),
            Value::Int(r.c),
            Value::from(r.m.map(|x| x as f64)),
        ])
        .unwrap();
    }
    t
}

/// Scalar grouped aggregation built here, outside the engine's grouping
/// code — `RowKeyMap` groups, row-order `Acc` updates — as rows sorted on
/// the key columns.
fn scalar_sorted_rows(t: &Table, cols: &[usize], aggs: &[AggSpec]) -> Vec<Vec<Value>> {
    let mut st = ExecStats::default();
    let mut map = RowKeyMap::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for row in 0..t.num_rows() {
        let g = map.get_or_insert_row(t, cols, row, &mut st);
        if g == accs.len() {
            accs.push(aggs.iter().map(|s| Acc::new(s.func)).collect());
        }
        for (acc, s) in accs[g].iter_mut().zip(aggs) {
            acc.update(&s.input.eval(t, row, &mut st).unwrap()).unwrap();
        }
    }
    let keys = cols.iter().map(|&c| t.schema().field_at(c).clone());
    let lanes = aggs
        .iter()
        .map(|s| Field::new(s.name.clone(), s.func.output_type(&s.input, t.schema())));
    let schema = Schema::new(keys.chain(lanes).collect()).unwrap();
    let mut out = Table::empty(schema.into_shared());
    for (key, accs) in map.keys().iter().zip(&accs) {
        let row: Vec<Value> = key
            .iter()
            .cloned()
            .chain(accs.iter().map(Acc::finish))
            .collect();
        out.push_row(&row).unwrap();
    }
    sorted_rows(&out, cols.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Radix projection == direct coding: aggregating each lattice level
    /// by projecting the finest composite code (dense jump table or wide
    /// mask-and-shift) must equal hashing that level's columns directly.
    #[test]
    fn radix_projection_matches_direct_coding(rows in oracle_rows(400)) {
        let t = oracle_table(&rows);
        let m = Expr::col(t.schema(), "m").unwrap();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, m.clone(), "s"),
            AggSpec::new(AggFunc::Count, m, "k"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        ];
        let group_cols = [0usize, 1, 2];
        // Every non-empty subset of the three dimensions.
        let levels: Vec<Vec<usize>> = (1usize..8)
            .map(|mask| (0..3).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        let reference: Vec<Vec<Vec<Value>>> = levels
            .iter()
            .map(|dims| {
                let cols: Vec<usize> = dims.iter().map(|&d| group_cols[d]).collect();
                scalar_sorted_rows(&t, &cols, &aggs)
            })
            .collect();
        for dense_budget in [1usize << 20, 1] {
            let config = ParallelConfig {
                threads: 1,
                morsel_rows: 64,
                min_parallel_rows: 0,
                dense_budget,
                ..ParallelConfig::serial()
            };
            let mut st = ExecStats::default();
            let partials = lattice_aggregate(&t, &group_cols, &aggs, &levels, &ResourceGuard::unlimited().with_config(config), &mut st).unwrap();
            for ((partial, reference), dims) in
                partials.into_iter().zip(&reference).zip(&levels)
            {
                let fused = partial.finalize(&mut st).unwrap();
                let a: Vec<Vec<Value>> = fused.rows().collect();
                prop_assert_eq!(&a, reference, "level {:?} budget {}", dims, dense_budget);
            }
        }
    }
}

/// Small fixed catalog for the deterministic EXPLAIN snapshot.
fn explain_catalog() -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("salesAmt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for (s, c, a) in [
        ("CA", "San Francisco", 83.0),
        ("CA", "Los Angeles", 23.0),
        ("TX", "Houston", 64.0),
        ("TX", "Dallas", 85.0),
    ] {
        t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
            .unwrap();
    }
    catalog.create_table("sales", t).unwrap();
    catalog
}

// Reads the UPDATE_GOLDEN regeneration switch: a test harness flag, not
// engine configuration.
#[allow(clippy::disallowed_methods)]
#[test]
fn golden_cube_explain_snapshot() {
    let _w = env_window();
    let catalog = explain_catalog();
    let engine = PercentageEngine::new(&catalog);
    let lines = engine.explain_sql(CUBE_SQL).unwrap();
    let got = lines.join("\n") + "\n";
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lattice_explain.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "EXPLAIN CUBE plan drifted from tests/golden/lattice_explain.txt \
         (regenerate with UPDATE_GOLDEN=1 if intentional)"
    );
}
