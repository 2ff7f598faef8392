//! Determinism of morsel-parallel aggregation: for random tables (NULLs,
//! dictionary-encoded strings, duplicate keys) the parallel scan must
//! produce output *identical* to the serial scan — same groups, same group
//! order, same cell values — across worker counts {1, 2, 4, 7}.
//!
//! Inputs use integer-valued floats: those sums are exact under any
//! regrouping of additions, so "identical" here means byte-identical, not
//! within-epsilon (DESIGN.md §7 states the float caveat precisely).

use pa_engine::{
    hash_aggregate, multi_hash_aggregate, AggFunc, AggSpec, EngineError, ExecStats, Expr,
    ParallelConfig, ResourceGuard,
};
use pa_storage::{DataType, Schema, Table, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    g: Option<i64>,
    s: Option<usize>,
    a: Option<i64>,
}

/// Rows with NULLs in every column, few distinct keys (duplicates
/// guaranteed), and a small string domain (dictionary codes collide across
/// worker chunks).
fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.9, 0..6i64),
            prop::option::weighted(0.9, 0..4usize),
            prop::option::weighted(0.85, -50..=50i64),
        )
            .prop_map(|(g, s, a)| Row { g, s, a }),
        0..max,
    )
}

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let names = ["north", "south", "east", "west"];
    let mut t = Table::with_capacity(schema, rows.len());
    for r in rows {
        t.push_row(&[
            Value::from(r.g),
            r.s.map_or(Value::Null, |i| Value::str(names[i])),
            Value::from(r.a.map(|x| x as f64)),
        ])
        .unwrap();
    }
    t
}

fn all_func_specs(t: &Table) -> Vec<AggSpec> {
    let a = Expr::col(t.schema(), "a").unwrap();
    let s = Expr::col(t.schema(), "s").unwrap();
    vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Count, a.clone(), "cnt"),
        AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
        AggSpec::new(AggFunc::Min, a.clone(), "mn"),
        AggSpec::new(AggFunc::Max, a, "mx"),
        AggSpec::new(AggFunc::CountDistinct, s, "ds"),
    ]
}

/// Tiny morsels so even small random tables split across several workers.
fn config(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows: 16,
        min_parallel_rows: 0,
        ..ParallelConfig::serial()
    }
}

fn snapshot(t: &Table) -> Vec<Vec<Value>> {
    // Unsorted: group order itself must be identical, not just group content.
    t.rows().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_hash_aggregate_identical_to_serial(rows in rows_strategy(300)) {
        let t = table_of(&rows);
        let specs = all_func_specs(&t);
        let serial = hash_aggregate(&t, &[0, 1], &specs, &ResourceGuard::unlimited().with_config(config(1)), &mut ExecStats::default())
        .unwrap();
        for threads in [2usize, 4, 7] {
            let parallel = hash_aggregate(&t, &[0, 1], &specs, &ResourceGuard::unlimited().with_config(config(threads)), &mut ExecStats::default())
            .unwrap();
            prop_assert_eq!(
                snapshot(&serial),
                snapshot(&parallel),
                "threads={}",
                threads
            );
        }
    }

    #[test]
    fn parallel_multi_level_identical_to_serial(rows in rows_strategy(300)) {
        let t = table_of(&rows);
        let specs = all_func_specs(&t);
        let levels = vec![
            (vec![0usize, 1], specs.clone()),
            (vec![1], specs.clone()),
            (vec![], specs),
        ];
        let serial = multi_hash_aggregate(&t, &levels, &ResourceGuard::unlimited().with_config(config(1)), &mut ExecStats::default())
        .unwrap();
        for threads in [2usize, 4, 7] {
            let parallel = multi_hash_aggregate(&t, &levels, &ResourceGuard::unlimited().with_config(config(threads)), &mut ExecStats::default())
            .unwrap();
            for (lvl, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                prop_assert_eq!(
                    snapshot(s),
                    snapshot(p),
                    "threads={} level={}",
                    threads,
                    lvl
                );
            }
        }
    }
}

/// The satellite guarantee: cancelling the shared guard stops a parallel
/// scan mid-flight — every worker observes the cancel at its next morsel
/// boundary and the whole aggregation returns `Cancelled`.
#[test]
fn cancelling_mid_scan_stops_all_parallel_workers() {
    let n = 1 << 18;
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        t.push_row(&[Value::Int((i % 101) as i64), Value::Float((i % 13) as f64)])
            .unwrap();
    }
    let specs = all_func_specs_small(&t);
    let guard = ResourceGuard::with_row_budget(u64::MAX);
    let config = ParallelConfig {
        threads: 4,
        morsel_rows: 512,
        min_parallel_rows: 0,
        ..ParallelConfig::serial()
    };

    let result = std::thread::scope(|s| {
        // Poller: cancel as soon as any worker has charged its first morsel,
        // i.e. while the scan is genuinely mid-flight.
        let poller_guard = &guard;
        s.spawn(move || {
            while poller_guard.rows_charged() == 0 {
                std::thread::yield_now();
            }
            poller_guard.cancel();
        });
        hash_aggregate(
            &t,
            &[0],
            &specs,
            &guard.clone().with_config(config),
            &mut ExecStats::default(),
        )
    });

    let err = result.expect_err("cancelled scan must not produce a result");
    assert!(matches!(err, EngineError::Cancelled), "{err}");
    assert!(
        guard.rows_charged() < n as u64,
        "scan stopped before charging the full input ({} of {n})",
        guard.rows_charged()
    );
}

fn all_func_specs_small(t: &Table) -> Vec<AggSpec> {
    let a = Expr::col(t.schema(), "a").unwrap();
    vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
        AggSpec::new(AggFunc::Min, a.clone(), "mn"),
        AggSpec::new(AggFunc::CountDistinct, a, "ds"),
    ]
}
