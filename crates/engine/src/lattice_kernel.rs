//! One-scan dimension-lattice aggregation (DESIGN.md §15).
//!
//! The per-level evaluator reads the fact table once per grouping level;
//! this operator reads it **once, period**: every requested lattice level
//! is a level spec of the grouped-aggregation driver, so one scan codes
//! the *finest* composite code per block and scatters every measure into
//! the accumulators of every level at the same time:
//!
//! * Within the dense budget, each coarser level is a pure radix
//!   **projection** of the finest code: a precomputed `u32` jump table
//!   ([`DenseKeySpace::projection_table`](crate::DenseKeySpace::projection_table))
//!   maps fine code → coarse code in one indexed load.
//! * Past `PA_DENSE_BUDGET`, codes shift-pack into a `u64`
//!   ([`WideKeySpace`](crate::WideKeySpace)) and levels project by
//!   mask-and-shift arithmetic ([`WideProjector`](crate::WideProjector)) —
//!   onto a direct-addressed dense code when the level's own space fits the
//!   budget, onto a one-integer hash otherwise.
//! * The RLE fast path is preserved: a run of equal fine codes projects
//!   once per run *per level* and accumulates register-resident.
//! * Levels whose keys do not code (a float dimension) group row by row
//!   while the others keep a root of their own, and lanes that do not fuse
//!   (min/max, holistic, expressions) take `Acc` lanes — still one scan,
//!   still one [`ShardPartial`] per level.
//!
//! The scan is morsel-parallel with the same worker discipline as
//! [`multi_hash_aggregate`](crate::ops::aggregate::multi_hash_aggregate):
//! contiguous chunks, per-worker partial state merged by code in worker
//! order, panics contained at the thread boundary. Each level finishes as
//! a [`ShardPartial`], the mergeable-partial form the lattice cache
//! serializes (DESIGN.md §14, §15).

use crate::error::{EngineError, Result};
use crate::grouping::{group_partials, Pass};
use crate::guard::ResourceGuard;
use crate::ops::aggregate::{check_aggregate, AggSpec};
use crate::ops::partial::ShardPartial;
use crate::stats::ExecStats;
use pa_storage::Table;

/// Aggregate `aggs` at **every** lattice level of `levels` in one fused
/// scan over `input`.
///
/// `group_cols` are the finest key columns; each level is a non-empty,
/// strictly increasing list of positions into `group_cols` (the dimensions
/// that level keeps). Returns one [`ShardPartial`] per level, in `levels`
/// order, every level carrying every lane — callers
/// [`finalize`](ShardPartial::finalize) them into key-sorted tables,
/// [`serialize`](ShardPartial::serialize) them into a lattice cache, or
/// re-aggregate coarser levels from them.
///
/// The scan runs under `guard`'s [`ParallelConfig`](crate::ParallelConfig)
/// for every input: float key dimensions, non-fusable lanes and disabled
/// vectors run the driver's per-row path. Malformed inputs (out-of-range
/// columns, empty aggregate lists, non-subset levels) are errors.
pub fn lattice_aggregate(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    levels: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Vec<ShardPartial>> {
    check_aggregate(input, group_cols, aggs)?;
    for dims in levels {
        let ordered = dims.windows(2).all(|w| w[0] < w[1]);
        if dims.is_empty() || !ordered || dims.iter().any(|&d| d >= group_cols.len()) {
            return Err(EngineError::InvalidOperator(format!(
                "lattice level {dims:?} is not a non-empty ordered subset of \
                 the {} key dimensions",
                group_cols.len()
            )));
        }
    }
    let specs: Vec<(Vec<usize>, Vec<AggSpec>)> = levels
        .iter()
        .map(|dims| (dims.iter().map(|&d| group_cols[d]).collect(), aggs.to_vec()))
        .collect();
    group_partials(input, &specs, Pass::Lattice, guard, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::keymap::RowKeyMap;
    use crate::ops::acc::Acc;
    use crate::ops::aggregate::AggFunc;
    use crate::parallel::ParallelConfig;
    use pa_storage::{DataType, Schema, Value};

    /// The unlimited guard the direct operator calls below run under.
    const G: ResourceGuard = ResourceGuard::unlimited();

    /// Four enumerable dimensions plus a float measure, with NULLs in the
    /// keys and the measure. Integer-valued floats keep worker-subtotal
    /// merges bit-exact, matching the repo's byte-identity discipline.
    fn fact(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Str),
            ("day", DataType::Int),
            ("region", DataType::Str),
            ("month", DataType::Int),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::with_capacity(schema, n);
        for i in 0..n {
            let row = [
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", (i * 7919) % 5))
                },
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 7) as i64)
                },
                Value::str(format!("r{}", (i * 31) % 3)),
                Value::Int((i % 12) as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 100) as f64)
                },
            ];
            t.push_row(&row).unwrap();
        }
        t
    }

    fn specs(t: &Table) -> Vec<AggSpec> {
        let a = Expr::col(t.schema(), "amt").unwrap();
        vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "s"),
            AggSpec::new(AggFunc::Count, a, "c"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        ]
    }

    fn cfg(threads: usize, dense_budget: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            morsel_rows: 256,
            min_parallel_rows: 0,
            dense_budget,
            ..ParallelConfig::serial()
        }
    }

    /// All BY-prefixes of (store, day, region, month), plus one
    /// incomparable level.
    fn prefix_levels() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            vec![0, 1],
            vec![0],
            vec![1, 3],
        ]
    }

    fn assert_matches_reference(threads: usize, dense_budget: usize) {
        let t = fact(10_000);
        let aggs = specs(&t);
        let levels = prefix_levels();
        let config = cfg(threads, dense_budget);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &levels,
            &G.with_config(config),
            &mut st,
        )
        .unwrap();
        assert_eq!(st.rows_scanned, 10_000, "one scan for all levels");
        assert_eq!(st.vectorized_kernel_rows, 10_000);
        // Reference: a scalar per-level aggregation built here, outside the
        // driver — `RowKeyMap` groups, row-order `Acc` updates — sorted by
        // key like the finalized partials.
        for (partial, dims) in partials.into_iter().zip(&levels) {
            let fused = partial.finalize(&mut st).unwrap();
            let cols: Vec<usize> = dims.iter().map(|&d| [0, 1, 2, 3][d]).collect();
            let mut ref_st = ExecStats::default();
            let mut map = RowKeyMap::new();
            let mut accs: Vec<Vec<Acc>> = Vec::new();
            for row in 0..t.num_rows() {
                let g = map.get_or_insert_row(&t, &cols, row, &mut ref_st);
                if g == accs.len() {
                    accs.push(aggs.iter().map(|s| Acc::new(s.func)).collect());
                }
                for (acc, s) in accs[g].iter_mut().zip(&aggs) {
                    acc.update(&s.input.eval(&t, row, &mut ref_st).unwrap())
                        .unwrap();
                }
            }
            let mut reference = Table::empty(fused.schema().clone());
            for (key, accs) in map.keys().iter().zip(&accs) {
                let row: Vec<Value> = key
                    .iter()
                    .cloned()
                    .chain(accs.iter().map(Acc::finish))
                    .collect();
                reference.push_row(&row).unwrap();
            }
            let sort_cols: Vec<usize> = (0..dims.len()).collect();
            let reference = reference.sorted_by(&sort_cols);
            let a: Vec<Vec<Value>> = fused.rows().collect();
            let b: Vec<Vec<Value>> = reference.rows().collect();
            assert_eq!(a.len(), b.len(), "level {dims:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "level {dims:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_dense() {
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1 << 20);
        }
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_wide() {
        // A one-code budget refuses the dense space; the wide path takes
        // over and must produce the same bytes.
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1);
        }
    }

    #[test]
    fn serialized_partials_round_trip_per_level() {
        let t = fact(2_000);
        let aggs = specs(&t);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &[vec![0, 1], vec![2]],
            &G.with_config(cfg(1, 1 << 20)),
            &mut st,
        )
        .unwrap();
        for p in partials {
            let bytes = p.serialize();
            let back = ShardPartial::deserialize(&bytes).unwrap();
            assert_eq!(back.serialize(), bytes, "canonical bytes");
            let a: Vec<Vec<Value>> = p.finalize(&mut st).unwrap().rows().collect();
            let b: Vec<Vec<Value>> = back.finalize(&mut st).unwrap().rows().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn malformed_levels_are_errors() {
        let t = fact(100);
        let aggs = specs(&t);
        let guard = G.with_config(cfg(1, 1 << 20));
        let mut st = ExecStats::default();
        // A level that is not a subset is an error.
        assert!(lattice_aggregate(&t, &[0, 1], &aggs, &[vec![2]], &guard, &mut st).is_err());
        // Unordered level is an error too.
        assert!(lattice_aggregate(&t, &[0, 1], &aggs, &[vec![1, 0]], &guard, &mut st).is_err());
    }

    #[test]
    fn guard_budget_and_cancellation_stop_the_fused_scan() {
        let t = fact(20_000);
        let aggs = specs(&t);
        let guard = ResourceGuard::with_row_budget(1_000).with_config(cfg(4, 1 << 20));
        let mut st = ExecStats::default();
        let err = lattice_aggregate(&t, &[0, 1, 2, 3], &aggs, &prefix_levels(), &guard, &mut st)
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");

        let guard = ResourceGuard::with_row_budget(u64::MAX).with_config(cfg(4, 1 << 20));
        guard.cancel();
        let err = lattice_aggregate(&t, &[0, 1, 2, 3], &aggs, &prefix_levels(), &guard, &mut st)
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(guard.rows_charged(), 0, "no morsel was admitted");
    }

    #[test]
    fn empty_input_yields_empty_levels() {
        let t = fact(0);
        let aggs = specs(&t);
        let mut st = ExecStats::default();
        let partials = lattice_aggregate(
            &t,
            &[0, 1],
            &aggs,
            &[vec![0], vec![0, 1]],
            &G.with_config(cfg(1, 1 << 20)),
            &mut st,
        )
        .unwrap();
        for p in &partials {
            assert_eq!(p.num_groups(), 0);
        }
    }
}
