//! Fused one-scan dimension-lattice aggregation (DESIGN.md §15).
//!
//! The per-level evaluator reads the fact table once per grouping level;
//! this kernel reads it **once, period**. One block-at-a-time scan computes
//! the *finest* composite code per row — vectorized through the same
//! [`BlockCoder`]/[`WideCoder`] pipelines as the single-level fused path —
//! and scatters every measure into the accumulators of *every* requested
//! lattice level at the same time:
//!
//! * Within the dense budget, each coarser level is a pure radix
//!   **projection** of the finest code: a precomputed `u32` jump table
//!   ([`DenseKeySpace::projection_table`]) maps fine code → coarse code in
//!   one indexed load, so the per-row cost of an extra level is one load,
//!   one dense group lookup, and one accumulate per lane.
//! * Past `PA_DENSE_BUDGET`, codes shift-pack into a `u64`
//!   ([`WideKeySpace`]) and levels project by mask-and-shift arithmetic
//!   ([`WideProjector`]), with a one-integer hash per level instead of a
//!   direct-addressed array.
//! * The RLE fast path is preserved: a run of equal fine codes projects
//!   once per run *per level* and accumulates register-resident.
//!
//! The scan is morsel-parallel with the same worker discipline as
//! [`multi_hash_aggregate`](crate::ops::aggregate::multi_hash_aggregate):
//! contiguous chunks, per-worker partial state, panics contained at the
//! thread boundary, and a deterministic worker-order merge — here of one
//! [`ShardPartial`] per level, so the per-level results enter the same
//! mergeable-partial protocol the lattice cache serializes (DESIGN.md §14,
//! §15).
//!
//! Eligibility mirrors the single-level fused path: every lane must be a
//! typed numeric `sum`/`avg`/`count`/`count(*)` kernel and every key
//! dimension must read through a packed or typed vector. Ineligible plans
//! return `None` and callers fall back to per-level aggregation.

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::guard::ResourceGuard;
use crate::keymap::{DenseGroupMap, DenseKeySpace, WideGroupMap, WideKeySpace, WideProjector};
use crate::ops::acc::Acc;
use crate::ops::aggregate::{check_aggregate, AggFunc, AggSpec};
use crate::ops::partial::ShardPartial;
use crate::parallel::fan_out;
use crate::stats::ExecStats;
use crate::vector::RLE_RUN_DIVISOR;
use crate::vector::{raw_acc, BlockCoder, LaneSrc, RawLane, WideCoder, BLOCK_ROWS};
use pa_obs::SpanHandle;
use pa_storage::{DataType, Field, Table, Value};
use std::ops::Range;

/// How the finest composite code projects onto one requested level.
enum LevelProj {
    /// Radix jump table over the dense fine-code space. `identity` marks
    /// the level that keeps every dimension (the union level of a
    /// percentage batch): its jump table maps every code to itself, so
    /// the scan skips the per-row indirected load — on a fine-code space
    /// that outgrows L1, that load is the scan's single largest cost.
    Dense {
        space: DenseKeySpace,
        jump: Vec<u32>,
        identity: bool,
    },
    /// Mask-and-shift arithmetic over shift-packed wide codes.
    Wide {
        space: WideKeySpace,
        proj: WideProjector,
    },
}

/// Dense code spaces up to this many codes accumulate **direct-indexed**:
/// lanes are sized to the full code space and indexed by the level code
/// itself, with a small occupancy bitmap replacing the code→gid array.
/// The bitmap (8 KiB at the budget) stays L1-resident where the gid array
/// (256 KiB) would thrash L2 — one random cache line per row instead of
/// two. Past the budget the lane arrays would outgrow the savings, so
/// levels fall back to the gid-mapped form.
const DIRECT_SPACE_BUDGET: usize = 1 << 16;

/// One worker's per-level group map.
enum LevelAcc {
    /// Code→gid array; lanes indexed by dense first-appearance gid.
    Dense(DenseGroupMap),
    /// Occupancy bitmap over the level's code space; lanes indexed by the
    /// level code itself, `order` holding first-appearance codes.
    DenseDirect { seen: Vec<u64>, order: Vec<u32> },
    /// Code→gid hash over the level's shift-packed sub-space.
    Wide(WideGroupMap),
}

/// One worker's accumulation state for one level.
struct LevelState {
    acc: LevelAcc,
    lanes: Vec<RawLane>,
}

/// The fine-code reader behind one lattice scan.
enum RootCoder<'a> {
    Dense(BlockCoder<'a>),
    Wide(WideCoder<'a>),
}

/// Record `code` in a direct-indexed level's occupancy state: set its
/// bitmap bit and append it to the first-appearance order on the first
/// sighting. The bitmap read is the only per-row group bookkeeping the
/// direct form pays.
#[inline]
fn mark_seen(seen: &mut [u64], order: &mut Vec<u32>, code: u32) {
    let word = &mut seen[(code >> 6) as usize];
    let bit = 1u64 << (code & 63);
    if *word & bit == 0 {
        *word |= bit;
        order.push(code);
    }
}

/// Resolve every aggregate lane to a typed source, `None` when some lane
/// cannot fuse (min/max, distinct, expression inputs) — the same predicate
/// the single-level fused path applies per level.
fn lane_srcs<'a>(input: &'a Table, aggs: &[AggSpec]) -> Option<Vec<LaneSrc<'a>>> {
    aggs.iter()
        .map(|spec| match spec.func {
            AggFunc::CountStar => Some(LaneSrc::CountStar),
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count => match spec.input {
                Expr::Col(c) if c < input.num_columns() => LaneSrc::for_column(input.column(c)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Scan `chunk` of the dense fine-code stream, scattering every level.
#[allow(clippy::too_many_arguments)]
fn scan_dense(
    coder: &BlockCoder<'_>,
    projs: &[LevelProj],
    states: &mut [LevelState],
    srcs: &[LaneSrc<'_>],
    chunk: Range<usize>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    span: &mut SpanHandle,
) -> Result<()> {
    let mut codes = [0u32; BLOCK_ROWS];
    let mut gids = [0u32; BLOCK_ROWS];
    for morsel in guard.config().morsels(chunk) {
        guard.charge(morsel.len() as u64)?;
        span.add_morsels(1);
        span.add_rows(morsel.len() as u64);
        let mut start = morsel.start;
        while start < morsel.end {
            let len = BLOCK_ROWS.min(morsel.end - start);
            let block = &mut codes[..len];
            coder.fill(start, block);
            stats.vectorized_kernel_rows += len as u64;
            let mut runs = 1usize;
            for k in 1..len {
                runs += usize::from(block[k] != block[k - 1]);
            }
            if runs * RLE_RUN_DIVISOR <= len {
                stats.rle_runs += runs as u64;
                let mut i = 0usize;
                while i < len {
                    let code = block[i];
                    let mut j = i + 1;
                    while j < len && block[j] == code {
                        j += 1;
                    }
                    for (state, proj) in states.iter_mut().zip(projs) {
                        let LevelProj::Dense { jump, identity, .. } = proj else {
                            unreachable!("dense scan pairs with dense projections")
                        };
                        let child = if *identity { code } else { jump[code as usize] };
                        let g = match &mut state.acc {
                            LevelAcc::Dense(map) => {
                                let g = map.get_or_insert_code(child as usize);
                                for lane in &mut state.lanes {
                                    lane.ensure(g + 1);
                                }
                                g
                            }
                            LevelAcc::DenseDirect { seen, order } => {
                                mark_seen(seen, order, child);
                                child as usize
                            }
                            LevelAcc::Wide(_) => {
                                unreachable!("dense scan pairs with dense maps")
                            }
                        };
                        for (lane, src) in state.lanes.iter_mut().zip(srcs) {
                            lane.accumulate_run(src, start + i..start + j, g);
                        }
                    }
                    i = j;
                }
            } else {
                for (state, proj) in states.iter_mut().zip(projs) {
                    let LevelProj::Dense { jump, identity, .. } = proj else {
                        unreachable!("dense scan pairs with dense projections")
                    };
                    match &mut state.acc {
                        LevelAcc::Dense(map) => {
                            if *identity {
                                for (g, &code) in gids[..len].iter_mut().zip(block.iter()) {
                                    *g = map.get_or_insert_code(code as usize) as u32;
                                }
                            } else {
                                for (g, &code) in gids[..len].iter_mut().zip(block.iter()) {
                                    *g =
                                        map.get_or_insert_code(jump[code as usize] as usize) as u32;
                                }
                            }
                            let n_groups = map.len();
                            for lane in &mut state.lanes {
                                lane.ensure(n_groups);
                            }
                        }
                        LevelAcc::DenseDirect { seen, order } => {
                            if *identity {
                                for (g, &code) in gids[..len].iter_mut().zip(block.iter()) {
                                    mark_seen(seen, order, code);
                                    *g = code;
                                }
                            } else {
                                for (g, &code) in gids[..len].iter_mut().zip(block.iter()) {
                                    let child = jump[code as usize];
                                    mark_seen(seen, order, child);
                                    *g = child;
                                }
                            }
                        }
                        LevelAcc::Wide(_) => {
                            unreachable!("dense scan pairs with dense maps")
                        }
                    }
                    for (lane, src) in state.lanes.iter_mut().zip(srcs) {
                        lane.scatter(src, start..start + len, &gids[..len]);
                    }
                }
            }
            start += len;
        }
    }
    Ok(())
}

/// Scan `chunk` of the wide fine-code stream, scattering every level.
#[allow(clippy::too_many_arguments)]
fn scan_wide(
    coder: &WideCoder<'_>,
    projs: &[LevelProj],
    states: &mut [LevelState],
    srcs: &[LaneSrc<'_>],
    chunk: Range<usize>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    span: &mut SpanHandle,
) -> Result<()> {
    let mut codes = [0u64; BLOCK_ROWS];
    let mut gids = [0u32; BLOCK_ROWS];
    for morsel in guard.config().morsels(chunk) {
        guard.charge(morsel.len() as u64)?;
        span.add_morsels(1);
        span.add_rows(morsel.len() as u64);
        let mut start = morsel.start;
        while start < morsel.end {
            let len = BLOCK_ROWS.min(morsel.end - start);
            let block = &mut codes[..len];
            coder.fill(start, block);
            stats.vectorized_kernel_rows += len as u64;
            let mut runs = 1usize;
            for k in 1..len {
                runs += usize::from(block[k] != block[k - 1]);
            }
            if runs * RLE_RUN_DIVISOR <= len {
                stats.rle_runs += runs as u64;
                let mut i = 0usize;
                while i < len {
                    let code = block[i];
                    let mut j = i + 1;
                    while j < len && block[j] == code {
                        j += 1;
                    }
                    for (state, proj) in states.iter_mut().zip(projs) {
                        let LevelProj::Wide { proj, .. } = proj else {
                            unreachable!("wide scan pairs with wide projections")
                        };
                        let LevelAcc::Wide(map) = &mut state.acc else {
                            unreachable!("wide scan pairs with wide maps")
                        };
                        let g = map.get_or_insert_code(proj.project(code), stats);
                        for (lane, src) in state.lanes.iter_mut().zip(srcs) {
                            lane.ensure(g + 1);
                            lane.accumulate_run(src, start + i..start + j, g);
                        }
                    }
                    i = j;
                }
            } else {
                for (state, proj) in states.iter_mut().zip(projs) {
                    let LevelProj::Wide { proj, .. } = proj else {
                        unreachable!("wide scan pairs with wide projections")
                    };
                    let LevelAcc::Wide(map) = &mut state.acc else {
                        unreachable!("wide scan pairs with wide maps")
                    };
                    for (g, &code) in gids[..len].iter_mut().zip(block.iter()) {
                        *g = map.get_or_insert_code(proj.project(code), stats) as u32;
                    }
                    let n_groups = map.len();
                    for (lane, src) in state.lanes.iter_mut().zip(srcs) {
                        lane.ensure(n_groups);
                        lane.scatter(src, start..start + len, &gids[..len]);
                    }
                }
            }
            start += len;
        }
    }
    Ok(())
}

/// Collapse one worker's per-level state into [`ShardPartial`]s: keys
/// decoded from the level's composite codes in first-appearance order,
/// accumulators converted through [`raw_acc`] — the exact state a
/// per-level scalar pass over the same rows would hold.
fn worker_partials(
    input: &Table,
    group_cols: &[usize],
    levels: &[Vec<usize>],
    projs: &[LevelProj],
    aggs: &[AggSpec],
    states: Vec<LevelState>,
) -> Vec<ShardPartial> {
    let schema = input.schema();
    let funcs: Vec<AggFunc> = aggs.iter().map(|s| s.func).collect();
    let agg_names: Vec<String> = aggs.iter().map(|s| s.name.clone()).collect();
    let agg_types: Vec<DataType> = aggs.iter().map(|s| s.output_type(schema)).collect();
    levels
        .iter()
        .zip(projs)
        .zip(states)
        .map(|((dims, proj), mut state)| {
            let key_fields: Vec<Field> = dims
                .iter()
                .map(|&d| schema.field_at(group_cols[d]).clone())
                .collect();
            let n_groups = match &state.acc {
                LevelAcc::Dense(map) => map.len(),
                LevelAcc::DenseDirect { order, .. } => order.len(),
                LevelAcc::Wide(map) => map.len(),
            };
            if !matches!(state.acc, LevelAcc::DenseDirect { .. }) {
                for lane in &mut state.lanes {
                    lane.ensure(n_groups);
                }
            }
            let groups = (0..n_groups)
                .map(|gid| {
                    // Direct-indexed lanes are addressed by the level code
                    // itself; gid-mapped and wide lanes by the dense gid.
                    let (key, lane_idx): (Vec<Value>, usize) = match (&state.acc, proj) {
                        (LevelAcc::Dense(map), LevelProj::Dense { space, .. }) => {
                            let code = map.codes()[gid] as usize;
                            let key = (0..dims.len())
                                .map(|d| space.key_value(input, code, d))
                                .collect();
                            (key, gid)
                        }
                        (LevelAcc::DenseDirect { order, .. }, LevelProj::Dense { space, .. }) => {
                            let code = order[gid] as usize;
                            let key = (0..dims.len())
                                .map(|d| space.key_value(input, code, d))
                                .collect();
                            (key, code)
                        }
                        (LevelAcc::Wide(map), LevelProj::Wide { space, .. }) => {
                            let code = map.codes()[gid];
                            let key = (0..dims.len())
                                .map(|d| space.key_value(input, code, d))
                                .collect();
                            (key, gid)
                        }
                        _ => unreachable!("scan paths never mix dense and wide state"),
                    };
                    let accs: Vec<Acc> = state
                        .lanes
                        .iter()
                        .zip(&funcs)
                        .map(|(lane, &f)| {
                            let (sum, count) = lane.pair(lane_idx);
                            raw_acc(f, sum, count)
                        })
                        .collect();
                    (key, accs)
                })
                .collect();
            ShardPartial::from_parts(
                key_fields,
                funcs.clone(),
                agg_names.clone(),
                agg_types.clone(),
                groups,
            )
        })
        .collect()
}

/// Aggregate `aggs` at **every** lattice level of `levels` in one fused
/// scan over `input`.
///
/// `group_cols` are the finest key columns; each level is a non-empty,
/// strictly increasing list of positions into `group_cols` (the dimensions
/// that level keeps). Returns one [`ShardPartial`] per level, in `levels`
/// order — callers [`finalize`](ShardPartial::finalize) them into key-sorted
/// tables, [`serialize`](ShardPartial::serialize) them into a lattice
/// cache, or re-aggregate coarser levels from them.
///
/// The scan runs under `guard`'s [`ParallelConfig`](crate::ParallelConfig).
/// Returns `Ok(None)` when the plan is ineligible for the fused kernel
/// (vectorization disabled, non-fusable lanes, uncodable key dimensions):
/// callers fall back to per-level aggregation. Malformed inputs
/// (out-of-range columns, empty aggregate lists, non-subset levels) are
/// errors, not fallbacks.
pub fn lattice_aggregate(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    levels: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Option<Vec<ShardPartial>>> {
    let config = guard.config();
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
    if !config.vector || group_cols.is_empty() || levels.is_empty() {
        return Ok(None);
    }
    let Some(srcs) = lane_srcs(input, aggs) else {
        return Ok(None);
    };

    // Fine-code path: dense radix codes within the budget, shift-packed
    // wide codes past it, per-level fallback when neither encodes.
    let (root, projs): (RootCoder, Vec<LevelProj>) =
        if let Some(space) = DenseKeySpace::try_build(input, group_cols, config.dense_budget) {
            let Some(coder) = BlockCoder::try_new(input, &space) else {
                return Ok(None);
            };
            stats.dense_group_ops += levels.len() as u64;
            stats.pack_width = stats.pack_width.max(coder.pack_width() as u64);
            let projs = levels
                .iter()
                .map(|dims| {
                    let child = space.project(dims);
                    let jump = space.projection_table(dims, &child);
                    // Strictly increasing subsets of full length keep
                    // every dimension, so the projection is the identity.
                    let identity = dims.len() == group_cols.len();
                    LevelProj::Dense {
                        space: child,
                        jump,
                        identity,
                    }
                })
                .collect();
            (RootCoder::Dense(coder), projs)
        } else if let Some(space) = WideKeySpace::try_build(input, group_cols) {
            let Some(coder) = WideCoder::try_new(input, &space) else {
                return Ok(None);
            };
            stats.hash_group_ops += levels.len() as u64;
            stats.pack_width = stats.pack_width.max(coder.pack_width() as u64);
            let projs = levels
                .iter()
                .map(|dims| {
                    let child = space.project(dims);
                    let proj = space.projector(dims, &child);
                    LevelProj::Wide { space: child, proj }
                })
                .collect();
            (RootCoder::Wide(coder), projs)
        } else {
            return Ok(None);
        };

    stats.statements += 1;
    guard.check()?;
    let n = input.num_rows();
    stats.rows_scanned += n as u64;
    let mut span = guard.span("lattice");
    span.set_detail(match &root {
        RootCoder::Dense(_) => "dense",
        RootCoder::Wide(_) => "wide",
    });

    let make_states = || -> Vec<LevelState> {
        projs
            .iter()
            .map(|p| {
                let acc = match p {
                    LevelProj::Dense { space, .. } if space.size() <= DIRECT_SPACE_BUDGET => {
                        LevelAcc::DenseDirect {
                            seen: vec![0u64; space.size().div_ceil(64)],
                            order: Vec::new(),
                        }
                    }
                    LevelProj::Dense { space, .. } => {
                        LevelAcc::Dense(DenseGroupMap::new(space.clone()))
                    }
                    LevelProj::Wide { space, .. } => {
                        LevelAcc::Wide(WideGroupMap::new(space.clone()))
                    }
                };
                let mut lanes: Vec<RawLane> = srcs.iter().map(|_| RawLane::default()).collect();
                // Direct-indexed lanes span the whole code space up front;
                // gid-mapped lanes grow with the discovered group count.
                if let (LevelAcc::DenseDirect { .. }, LevelProj::Dense { space, .. }) = (&acc, p) {
                    for lane in &mut lanes {
                        lane.ensure(space.size());
                    }
                }
                LevelState { acc, lanes }
            })
            .collect()
    };
    // Contiguous chunks over the guard's workers, merged in worker order —
    // the same discipline as the single-level parallel aggregate
    // (DESIGN.md §7).
    let chunk_partials = fan_out(
        guard,
        &mut span,
        "lattice_aggregate",
        n,
        stats,
        |chunk, wstats, wspan| -> Result<Vec<ShardPartial>> {
            let mut states = make_states();
            match &root {
                RootCoder::Dense(coder) => scan_dense(
                    coder,
                    &projs,
                    &mut states,
                    &srcs,
                    chunk,
                    guard,
                    wstats,
                    wspan,
                )?,
                RootCoder::Wide(coder) => scan_wide(
                    coder,
                    &projs,
                    &mut states,
                    &srcs,
                    chunk,
                    guard,
                    wstats,
                    wspan,
                )?,
            }
            Ok(worker_partials(
                input, group_cols, levels, &projs, aggs, states,
            ))
        },
    )?;
    let mut chunk_partials = chunk_partials.into_iter();
    let mut partials = chunk_partials.next().expect("at least one chunk");
    for wp in chunk_partials {
        for (dst, src) in partials.iter_mut().zip(wp) {
            dst.merge(src)?;
        }
    }

    let out_rows: u64 = partials.iter().map(|p| p.num_groups() as u64).sum();
    guard.charge(out_rows)?;
    span.add_rows(out_rows);
    // Levels with zero groups still carry the declared shape; nothing to
    // patch — callers finalize into empty (or global, for their own
    // arity-0 handling) tables.
    for p in &mut partials {
        debug_assert_eq!(p.funcs().len(), aggs.len());
    }
    Ok(Some(partials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::multi_hash_aggregate;
    use crate::parallel::ParallelConfig;
    use pa_storage::{Schema, Value};

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
        .unwrap()
        .expect("eligible plan fuses");
        assert_eq!(st.rows_scanned, 10_000, "one scan for all levels");
        assert_eq!(st.vectorized_kernel_rows, 10_000);
        // Reference: independent per-level aggregation (serial, scalar
        // ordering), finalized sorted by key on both sides.
        let ref_levels: Vec<(Vec<usize>, Vec<AggSpec>)> = levels
            .iter()
            .map(|dims| {
                (
                    dims.iter().map(|&d| [0, 1, 2, 3][d]).collect(),
                    aggs.clone(),
                )
            })
            .collect();
        let mut ref_st = ExecStats::default();
        let reference = multi_hash_aggregate(
            &t,
            &ref_levels,
            &G.with_config(ParallelConfig::serial()),
            &mut ref_st,
        )
        .unwrap();
        for ((partial, reference), dims) in partials.into_iter().zip(reference).zip(&levels) {
            let fused = partial.finalize(&mut st).unwrap();
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
        .unwrap()
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
    fn ineligible_plans_fall_back() {
        let t = fact(100);
        let aggs = specs(&t);
        let guard = G.with_config(cfg(1, 1 << 20));
        // Vectorization disabled.
        let off = G.with_config(ParallelConfig {
            vector: false,
            ..cfg(1, 1 << 20)
        });
        let mut st = ExecStats::default();
        assert!(
            lattice_aggregate(&t, &[0, 1], &aggs, &[vec![0]], &off, &mut st)
                .unwrap()
                .is_none()
        );
        // Non-fusable lane (min).
        let min = vec![AggSpec::new(
            AggFunc::Min,
            Expr::col(t.schema(), "amt").unwrap(),
            "m",
        )];
        assert!(
            lattice_aggregate(&t, &[0, 1], &min, &[vec![0]], &guard, &mut st)
                .unwrap()
                .is_none()
        );
        // Float key dimension: neither code space builds.
        assert!(
            lattice_aggregate(&t, &[4], &aggs, &[vec![0]], &guard, &mut st)
                .unwrap()
                .is_none()
        );
        // Malformed level (not a subset) is an error, not a fallback.
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
        .unwrap()
        .unwrap();
        for p in &partials {
            assert_eq!(p.num_groups(), 0);
        }
    }
}
