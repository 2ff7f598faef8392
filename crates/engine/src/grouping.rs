//! The grouped-aggregation driver (DESIGN.md §7, §12, §15).
//!
//! Every grouped aggregation the engine runs — a GROUP BY, the paper's
//! synchronized `Fk`/`Fj` scan, the levels of a dimension lattice, a shard
//! partial — is a list of *level specs* over one scan of the input. In Gray
//! et al.'s Data Cube terms a GROUP BY is a one-level cube and the `Fk`/`Fj`
//! scan a two-level one, so one driver serves them all:
//!
//! * The **root** is the union of the levels' key columns (the finest level
//!   when one level holds every other's columns). Each column's key domain
//!   is scanned once; both code layouts derive from it.
//! * The root is coded once per block: dense mixed-radix codes when its key
//!   space fits the dense budget, shift-packed `u64` codes past it. When
//!   the union does not code (a float column, wider than 64 bits, an
//!   unpackable dictionary), the levels whose own keys code share a root
//!   of their own — or each keep one — and the rest group row by row, as
//!   does every level of a scan with vectors disabled.
//! * Each level **projects** the root code into its own group map: the
//!   identity when it keeps the root's columns in order, a radix jump
//!   table under a dense root, and mask-and-shift field extraction under a
//!   wide root — into the level's dense code when its own space fits the
//!   budget (dense and wide codes number slots alike), its wide code
//!   otherwise. A run of equal root codes projects once per run.
//! * Each level picks its group map from its own key space — dense, wide or
//!   hash — and accumulates raw `sum`/`count` pairs when every lane is a
//!   typed numeric kernel and the root codes by block, [`Acc`] lanes
//!   otherwise.
//! * Workers scan contiguous chunks and merge in worker order, by code, so
//!   group ids come out in serial first-appearance order. A level finishes
//!   as a first-appearance [`Table`] or as a [`ShardPartial`].

use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::keymap::{
    DenseGroupMap, DenseKeySpace, GroupMap, KeyDim, RowKeyMap, WideGroupMap, WideKeySpace,
    WideProjector,
};
use crate::ops::acc::Acc;
use crate::ops::aggregate::AggSpec;
use crate::ops::partial::ShardPartial;
use crate::parallel::fan_out;
use crate::stats::ExecStats;
use crate::vector::{
    raw_acc, BlockCoder, LaneKernel, LaneSrc, RawLane, WideCoder, BLOCK_ROWS, RLE_RUN_DIVISOR,
};
use pa_obs::SpanHandle;
use pa_storage::{Column, Field, Schema, Table};
use std::ops::Range;

/// The operator a driver pass runs as, which names its span, its span
/// detail and the operator a contained worker panic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// `hash_aggregate` / `multi_hash_aggregate`: span `aggregate`.
    Aggregate,
    /// `lattice_aggregate`: span `lattice`, detailed by the root layout.
    Lattice,
    /// `partial_aggregate`: span `aggregate`.
    Partial,
}

/// A key space: a level's own, chosen from its columns' domains, or the
/// root's (never hash).
enum Space {
    Dense(DenseKeySpace),
    Wide(WideKeySpace),
    Hash,
}

/// The block coder behind a root that codes.
enum RootCoder<'a> {
    Dense(BlockCoder<'a>),
    Wide(WideCoder<'a>),
}

/// A root: the union of its levels' key columns, coded once per block,
/// and the levels (indices into the pass's levels) that project from it,
/// each with its projection.
struct Root<'a> {
    coder: RootCoder<'a>,
    levels: Vec<(usize, Proj)>,
}

/// How a level turns a root code into its own code.
enum Proj {
    /// The level keeps the root's columns in order.
    Identity,
    /// Radix jump table over a dense root's code space.
    Jump(Vec<u32>),
    /// Bit-field extraction from a wide root's code.
    Fields(WideProjector),
}

impl Proj {
    /// The projection from `root` onto a level over root positions `pos`
    /// with its own space `level`; `None` when the level cannot be reached
    /// from this root (a repeated column can push a level past the root's
    /// layout).
    fn plan(root: &Space, pos: &[usize], level: &Space) -> Option<Proj> {
        let identity = |root_arity: usize| pos.iter().copied().eq(0..root_arity);
        Some(match (root, level) {
            // A global level: every code projects to the one code 0.
            (_, Space::Dense(_)) if pos.is_empty() => Proj::Fields(WideProjector::default()),
            (Space::Dense(r), Space::Dense(_)) if identity(r.cols().len()) => Proj::Identity,
            (Space::Dense(r), Space::Dense(child)) => Proj::Jump(r.projection_table(pos, child)),
            (Space::Wide(r), Space::Wide(_)) if identity(r.cols().len()) => Proj::Identity,
            (Space::Wide(r), Space::Wide(child)) => Proj::Fields(r.projector(pos, child)),
            (Space::Wide(r), Space::Dense(child)) => Proj::Fields(r.dense_projector(pos, child)),
            _ => return None,
        })
    }
}

/// One level's plan, shared read-only by every worker.
struct LevelPlan<'a> {
    cols: &'a [usize],
    aggs: &'a [AggSpec],
    space: Space,
    /// Each lane's typed source, `None` for a lane that evaluates its
    /// expression per row.
    lanes: Vec<Option<LaneSrc<'a>>>,
    /// Whether the level accumulates raw `(sum, count)` pairs: every lane
    /// typed and the level in a root.
    raw: bool,
}

/// One worker's state for one level (and, after the merge, the level's).
struct LevelState {
    map: GroupMap,
    /// Raw `(sum, count)` lanes, indexed by group id (raw levels only).
    raw: Vec<RawLane>,
    /// The `groups × aggs` accumulator matrix (`Acc` levels only).
    accs: Vec<Acc>,
}

/// A whole pass: its roots, the levels in none of them (grouped row by
/// row), and every level's plan.
struct Plan<'a> {
    input: &'a Table,
    roots: Vec<Root<'a>>,
    rowwise: Vec<usize>,
    levels: Vec<LevelPlan<'a>>,
}

impl<'a> Plan<'a> {
    /// Scan the key domains once and lay out the roots and every level.
    fn build(
        input: &'a Table,
        levels: &'a [(Vec<usize>, Vec<AggSpec>)],
        guard: &ResourceGuard,
        stats: &mut ExecStats,
    ) -> Plan<'a> {
        let config = guard.config();
        // Each key column's domain, scanned once for every level and root.
        let mut domains: Vec<Option<Option<KeyDim>>> = vec![None; input.num_columns()];
        for &c in levels.iter().flat_map(|(cols, _)| cols) {
            domains[c].get_or_insert_with(|| KeyDim::scan(input.column(c)));
        }
        // Dense within the budget, wide past it when vectors are on, hash
        // when the keys do not code — the choice a one-level pass over the
        // same columns makes. A global level is the one-code dense space.
        let space_of = |cols: &[usize]| {
            if cols.is_empty() {
                return Space::Dense(DenseKeySpace::from_dims(&[], &[], 1).expect("one code"));
            }
            let dims = cols.iter().map(|&c| domains[c].expect("scanned"));
            match dims.collect::<Option<Vec<KeyDim>>>() {
                Some(dims) => match DenseKeySpace::from_dims(cols, &dims, config.dense_budget) {
                    Some(space) => Space::Dense(space),
                    None if config.vector => {
                        WideKeySpace::from_dims(cols, &dims).map_or(Space::Hash, Space::Wide)
                    }
                    None => Space::Hash,
                },
                None => Space::Hash,
            }
        };
        let spaces: Vec<Space> = levels.iter().map(|(cols, _)| space_of(cols)).collect();

        // A root over `members` when the union of their columns codes by
        // block and every member projects from it.
        let root_for = |members: &[usize]| -> Option<Root<'a>> {
            let mut cols: Vec<usize> = Vec::new();
            for &c in members.iter().flat_map(|&i| &levels[i].0) {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let space = space_of(&cols);
            let coder = match &space {
                _ if cols.is_empty() => return None,
                Space::Dense(s) => RootCoder::Dense(BlockCoder::try_new(input, s)?),
                Space::Wide(s) => RootCoder::Wide(WideCoder::try_new(input, s)?),
                Space::Hash => return None,
            };
            let at = |c: &usize| cols.iter().position(|r| r == c).expect("root covers");
            let levels = members.iter().map(|&i| {
                let pos: Vec<usize> = levels[i].0.iter().map(at).collect();
                Some((i, Proj::plan(&space, &pos, &spaces[i])?))
            });
            Some(Root {
                coder,
                levels: levels.collect::<Option<_>>()?,
            })
        };
        // One root over every level when their union codes; otherwise one
        // over the levels whose own keys code, or failing that one root per
        // such level. The rest group row by row.
        let all: Vec<usize> = (0..levels.len()).collect();
        let mut coded = all.clone();
        coded.retain(|&i| !matches!(spaces[i], Space::Hash));
        let roots: Vec<Root<'a>> = if !config.vector {
            Vec::new()
        } else if let Some(root) = root_for(&all).or_else(|| root_for(&coded)) {
            vec![root]
        } else {
            coded.iter().filter_map(|&i| root_for(&[i])).collect()
        };
        for root in &roots {
            let width = match &root.coder {
                RootCoder::Dense(c) => c.pack_width(),
                RootCoder::Wide(c) => c.pack_width(),
            };
            stats.pack_width = stats.pack_width.max(width as u64);
        }
        let in_root = |i: usize| roots.iter().any(|r| r.levels.iter().any(|&(j, _)| j == i));
        let levels = levels
            .iter()
            .zip(spaces)
            .enumerate()
            .map(|(i, ((cols, aggs), space))| {
                if !cols.is_empty() && matches!(space, Space::Dense(_)) {
                    stats.dense_group_ops += 1;
                } else {
                    stats.hash_group_ops += 1;
                }
                let lanes: Vec<Option<LaneSrc<'a>>> = aggs
                    .iter()
                    .map(|s| {
                        LaneSrc::for_kernel(LaneKernel::classify(s.func, &s.input, input), input)
                    })
                    .collect();
                let raw = in_root(i) && lanes.iter().all(Option::is_some);
                LevelPlan {
                    cols,
                    aggs,
                    space,
                    lanes,
                    raw,
                }
            })
            .collect();
        Plan {
            input,
            rowwise: all.into_iter().filter(|&i| !in_root(i)).collect(),
            roots,
            levels,
        }
    }

    /// `"vectorized"` when every level accumulates raw lanes over block
    /// codes, `"mixed"` when some do, `"scalar"` otherwise; a lattice with
    /// one root over every level names that root's code layout instead.
    fn detail(&self, pass: Pass) -> &'static str {
        let n_raw = self.levels.iter().filter(|l| l.raw).count();
        match (pass, self.roots.as_slice()) {
            (Pass::Lattice, [root]) if self.rowwise.is_empty() => match root.coder {
                RootCoder::Dense(_) => "dense",
                RootCoder::Wide(_) => "wide",
            },
            _ if n_raw == self.levels.len() => "vectorized",
            _ if n_raw > 0 => "mixed",
            _ => "scalar",
        }
    }

    /// Scan `chunk` morsel by morsel into fresh level states. One guard
    /// charge per morsel: the charge both meters the budget and observes
    /// cancellation, so a cancelled guard stops the scan within one morsel
    /// on whichever worker runs this chunk.
    fn scan(
        &self,
        chunk: Range<usize>,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        span: &mut SpanHandle,
    ) -> Result<Vec<LevelState>> {
        let mut states: Vec<LevelState> = self
            .levels
            .iter()
            .map(|lvl| LevelState {
                map: match &lvl.space {
                    Space::Dense(space) => GroupMap::Dense(DenseGroupMap::new(space.clone())),
                    Space::Wide(space) => GroupMap::Wide(WideGroupMap::new(space.clone())),
                    Space::Hash => GroupMap::Hash(RowKeyMap::new()),
                },
                raw: if lvl.raw {
                    lvl.lanes.iter().map(|_| RawLane::default()).collect()
                } else {
                    Vec::new()
                },
                accs: Vec::new(),
            })
            .collect();
        // Root codes of one block, in the root's width.
        let mut dense = [0u32; BLOCK_ROWS];
        let mut wide = [0u64; BLOCK_ROWS];
        let mut scratch = Scratch {
            heads: [0; BLOCK_ROWS],
            starts: [0; BLOCK_ROWS + 1],
            level_codes: [0; BLOCK_ROWS],
            gids: [0; BLOCK_ROWS],
        };
        // Rows count once per pass: vectorized when some level takes raw
        // lanes, scalar when some level takes `Acc` lanes.
        let any_raw = self.levels.iter().any(|l| l.raw);
        let any_acc = self.levels.iter().any(|l| !l.raw);
        for morsel in guard.config().morsels(chunk) {
            guard.charge(morsel.len() as u64)?;
            span.add_morsels(1);
            span.add_rows(morsel.len() as u64);
            stats.vectorized_kernel_rows += u64::from(any_raw) * morsel.len() as u64;
            stats.scalar_kernel_rows += u64::from(any_acc) * morsel.len() as u64;
            for &i in &self.rowwise {
                let (lvl, state) = (&self.levels[i], &mut states[i]);
                for row in morsel.clone() {
                    let g = state
                        .map
                        .get_or_insert_row(self.input, lvl.cols, row, stats);
                    state.grow_accs(lvl, g + 1);
                    lvl.update_row(&mut state.accs, g, row, self.input, stats)?;
                }
            }
            for root in &self.roots {
                for start in morsel.clone().step_by(BLOCK_ROWS) {
                    let rows = start..morsel.end.min(start + BLOCK_ROWS);
                    let len = rows.len();
                    let (levels, scratch) = (&root.levels, &mut scratch);
                    match &root.coder {
                        RootCoder::Dense(coder) => {
                            coder.fill(start, &mut dense[..len]);
                            self.absorb_block(
                                &dense[..len],
                                rows,
                                levels,
                                &mut states,
                                scratch,
                                stats,
                            )?;
                        }
                        RootCoder::Wide(coder) => {
                            coder.fill(start, &mut wide[..len]);
                            self.absorb_block(
                                &wide[..len],
                                rows,
                                levels,
                                &mut states,
                                scratch,
                                stats,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(states)
    }

    /// Scatter one block of root codes (rows `rows`) into the root's
    /// `levels`: run by run when the block is run-dominated, row by row
    /// otherwise. Generic over the root's code width, so dense roots keep
    /// `u32` codes end to end.
    fn absorb_block<C: Copy + PartialEq + Into<u64>>(
        &self,
        codes: &[C],
        rows: Range<usize>,
        levels: &[(usize, Proj)],
        states: &mut [LevelState],
        scratch: &mut Scratch,
        stats: &mut ExecStats,
    ) -> Result<()> {
        let len = codes.len();
        let mut runs = 1usize;
        for k in 1..len {
            runs += usize::from(codes[k] != codes[k - 1]);
        }
        if runs * RLE_RUN_DIVISOR > len {
            for (i, proj) in levels {
                let (lvl, state) = (&self.levels[*i], &mut states[*i]);
                let gids = &mut scratch.gids[..len];
                lvl.group(proj, state, codes, &mut scratch.level_codes, gids, stats);
                if lvl.raw {
                    for (lane, src) in state.raw.iter_mut().zip(&lvl.lanes) {
                        let src = src.as_ref().expect("raw levels have typed lanes");
                        lane.scatter(src, rows.clone(), gids);
                    }
                } else {
                    for (row, &g) in rows.clone().zip(gids.iter()) {
                        lvl.update_row(&mut state.accs, g as usize, row, self.input, stats)?;
                    }
                }
            }
            return Ok(());
        }
        // Run-dominated: group each run's first code once per level, then
        // accumulate the run register-resident. The run heads compact
        // branch-free: every row writes its slot, a new run advances it.
        stats.rle_runs += runs as u64;
        let (heads, starts) = (&mut scratch.heads, &mut scratch.starts);
        heads[0] = codes[0].into();
        starts[0] = rows.start;
        let mut r = 1;
        for k in 1..len {
            heads[r] = codes[k].into();
            starts[r] = rows.start + k;
            r += usize::from(codes[k] != codes[k - 1]);
        }
        starts[runs] = rows.end;
        let (heads, starts) = (&heads[..runs], &starts[..=runs]);
        for (i, proj) in levels {
            let (lvl, state) = (&self.levels[*i], &mut states[*i]);
            let gids = &mut scratch.gids[..runs];
            lvl.group(proj, state, heads, &mut scratch.level_codes, gids, stats);
            if lvl.raw {
                for (lane, src) in state.raw.iter_mut().zip(&lvl.lanes) {
                    let src = src.as_ref().expect("raw levels have typed lanes");
                    for (run, &g) in starts.windows(2).zip(gids.iter()) {
                        lane.accumulate_run(src, run[0]..run[1], g as usize);
                    }
                }
            } else {
                for (run, &g) in starts.windows(2).zip(gids.iter()) {
                    for row in run[0]..run[1] {
                        lvl.update_row(&mut state.accs, g as usize, row, self.input, stats)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-worker block scratch: a run-dominated block's run heads and run
/// starts (plus the end), and one level's projected codes and group ids.
struct Scratch {
    heads: [u64; BLOCK_ROWS],
    starts: [usize; BLOCK_ROWS + 1],
    level_codes: [u64; BLOCK_ROWS],
    gids: [u32; BLOCK_ROWS],
}

impl LevelPlan<'_> {
    /// Group ids for a slice of root codes: projected through `proj` into
    /// the level's code space (via `level_codes`), looked up or inserted in its
    /// map, and every lane grown to the new group count.
    fn group<C: Copy + Into<u64>>(
        &self,
        proj: &Proj,
        state: &mut LevelState,
        codes: &[C],
        level_codes: &mut [u64],
        gids: &mut [u32],
        stats: &mut ExecStats,
    ) {
        let level_codes = &mut level_codes[..codes.len()];
        match proj {
            Proj::Identity => state.map.get_or_insert_codes(codes, gids, stats),
            Proj::Jump(jump) => {
                for (o, &c) in level_codes.iter_mut().zip(codes) {
                    *o = jump[c.into() as usize] as u64;
                }
                state.map.get_or_insert_codes(level_codes, gids, stats);
            }
            Proj::Fields(p) => {
                for (o, &c) in level_codes.iter_mut().zip(codes) {
                    *o = p.project(c.into());
                }
                state.map.get_or_insert_codes(level_codes, gids, stats);
            }
        }
        state.grow(self);
    }

    /// Feed row `row` into group `g`'s accumulators.
    #[inline]
    fn update_row(
        &self,
        accs: &mut [Acc],
        g: usize,
        row: usize,
        input: &Table,
        stats: &mut ExecStats,
    ) -> Result<()> {
        let base = g * self.aggs.len();
        for (i, (spec, lane)) in self.aggs.iter().zip(&self.lanes).enumerate() {
            let acc = &mut accs[base + i];
            match lane {
                Some(LaneSrc::CountStar) => acc.update_f64(None),
                Some(LaneSrc::Col(slice)) => acc.update_f64(slice.get_f64(row)),
                None => acc.update(&spec.input.eval(input, row, stats)?)?,
            }
        }
        Ok(())
    }
}

impl LevelState {
    /// Extend the accumulator matrix to `groups` groups.
    fn grow_accs(&mut self, lvl: &LevelPlan<'_>, groups: usize) {
        while self.accs.len() < groups * lvl.aggs.len() {
            self.accs.extend(lvl.aggs.iter().map(|s| Acc::new(s.func)));
        }
    }

    /// Size every lane to the map's group count.
    fn grow(&mut self, lvl: &LevelPlan<'_>) {
        let n = self.map.len();
        for lane in &mut self.raw {
            lane.ensure(n);
        }
        if !lvl.raw {
            self.grow_accs(lvl, n);
        }
    }

    /// Fold a later worker's state into this one, by code for the code
    /// paths: unseen groups append in the worker's first-appearance order,
    /// so merging in worker order reproduces the serial group order.
    fn merge(
        &mut self,
        lvl: &LevelPlan<'_>,
        other: LevelState,
        stats: &mut ExecStats,
    ) -> Result<()> {
        let ids = self.map.merge_ids(other.map, stats);
        self.grow(lvl);
        for (dst, src) in self.raw.iter_mut().zip(&other.raw) {
            dst.merge_from(src, &ids);
        }
        let width = lvl.aggs.len();
        let mut other_accs = other.accs.into_iter();
        for gid in ids.iter().filter(|_| !lvl.raw) {
            for i in 0..width {
                let partial = other_accs.next().expect("partial accs cover groups × aggs");
                self.accs[*gid as usize * width + i].merge(partial)?;
            }
        }
        Ok(())
    }

    /// The group map and the `groups × aggs` accumulator matrix in
    /// group-id order, raw pairs converted to the `Acc`s the per-row path
    /// would hold.
    fn finish(self, lvl: &LevelPlan<'_>) -> (GroupMap, Vec<Acc>) {
        if !lvl.raw {
            return (self.map, self.accs);
        }
        let accs = (0..self.map.len())
            .flat_map(|g| {
                let pairs = self.raw.iter().map(move |lane| lane.pair(g));
                lvl.aggs
                    .iter()
                    .zip(pairs)
                    .map(|(s, (sum, n))| raw_acc(s.func, sum, n))
            })
            .collect();
        (self.map, accs)
    }
}

/// Run every level over one scan of `input` under `guard`, merged in
/// worker order; each level's output groups are charged before they
/// materialize. A global level holds its one group even over empty input.
fn run<'a>(
    input: &'a Table,
    levels: &'a [(Vec<usize>, Vec<AggSpec>)],
    pass: Pass,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<(Plan<'a>, Vec<LevelState>)> {
    let (label, operator) = match pass {
        Pass::Aggregate => ("aggregate", "multi_hash_aggregate"),
        Pass::Lattice => ("lattice", "lattice_aggregate"),
        Pass::Partial => ("aggregate", "partial_aggregate"),
    };
    // The span opens before the domain scans and projection tables, so
    // the plan-level work is attributed to the operator.
    let mut span = guard.span(label);
    stats.statements += 1;
    stats.holistic_lanes += levels
        .iter()
        .flat_map(|(_, aggs)| aggs)
        .filter(|s| s.func.is_holistic())
        .count() as u64;
    guard.check()?;
    let plan = Plan::build(input, levels, guard, stats);
    span.set_detail(plan.detail(pass));
    let n = input.num_rows();
    stats.rows_scanned += n as u64;

    let partials = fan_out(
        guard,
        &mut span,
        operator,
        n,
        stats,
        |chunk, wstats, wspan| plan.scan(chunk, guard, wstats, wspan),
    )?;
    let mut partials = partials.into_iter();
    let mut states = partials.next().expect("at least one chunk");
    for worker in partials {
        for ((lvl, dst), src) in plan.levels.iter().zip(&mut states).zip(worker) {
            dst.merge(lvl, src, stats)?;
        }
    }
    for (lvl, state) in plan.levels.iter().zip(&mut states) {
        if lvl.cols.is_empty() && state.map.is_empty() {
            state.map.get_or_insert_codes(&[0u64], &mut [0], stats);
            state.grow(lvl);
        }
    }
    let out_rows: u64 = states.iter().map(|s| s.map.len() as u64).sum();
    guard.charge(out_rows)?;
    span.add_rows(out_rows);
    Ok((plan, states))
}

/// Aggregate every level in one scan and finish each as a table: key
/// columns decoded from the group map, then one column per aggregate, rows
/// in first-appearance order.
pub(crate) fn group_tables(
    input: &Table,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    pass: Pass,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Vec<Table>> {
    let (plan, states) = run(input, levels, pass, guard, stats)?;
    let schema = input.schema();
    let typed = |s: &AggSpec| Field::new(s.name.clone(), s.output_type(schema));
    plan.levels
        .iter()
        .zip(states)
        .map(|(lvl, state)| {
            let keys = lvl.cols.iter().map(|&c| schema.field_at(c).clone());
            let out_schema = Schema::new(keys.chain(lvl.aggs.iter().map(typed)).collect())?;
            let mut columns = state.map.build_key_columns(input, lvl.cols)?;
            let (map, accs) = state.finish(lvl);
            let width = lvl.aggs.len();
            for (i, spec) in lvl.aggs.iter().enumerate() {
                let mut col = Column::new(spec.output_type(schema));
                for acc in accs.iter().skip(i).step_by(width) {
                    stats.sketch_spills += u64::from(acc.spilled());
                    col.push(acc.finish())?;
                }
                columns.push(col);
            }
            stats.rows_materialized += map.len() as u64;
            Ok(Table::from_columns(out_schema.into_shared(), columns)?)
        })
        .collect()
}

/// Aggregate every level in one scan and finish each as a
/// [`ShardPartial`]: keys decoded from codes, accumulators unfinalized.
pub(crate) fn group_partials(
    input: &Table,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    pass: Pass,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Vec<ShardPartial>> {
    let (plan, states) = run(input, levels, pass, guard, stats)?;
    let schema = input.schema();
    Ok(plan
        .levels
        .iter()
        .zip(states)
        .map(|(lvl, state)| {
            let (map, accs) = state.finish(lvl);
            let mut accs = accs.into_iter();
            let rows = (0..map.len()).map(|_| accs.by_ref().take(lvl.aggs.len()).collect());
            let groups = map.into_key_rows(input).into_iter().zip(rows).collect();
            ShardPartial::from_parts(schema, lvl.cols, lvl.aggs, groups)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use crate::keymap::RowKeyMap;
    use crate::ops::acc::Acc;
    use crate::ops::aggregate::{hash_aggregate, multi_hash_aggregate, AggFunc, AggSpec};
    use crate::{ExecStats, Expr, ParallelConfig, ResourceGuard, BLOCK_ROWS};
    use pa_storage::{DataType, Schema, Table, Value};

    fn table(rows: &[(Option<&str>, Option<i64>, Option<f64>)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("d", DataType::Int),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for &(s, d, a) in rows {
            t.push_row(&[
                s.map_or(Value::Null, Value::str),
                d.map_or(Value::Null, Value::Int),
                a.map_or(Value::Null, Value::Float),
            ])
            .unwrap();
        }
        t
    }

    /// `sum(a) GROUP BY s, d` through the driver, serial, vectors on.
    fn driver_sums(t: &Table, dense_budget: usize) -> (Table, ExecStats) {
        let guard = ResourceGuard::unlimited().with_config(ParallelConfig {
            dense_budget,
            ..ParallelConfig::serial()
        });
        let mut stats = ExecStats::default();
        let spec = AggSpec::new(AggFunc::Sum, Expr::Col(2), "sum");
        let out = hash_aggregate(t, &[0, 1], &[spec], &guard, &mut stats).unwrap();
        (out, stats)
    }

    /// Scalar oracle: first-appearance group order, row-order updates.
    fn oracle(t: &Table) -> (RowKeyMap, Vec<Acc>) {
        let mut st = ExecStats::default();
        let mut map = RowKeyMap::new();
        let mut accs: Vec<Acc> = Vec::new();
        for row in 0..t.num_rows() {
            let g = map.get_or_insert_row(t, &[0, 1], row, &mut st);
            if g == accs.len() {
                accs.push(Acc::new(AggFunc::Sum));
            }
            accs[g].update_f64(t.column(2).get_f64(row));
        }
        (map, accs)
    }

    /// Same groups in the same order with bit-identical sums.
    fn assert_matches_oracle(t: &Table, out: &Table) {
        let (map, accs) = oracle(t);
        assert_eq!(out.num_rows(), map.len(), "same groups in same order");
        for (g, acc) in accs.iter().enumerate() {
            for d in 0..2 {
                assert!(out.get(g, d).key_eq(&map.keys()[g][d]), "gid {g}");
            }
            let bits = |v: Value| v.as_f64().map(f64::to_bits);
            assert_eq!(bits(out.get(g, 2)), bits(acc.finish()), "gid {g}");
        }
    }

    #[test]
    fn fused_float_sums_are_bit_identical_to_scalar_acc() {
        // The block path must reproduce the scalar Acc updates bit for bit —
        // including signed zeros, NaN NULL placeholders being skipped (never
        // mask-multiplied), and strict row-order addition within a run.
        let t = table(&[
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), None),
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), Some(0.1)),
            (Some("g"), Some(1), Some(0.2)),
            (Some("g"), Some(1), Some(-0.3)),
        ]);
        let n = t.num_rows();
        let (out, stats) = driver_sums(&t, 1 << 20);
        assert_matches_oracle(&t, &out);
        // All rows share one code: the block collapsed to one RLE run.
        assert_eq!(stats.rle_runs, 1);
        assert_eq!(stats.vectorized_kernel_rows, n as u64);
    }

    #[test]
    fn fused_wide_matches_scalar_hash_oracle() {
        // Alternating keys defeat run detection; a sorted prefix exercises
        // the run path too. A one-code budget forces the wide codes.
        let mut rows: Vec<(Option<&str>, Option<i64>, Option<f64>)> = Vec::new();
        for i in 0..BLOCK_ROWS + 100 {
            let sorted = i < BLOCK_ROWS / 2;
            rows.push((
                Some(if sorted || i % 2 == 0 { "a" } else { "b" }),
                Some(if sorted { 0 } else { (i % 3) as i64 }),
                (i % 5 != 0).then_some(i as f64 * 0.25),
            ));
        }
        let t = table(&rows);
        let (out, stats) = driver_sums(&t, 1);
        assert_eq!(stats.hash_group_ops, 1, "wide group path");
        assert_eq!(stats.vectorized_kernel_rows, t.num_rows() as u64);
        assert_matches_oracle(&t, &out);
    }

    #[test]
    fn float_key_level_leaves_the_other_levels_on_block_codes() {
        // Fk = (s, a) does not code (a float key); Fj = (s) keeps a root of
        // its own, so its rows still take the block path. Each level equals
        // its own one-level pass.
        let rows: Vec<(Option<&str>, Option<i64>, Option<f64>)> = (0..300)
            .map(|i| {
                let s = if i % 3 == 0 { "a" } else { "b" };
                (Some(s), Some(i % 7), (i % 5 != 0).then_some((i % 4) as f64))
            })
            .collect();
        let t = table(&rows);
        let guard = ResourceGuard::unlimited().with_config(ParallelConfig::serial());
        let sums = vec![AggSpec::new(AggFunc::Sum, Expr::Col(1), "sum")];
        let levels = vec![(vec![0, 2], sums.clone()), (vec![0], sums)];
        let mut stats = ExecStats::default();
        let out = multi_hash_aggregate(&t, &levels, &guard, &mut stats).unwrap();
        assert_eq!(stats.vectorized_kernel_rows, 300, "Fj on block codes");
        assert_eq!(stats.scalar_kernel_rows, 300, "Fk row by row");
        for ((cols, aggs), got) in levels.iter().zip(&out) {
            let mut st = ExecStats::default();
            let solo = hash_aggregate(&t, cols, aggs, &guard, &mut st).unwrap();
            assert_eq!(
                got.rows().collect::<Vec<_>>(),
                solo.rows().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn scatter_path_matches_run_path() {
        // Alternating keys defeat run detection; the scatter path must
        // agree with the scalar oracle.
        let rows: Vec<(Option<&str>, Option<i64>, Option<f64>)> = (0..200)
            .map(|i| {
                (
                    Some(if i % 2 == 0 { "a" } else { "b" }),
                    Some((i % 3) as i64),
                    (i % 5 != 0).then_some(i as f64 * 0.25),
                )
            })
            .collect();
        let t = table(&rows);
        let (out, stats) = driver_sums(&t, 1 << 20);
        assert_eq!(stats.rle_runs, 0, "alternating keys take the scatter path");
        assert_matches_oracle(&t, &out);
    }
}
