//! Hash-dispatch pivot operator — the paper's "future work" optimization.
//!
//! SIGMOD §3.2 observes that the CASE strategy makes the evaluator test `N`
//! disjoint boolean conjunctions per input row because "the query optimizer
//! has no way to stop comparisons", and that a hash-based search would cut
//! the per-row cost from `O(N)` to `O(1)`. This operator is that evaluator:
//! one pass over the source, one group-key probe plus one subgroup-key probe
//! per row, accumulating straight into the `groups × cells` matrix.
//!
//! The scan is morsel-driven like the engine's hash aggregation: when the
//! [`ParallelConfig`] allows it, contiguous morsel runs fan out over scoped
//! workers, each accumulating into a thread-local `groups × cells` matrix
//! (the combo maps are built once and shared read-only), and the partials
//! merge in worker order so output is identical to the serial scan. Numeric
//! `sum`/`avg`/`count` lanes over plain columns read through
//! [`pa_storage::Column::get_f64`] instead of boxing a `Value` per cell.
//!
//! The output layout is identical to the CASE strategy's raw table
//! (`[D1..Dj][term cells × lanes][term total?][extra lanes]`), so the
//! surrounding pipeline cannot tell which evaluator produced it — only the
//! work counters differ (`case_condition_evals` stays at zero).

use crate::error::Result;
use pa_engine::{
    raw_acc, Acc, AggFunc, BlockCoder, DenseGroupMap, DenseKeySpace, ExecStats, Expr, GroupMap,
    LaneKernel, LaneSrc, NumSlice, ParallelConfig, RawLane, ResourceGuard, RowKeyMap, SpanHandle,
    BLOCK_ROWS,
};
use pa_storage::{Column, DataType, Field, Schema, Table, Value};

/// One horizontal term's piece of a pivot pass.
#[derive(Debug, Clone)]
pub struct PivotTask {
    /// Subgrouping columns in the source table.
    pub by_cols: Vec<usize>,
    /// Aggregations feeding each cell lane.
    pub lanes: Vec<(AggFunc, Expr)>,
    /// The distinct subgroup combinations, in result-column order.
    pub combos: Vec<Vec<Value>>,
    /// Group-total sum expression for percentage terms.
    pub total: Option<Expr>,
}

/// Per-task subgroup-combination lookup: combo tuple → cell index.
///
/// When the task's BY columns dense-encode (see [`DenseKeySpace`]), the
/// lookup is a precomputed *jump table* — `composite code → cell`, one
/// array index per row, no hashing and no key comparison. Otherwise it
/// falls back to the hash map. `u32::MAX` marks a code with no cell (the
/// row belongs to no listed combination and is skipped, exactly like a
/// failed hash probe).
enum CellMap {
    /// Jump table over the BY columns' composite-code space.
    Dense {
        space: DenseKeySpace,
        code_to_cell: Vec<u32>,
    },
    /// Hash fallback (combo tuple → cell index).
    Hash(RowKeyMap),
}

impl CellMap {
    /// Build the lookup for one task, preferring the jump table within
    /// `budget` codes. A combo whose value lies outside the encoded domain
    /// (possible when the combos were cached before the dictionary grew, or
    /// came from another snapshot) matches no row of `src`, so leaving its
    /// code unmapped is exact.
    fn build(src: &Table, task: &PivotTask, budget: usize) -> CellMap {
        if let Some(space) = DenseKeySpace::try_build(src, &task.by_cols, budget) {
            let mut code_to_cell = vec![u32::MAX; space.size()];
            for (cid, combo) in task.combos.iter().enumerate() {
                if let Some(code) = space.code_of_key(src, combo) {
                    code_to_cell[code] = cid as u32;
                }
            }
            return CellMap::Dense {
                space,
                code_to_cell,
            };
        }
        let mut m = RowKeyMap::with_capacity(task.combos.len());
        let mut discard = ExecStats::default();
        for combo in &task.combos {
            m.get_or_insert_key(combo, &mut discard);
        }
        CellMap::Hash(m)
    }

    fn is_dense(&self) -> bool {
        matches!(self, CellMap::Dense { .. })
    }

    /// Cell index for `src[row]`'s subgroup key, or `None` when the row
    /// belongs to no listed combination.
    #[inline]
    fn lookup_row(
        &self,
        src: &Table,
        by_cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> Option<usize> {
        match self {
            CellMap::Dense {
                space,
                code_to_cell,
            } => {
                let cell = code_to_cell[space.code_of_row(src, row)];
                (cell != u32::MAX).then_some(cell as usize)
            }
            CellMap::Hash(m) => m.lookup_row(src, by_cols, row, stats),
        }
    }
}

/// Everything a scan worker needs, shared read-only across threads.
struct PivotCtx<'a> {
    src: &'a Table,
    j_cols: &'a [usize],
    tasks: &'a [PivotTask],
    extra_lanes: &'a [(AggFunc, Expr)],
    group_space: &'a Option<DenseKeySpace>,
    cell_maps: &'a [CellMap],
    task_base: &'a [usize],
    extra_base: usize,
    width: usize,
    template: &'a [Acc],
    /// Aggregate function at each accumulator-matrix position, parallel to
    /// `template` (the fused path converts raw sums/counts through it).
    template_funcs: &'a [AggFunc],
    lane_kernels: &'a [Vec<LaneKernel>],
    total_kernels: &'a [Option<LaneKernel>],
    extra_kernels: &'a [LaneKernel],
    /// Typed views of `src`'s numeric columns, resolved once so the scalar
    /// loop stops re-matching the column enum per row.
    col_slices: Vec<Option<NumSlice<'a>>>,
}

/// Per-worker state for the fused vectorized pivot scan (DESIGN.md §12):
/// every path dense, every lane typed — built by [`PivotCtx::try_fused`].
struct FusedPivot<'a> {
    group_coder: BlockCoder<'a>,
    /// Per task: cell-code coder plus its jump table.
    cell_tables: Vec<(BlockCoder<'a>, &'a [u32])>,
    lane_srcs: Vec<Vec<LaneSrc<'a>>>,
    total_srcs: Vec<Option<LaneSrc<'a>>>,
    extra_srcs: Vec<LaneSrc<'a>>,
}

impl FusedPivot<'_> {
    /// Widest bit-packed dimension across the group and cell coders.
    fn pack_width(&self) -> u32 {
        self.cell_tables
            .iter()
            .map(|(c, _)| c.pack_width())
            .fold(self.group_coder.pack_width(), u32::max)
    }
}

/// Scatter one lane of a block into flat accumulator indices `idx[k] + off`
/// (`usize::MAX` skips the row), one update per row in row order — the same
/// update sequence the scalar `Acc` loop performs, so float sums match bit
/// for bit.
fn scatter_lane(lane: &mut RawLane, src: &LaneSrc<'_>, start: usize, idx: &[usize], off: usize) {
    match src {
        LaneSrc::CountStar => {
            for &f in idx {
                if f != usize::MAX {
                    lane.pair_mut(f + off).1 += 1;
                }
            }
        }
        LaneSrc::Col(NumSlice::Float(data, vwords)) => {
            for (k, &f) in idx.iter().enumerate() {
                if f == usize::MAX {
                    continue;
                }
                let row = start + k;
                // Branch on validity: the NaN placeholder must never reach
                // the sum, and adding 0.0 for NULLs would flip a -0.0.
                if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                    let pair = lane.pair_mut(f + off);
                    pair.0 += data[row];
                    pair.1 += 1;
                }
            }
        }
        LaneSrc::Col(NumSlice::Int(data, vwords)) => {
            for (k, &f) in idx.iter().enumerate() {
                if f == usize::MAX {
                    continue;
                }
                let row = start + k;
                if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                    let pair = lane.pair_mut(f + off);
                    pair.0 += data[row] as f64;
                    pair.1 += 1;
                }
            }
        }
    }
}

impl<'a> PivotCtx<'a> {
    /// Build the fused scan state when every path vectorizes: dense group
    /// and cell spaces whose dimensions all read through packed/typed
    /// vectors, and only typed numeric / `count(*)` lanes. `None` sends the
    /// scan down the (hoisted) scalar loop. Deterministic, so every worker
    /// and the planning pass agree.
    fn try_fused(&self, config: &ParallelConfig) -> Option<FusedPivot<'a>> {
        if !config.vector || self.j_cols.is_empty() {
            return None;
        }
        let group_coder = BlockCoder::try_new(self.src, self.group_space.as_ref()?)?;
        let mut cell_tables = Vec::with_capacity(self.cell_maps.len());
        for m in self.cell_maps {
            let CellMap::Dense {
                space,
                code_to_cell,
            } = m
            else {
                return None;
            };
            cell_tables.push((
                BlockCoder::try_new(self.src, space)?,
                code_to_cell.as_slice(),
            ));
        }
        let lane_src = |&k: &LaneKernel| LaneSrc::for_kernel(k, self.src);
        let lane_srcs: Option<Vec<Vec<LaneSrc<'a>>>> = self
            .lane_kernels
            .iter()
            .map(|ks| ks.iter().map(lane_src).collect())
            .collect();
        let total_srcs: Option<Vec<Option<LaneSrc<'a>>>> = self
            .total_kernels
            .iter()
            .map(|k| match k {
                None => Some(None),
                Some(k) => lane_src(k).map(Some),
            })
            .collect();
        let extra_srcs: Option<Vec<LaneSrc<'a>>> =
            self.extra_kernels.iter().map(lane_src).collect();
        Some(FusedPivot {
            group_coder,
            cell_tables,
            lane_srcs: lane_srcs?,
            total_srcs: total_srcs?,
            extra_srcs: extra_srcs?,
        })
    }

    /// Vectorized scan of one chunk: block-at-a-time group codes → gids,
    /// jump-table cell dispatch over code blocks, and raw sum/count
    /// accumulation, converted to the scalar path's `Acc` matrix at the
    /// end. Guard/span cadence matches the scalar scan (one charge per
    /// morsel plus one per fresh group), so budgets and traces are
    /// path-independent.
    fn scan_fused(
        &self,
        fused: &FusedPivot<'a>,
        chunk: std::ops::Range<usize>,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        span: &mut SpanHandle,
    ) -> Result<(GroupMap, Vec<Acc>)> {
        let config = guard.config();
        let space = self
            .group_space
            .clone()
            .expect("fused pivot requires a dense group space");
        let mut map = DenseGroupMap::new(space);
        let width = self.width;
        let mut lanes = RawLane::default();
        let mut gcodes = [0u32; BLOCK_ROWS];
        let mut gids = [0u32; BLOCK_ROWS];
        let mut ccodes = [0u32; BLOCK_ROWS];
        let mut idx = [usize::MAX; BLOCK_ROWS];
        let mut tidx = [usize::MAX; BLOCK_ROWS];
        stats.pack_width = stats.pack_width.max(fused.pack_width() as u64);
        for morsel in config.morsels(chunk) {
            guard.charge(morsel.len() as u64)?;
            span.add_morsels(1);
            span.add_rows(morsel.len() as u64);
            let mut start = morsel.start;
            while start < morsel.end {
                let blen = BLOCK_ROWS.min(morsel.end - start);
                stats.vectorized_kernel_rows += blen as u64;

                // Group codes → gids; fresh groups charge one output row
                // each, exactly like the scalar loop's discovery charge.
                fused.group_coder.fill(start, &mut gcodes[..blen]);
                let before = map.len();
                for k in 0..blen {
                    gids[k] = map.get_or_insert_code(gcodes[k] as usize) as u32;
                }
                let fresh = map.len() - before;
                if fresh > 0 {
                    guard.charge(fresh as u64)?;
                    span.add_rows(fresh as u64);
                }
                lanes.ensure(map.len() * width);

                for (t, task) in self.tasks.iter().enumerate() {
                    let (coder, code_to_cell) = &fused.cell_tables[t];
                    let nlanes = task.lanes.len();
                    let base_off = self.task_base[t];
                    let total_off = base_off + nlanes * task.combos.len();
                    let has_total = task.total.is_some();
                    coder.fill(start, &mut ccodes[..blen]);
                    // RLE fast path: a constant cell-code block (sorted or
                    // low-cardinality BY column) resolves the jump table
                    // once for the whole block.
                    let constant = ccodes[..blen].iter().all(|&c| c == ccodes[0]);
                    if constant {
                        stats.rle_runs += 1;
                        let cell = code_to_cell[ccodes[0] as usize];
                        if cell == u32::MAX {
                            continue; // no listed combo: the whole block skips this task
                        }
                        let cell_off = base_off + cell as usize * nlanes;
                        for k in 0..blen {
                            let g = gids[k] as usize * width;
                            idx[k] = g + cell_off;
                            tidx[k] = g + total_off;
                        }
                    } else {
                        for k in 0..blen {
                            let cell = code_to_cell[ccodes[k] as usize];
                            if cell == u32::MAX {
                                idx[k] = usize::MAX;
                                tidx[k] = usize::MAX;
                            } else {
                                let g = gids[k] as usize * width;
                                idx[k] = g + base_off + cell as usize * nlanes;
                                tidx[k] = g + total_off;
                            }
                        }
                    }
                    for (l, src) in fused.lane_srcs[t].iter().enumerate() {
                        scatter_lane(&mut lanes, src, start, &idx[..blen], l);
                    }
                    if has_total {
                        let src = fused.total_srcs[t]
                            .as_ref()
                            .expect("total lane classified for fused scan");
                        scatter_lane(&mut lanes, src, start, &tidx[..blen], 0);
                    }
                }

                if !fused.extra_srcs.is_empty() {
                    for k in 0..blen {
                        idx[k] = gids[k] as usize * width + self.extra_base;
                    }
                    for (x, src) in fused.extra_srcs.iter().enumerate() {
                        scatter_lane(&mut lanes, src, start, &idx[..blen], x);
                    }
                }
                start += blen;
            }
        }
        // Collapse into the Acc matrix the scalar scan produces, so the
        // merge/materialize machinery — and the output bytes — are shared.
        let n = map.len();
        lanes.ensure(n * width);
        let mut accs = Vec::with_capacity(n * width);
        for gid in 0..n {
            for (w, func) in self.template_funcs.iter().enumerate() {
                let f = gid * width + w;
                let (sum, count) = lanes.pair(f);
                accs.push(raw_acc(*func, sum, count));
            }
        }
        Ok((GroupMap::Dense(map), accs))
    }

    /// Scan one contiguous chunk morsel by morsel into a thread-local
    /// partial matrix. One guard charge per morsel meters the budget and
    /// observes cancellation; each freshly discovered group charges one
    /// output row (a group found by several workers charges once per
    /// worker — a conservative over-count that still stops `groups × cells`
    /// explosions mid-scan).
    fn scan(
        &self,
        chunk: std::ops::Range<usize>,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        span: &mut SpanHandle,
    ) -> Result<(GroupMap, Vec<Acc>)> {
        let config = guard.config();
        if let Some(fused) = self.try_fused(config) {
            return self.scan_fused(&fused, chunk, guard, stats, span);
        }
        let mut groups = GroupMap::for_space(self.group_space.clone());
        let mut accs: Vec<Acc> = Vec::new();
        for morsel in config.morsels(chunk) {
            guard.charge(morsel.len() as u64)?;
            span.add_morsels(1);
            span.add_rows(morsel.len() as u64);
            stats.scalar_kernel_rows += morsel.len() as u64;
            for row in morsel {
                let gid = if self.j_cols.is_empty() {
                    if groups.is_empty() {
                        groups.get_or_insert_key(&[], stats);
                    }
                    0
                } else {
                    groups.get_or_insert_row(self.src, self.j_cols, row, stats)
                };
                if (gid + 1) * self.width > accs.len() {
                    // A fresh group allocates `width` accumulator cells;
                    // charge it as one output row so group explosions trip
                    // the budget mid-scan.
                    guard.charge(1)?;
                    span.add_rows(1);
                    accs.extend_from_slice(self.template);
                }
                let base = gid * self.width;
                for (t, task) in self.tasks.iter().enumerate() {
                    // O(1): one jump-table index (or hash probe) finds the
                    // cell, no CASE chain.
                    let Some(cid) =
                        self.cell_maps[t].lookup_row(self.src, &task.by_cols, row, stats)
                    else {
                        continue;
                    };
                    let cell = base + self.task_base[t] + cid * task.lanes.len();
                    for (l, (_func, input)) in task.lanes.iter().enumerate() {
                        self.absorb(
                            &mut accs[cell + l],
                            self.lane_kernels[t][l],
                            input,
                            row,
                            stats,
                        )?;
                    }
                    if let Some(total) = &task.total {
                        let tpos = base + self.task_base[t] + task.lanes.len() * task.combos.len();
                        let kernel = self.total_kernels[t].expect("total lane classified");
                        self.absorb(&mut accs[tpos], kernel, total, row, stats)?;
                    }
                }
                for (x, (_func, input)) in self.extra_lanes.iter().enumerate() {
                    self.absorb(
                        &mut accs[base + self.extra_base + x],
                        self.extra_kernels[x],
                        input,
                        row,
                        stats,
                    )?;
                }
            }
        }
        Ok((groups, accs))
    }

    fn absorb(
        &self,
        acc: &mut Acc,
        kernel: LaneKernel,
        input: &Expr,
        row: usize,
        stats: &mut ExecStats,
    ) -> Result<()> {
        match kernel {
            LaneKernel::CountStar => acc.update_f64(None),
            LaneKernel::NumericCol(c) => {
                let s = self.col_slices[c]
                    .as_ref()
                    .expect("numeric lane has a typed slice");
                acc.update_f64(s.get_f64(row));
            }
            LaneKernel::Generic => {
                let v = input.eval(self.src, row, stats)?;
                acc.update(&v)?;
            }
        }
        Ok(())
    }
}

/// A planned pivot pass: the group-key code space and every task's cell
/// lookup, built under the pivot's span so the O(n) key-domain scans are
/// attributed to the operator. Callers that only run the jump-table pivot
/// decide from [`PivotPlan::jump_table`] — the spaces the pivot itself
/// runs on — and drop the plan otherwise.
pub(crate) struct PivotPlan<'a> {
    src: &'a Table,
    j_cols: &'a [usize],
    tasks: &'a [PivotTask],
    span: SpanHandle,
    group_space: Option<DenseKeySpace>,
    cell_maps: Vec<CellMap>,
}

impl<'a> PivotPlan<'a> {
    /// Open the `pivot` span and build the group space and cell maps
    /// within `guard`'s dense budget. Workers later clone the group space,
    /// so every worker assigns identical composite codes and the merge can
    /// fold partials by code.
    pub fn new(
        src: &'a Table,
        j_cols: &'a [usize],
        tasks: &'a [PivotTask],
        guard: &ResourceGuard,
    ) -> PivotPlan<'a> {
        let span = guard.span("pivot");
        let budget = guard.config().dense_budget;
        PivotPlan {
            src,
            j_cols,
            tasks,
            span,
            group_space: DenseKeySpace::try_build(src, j_cols, budget),
            cell_maps: tasks
                .iter()
                .map(|t| CellMap::build(src, t, budget))
                .collect(),
        }
    }

    /// Whether every task's cells dispatch through a dense jump table.
    pub fn jump_table(&self) -> bool {
        self.cell_maps.iter().all(CellMap::is_dense)
    }

    /// Run the pivot pass — scan, merge and materialization; see
    /// [`pivot_aggregate`].
    pub fn run(
        self,
        extra_lanes: &[(AggFunc, Expr)],
        guard: &ResourceGuard,
        stats: &mut ExecStats,
    ) -> Result<Table> {
        let PivotPlan {
            src,
            j_cols,
            tasks,
            mut span,
            group_space,
            cell_maps,
        } = self;
        let config = guard.config();
        stats.statements += 1;
        stats.holistic_lanes += tasks
            .iter()
            .flat_map(|t| &t.lanes)
            .map(|(func, _)| func)
            .chain(extra_lanes.iter().map(|(func, _)| func))
            .filter(|func| func.is_holistic())
            .count() as u64;
        guard.check()?;
        // Each pass — the group path and each task's cell path — records which
        // side it took.
        for dense in
            std::iter::once(group_space.is_some()).chain(cell_maps.iter().map(CellMap::is_dense))
        {
            if dense {
                stats.dense_group_ops += 1;
            } else {
                stats.hash_group_ops += 1;
            }
        }

        // Row width of the accumulator matrix.
        let mut task_base: Vec<usize> = Vec::with_capacity(tasks.len());
        let mut width = 0usize;
        for task in tasks {
            task_base.push(width);
            width += task.lanes.len() * task.combos.len() + usize::from(task.total.is_some());
        }
        let extra_base = width;
        width += extra_lanes.len();

        // Function at each matrix position; `template` holds the matching
        // empty accumulators, and the fused path converts its raw sums/counts
        // through the functions.
        let mut template_funcs: Vec<AggFunc> = Vec::with_capacity(width);
        for task in tasks {
            for _combo in &task.combos {
                template_funcs.extend(task.lanes.iter().map(|(func, _)| *func));
            }
            if task.total.is_some() {
                template_funcs.push(AggFunc::Sum);
            }
        }
        template_funcs.extend(extra_lanes.iter().map(|(func, _)| *func));
        let template: Vec<Acc> = template_funcs.iter().map(|&func| Acc::new(func)).collect();

        let lane_kernels: Vec<Vec<LaneKernel>> = tasks
            .iter()
            .map(|task| {
                task.lanes
                    .iter()
                    .map(|(func, input)| LaneKernel::classify(*func, input, src))
                    .collect()
            })
            .collect();
        let total_kernels: Vec<Option<LaneKernel>> = tasks
            .iter()
            .map(|task| {
                task.total
                    .as_ref()
                    .map(|total| LaneKernel::classify(AggFunc::Sum, total, src))
            })
            .collect();
        let extra_kernels: Vec<LaneKernel> = extra_lanes
            .iter()
            .map(|(func, input)| LaneKernel::classify(*func, input, src))
            .collect();
        let col_slices: Vec<Option<NumSlice<'_>>> = (0..src.num_columns())
            .map(|c| NumSlice::for_column(src.column(c)))
            .collect();

        let ctx = PivotCtx {
            src,
            j_cols,
            tasks,
            extra_lanes,
            group_space: &group_space,
            cell_maps: &cell_maps,
            task_base: &task_base,
            extra_base,
            width,
            template: &template,
            template_funcs: &template_funcs,
            lane_kernels: &lane_kernels,
            total_kernels: &total_kernels,
            extra_kernels: &extra_kernels,
            col_slices,
        };

        let n = src.num_rows();
        stats.rows_scanned += n as u64;
        // Probing here (a) labels the trace with the chosen kernel path and
        // (b) warms the lazy packed code vectors serially, before workers race
        // on the per-column build cell.
        span.set_detail(if ctx.try_fused(config).is_some() {
            "vectorized"
        } else {
            "scalar"
        });

        let chunk_results = pa_engine::parallel::fan_out(
            guard,
            &mut span,
            "pivot_aggregate",
            n,
            stats,
            |chunk, wstats, wspan| ctx.scan(chunk, guard, wstats, wspan),
        )?;
        // Deterministic ordered merge: the first chunk's partial seeds the
        // global matrix (its group order is the serial prefix order), later
        // chunks fold in, in worker order.
        let mut chunk_results = chunk_results.into_iter();
        let (mut groups, mut accs) = chunk_results.next().expect("at least one chunk");
        for (wgroups, waccs) in chunk_results {
            let mut waccs = waccs.into_iter();
            for gid in groups.merge_ids(wgroups, stats) {
                let gid = gid as usize;
                if (gid + 1) * width > accs.len() {
                    accs.extend_from_slice(&template);
                }
                for w in 0..width {
                    let partial = waccs.next().expect("partial accs cover groups × width");
                    accs[gid * width + w].merge(partial)?;
                }
            }
        }

        // Global aggregation yields one row even over empty input.
        if j_cols.is_empty() && groups.is_empty() {
            groups.get_or_insert_key(&[], stats);
            accs.extend_from_slice(&template);
        }

        // Materialize in the CASE raw layout.
        let src_schema = src.schema();
        let mut fields: Vec<Field> = j_cols
            .iter()
            .map(|&c| src_schema.field_at(c).clone())
            .collect();
        for (t, task) in tasks.iter().enumerate() {
            for i in 0..task.combos.len() {
                for (l, (func, input)) in task.lanes.iter().enumerate() {
                    fields.push(Field::new(
                        format!("__c{t}_{i}_{l}"),
                        func.output_type(input, src_schema),
                    ));
                }
            }
            if task.total.is_some() {
                fields.push(Field::new(format!("__tot{t}"), DataType::Float));
            }
        }
        for (x, (func, input)) in extra_lanes.iter().enumerate() {
            fields.push(Field::new(
                format!("__x{x}_0"),
                func.output_type(input, src_schema),
            ));
        }
        // Column-direct build: key columns come straight from the group map
        // (no per-row `Vec<Value>` clone), accumulator lanes fill one typed
        // column at a time.
        let acc_dtypes: Vec<DataType> = fields[j_cols.len()..].iter().map(|f| f.dtype).collect();
        let schema = Schema::new(fields)?.into_shared();
        let n_groups = groups.len();
        let mut columns = groups.build_key_columns(src, j_cols)?;
        for (w, &dtype) in acc_dtypes.iter().enumerate() {
            let mut col = Column::new(dtype);
            for gid in 0..n_groups {
                col.push(accs[gid * width + w].finish())?;
            }
            columns.push(col);
        }
        stats.rows_materialized += n_groups as u64;
        Ok(Table::from_columns(schema, columns)?)
    }
}

/// One-pass pivot aggregation with O(1) cell dispatch per row.
///
/// Produces the raw horizontal table: the `j_cols` key columns followed by,
/// for each task, `lanes × combos` cell columns (lane-major within a combo)
/// and the optional total column, then the flattened extra lanes.
///
/// The scan is charged to `guard` morsel by morsel, and each new group
/// charges as its accumulator lane is allocated (the pivot's memory
/// actually grows with `groups × cells`, so group discovery is exactly where
/// a runaway `Hpct` must be stopped). Parallelism follows the guard's
/// [`ParallelConfig`].
pub fn pivot_aggregate(
    src: &Table,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Table> {
    PivotPlan::new(src, j_cols, tasks, guard).run(extra_lanes, guard, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unlimited guard the direct operator calls below run under.
    const G: ResourceGuard = ResourceGuard::unlimited();

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d, a) in [
            (1, "Mon", 10.0),
            (1, "Tue", 30.0),
            (2, "Mon", 5.0),
            (1, "Mon", 10.0),
            (2, "Tue", 15.0),
        ] {
            t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn task(t: &Table) -> PivotTask {
        PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, Expr::col(t.schema(), "amt").unwrap())],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: Some(Expr::col(t.schema(), "amt").unwrap()),
        }
    }

    #[test]
    fn pivot_matches_manual_sums() {
        let t = sales();
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[0], &[task(&t)], &[], &G, &mut st).unwrap();
        let raw = raw.sorted_by(&[0]);
        // store 1: Mon 20, Tue 30, total 50; store 2: Mon 5, Tue 15, total 20.
        assert_eq!(raw.get(0, 1), Value::Float(20.0));
        assert_eq!(raw.get(0, 2), Value::Float(30.0));
        assert_eq!(raw.get(0, 3), Value::Float(50.0));
        assert_eq!(raw.get(1, 1), Value::Float(5.0));
        assert_eq!(raw.get(1, 3), Value::Float(20.0));
        assert_eq!(st.case_condition_evals, 0, "no CASE chain evaluated");
    }

    #[test]
    fn global_group_and_extras() {
        let t = sales();
        let mut st = ExecStats::default();
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let raw = pivot_aggregate(&t, &[], &[task(&t)], &extras, &G, &mut st).unwrap();
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Float(25.0)); // Mon global
        assert_eq!(raw.get(0, 1), Value::Float(45.0)); // Tue global
        assert_eq!(raw.get(0, 2), Value::Float(70.0)); // total
        assert_eq!(raw.get(0, 3), Value::Int(5)); // count(*)
    }

    #[test]
    fn empty_input_global_row() {
        let t = Table::empty(sales().schema().clone());
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[], &[task(&t)], &[], &G, &mut st).unwrap();
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Null);
    }

    #[test]
    fn min_max_and_avg_lanes() {
        let t = sales();
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let task = PivotTask {
            by_cols: vec![1],
            lanes: vec![
                (AggFunc::Min, amt.clone()),
                (AggFunc::Max, amt.clone()),
                (AggFunc::Avg, amt),
            ],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: None,
        };
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[0], &[task], &[], &G, &mut st)
            .unwrap()
            .sorted_by(&[0]);
        // store 1 Mon: amounts 10,10 → min 10, max 10, avg 10.
        assert_eq!(raw.get(0, 1), Value::Float(10.0));
        assert_eq!(raw.get(0, 2), Value::Float(10.0));
        assert_eq!(raw.get(0, 3), Value::Float(10.0));
        // store 2 Tue: 15.
        assert_eq!(raw.get(1, 4), Value::Float(15.0));
    }

    #[test]
    fn parallel_pivot_identical_to_serial() {
        // A table large enough for many small morsels: store ∈ 0..23,
        // dweek cycles over 7 names, integer-valued amounts so chunked
        // float sums are exact.
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let days = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let mut t = Table::with_capacity(schema, 9_000);
        for i in 0..9_000usize {
            t.push_row(&[
                Value::Int((i as i64 * 31) % 23),
                Value::str(days[i % 7]),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 97) as f64)
                },
            ])
            .unwrap();
        }
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let tasks = vec![PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, amt.clone()), (AggFunc::Count, amt.clone())],
            combos: days.iter().map(|d| vec![Value::str(*d)]).collect(),
            total: Some(amt),
        }];
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let serial = pivot_aggregate(
            &t,
            &[0],
            &tasks,
            &extras,
            &G.with_config(ParallelConfig::serial()),
            &mut ExecStats::default(),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let config = ParallelConfig {
                threads,
                morsel_rows: 256,
                min_parallel_rows: 0,
                ..ParallelConfig::serial()
            };
            let parallel = pivot_aggregate(
                &t,
                &[0],
                &tasks,
                &extras,
                &G.with_config(config),
                &mut ExecStats::default(),
            )
            .unwrap();
            let s_rows: Vec<Vec<Value>> = serial.rows().collect();
            let p_rows: Vec<Vec<Value>> = parallel.rows().collect();
            assert_eq!(s_rows, p_rows, "threads={threads}");
        }
    }
}
