//! Vectorized compressed-column kernels (DESIGN.md §12).
//!
//! The scalar operators interpret one row at a time: a virtual
//! `Column::get`/`get_f64` per lane per row, an enum match per dimension per
//! row inside `DenseKeySpace::code_of_row`. This module replaces the inner
//! loops with MonetDB/X100-style *block-at-a-time* kernels over compressed
//! vectors:
//!
//! * [`BlockCoder`] resolves each key dimension to a typed reader **once**
//!   — bit-packed NULL-folded slots for dictionary columns
//!   ([`pa_storage::PackedCodes`]), raw `&[i64]` plus validity words for
//!   integer columns — and fills a stack block of mixed-radix composite
//!   codes with tight, autovectorizable loops. The packed slot (`0` NULL,
//!   `code + 1` otherwise) is exactly the dense key space's digit, so
//!   unpack output feeds the code computation with no translation.
//! * [`LaneSrc`] / [`RawLanes`] accumulate `sum`/`count` pairs straight
//!   into dense `&mut [f64]` / `&mut [i64]` slices indexed by group id — no
//!   `Option`, no `Value`, no `Acc` enum dispatch inside the loop. The raw
//!   pairs convert to real [`Acc`]s only once per worker chunk
//!   ([`raw_acc`]), so the merge/finish machinery — and therefore the
//!   output bytes — are identical to the scalar path.
//! * Run detection ([`FusedAgg`]) switches to an RLE fast path when a code
//!   block is dominated by runs (sorted/clustered dimensions): one group
//!   lookup per run and register-resident accumulation, with counts added
//!   run-length at a time. Floating-point sums still add row by row in row
//!   order — never reassociated — which is what keeps the fused path
//!   byte-identical to the scalar one.
//! * [`NumSlice`] is the same hoisting for the *scalar fallback* loops:
//!   lanes that cannot fuse still resolve their typed slices once per scan
//!   instead of re-matching the column enum per row.
//!
//! Eligibility: a grouping pass fuses when its group map took one of the
//! code paths (dense, or wide past the dense budget), every lane is a typed
//! numeric `sum`/`avg`/`count`/`count(*)` kernel, and every key dimension
//! reads through a packed or integer vector. Everything else — float keys,
//! keys that do not pack into 64 bits, min/max or expression lanes — falls
//! back to the (hoisted) scalar loop, and the chosen path is recorded in
//! [`crate::ExecStats`] and on trace spans.

use crate::keymap::{DenseGroupMap, DenseKeySpace, DimCoder, WideGroupMap, WideKeySpace};
use crate::ops::acc::Acc;
use crate::ops::aggregate::AggFunc;
use crate::stats::ExecStats;
use pa_storage::{Column, PackedCodes, Table};
use std::ops::Range;
use std::sync::Arc;

/// Rows per kernel block: the unit the fused pipelines unpack, encode, and
/// scatter at a time. Fits the code/gid scratch in L1 alongside the lane
/// data.
pub const BLOCK_ROWS: usize = 1024;

/// When a block splits into at most `len / RLE_RUN_DIVISOR` runs, the
/// run-level path beats the per-row scatter.
pub(crate) const RLE_RUN_DIVISOR: usize = 2;

// ---- hoisted typed column views ------------------------------------------

/// A numeric column resolved to its raw parts once per scan, replacing the
/// per-row `table.column(c).get_f64(row)` in non-vectorized fallback loops.
#[derive(Clone, Copy)]
pub enum NumSlice<'a> {
    /// Integer column: data (0 placeholders) + validity words.
    Int(&'a [i64], &'a [u64]),
    /// Float column: data (NaN placeholders) + validity words.
    Float(&'a [f64], &'a [u64]),
}

impl<'a> NumSlice<'a> {
    /// Resolve a column, `None` when it is not numeric.
    pub fn for_column(col: &'a Column) -> Option<NumSlice<'a>> {
        match col {
            Column::Int { data, validity } => Some(NumSlice::Int(data, validity.words())),
            Column::Float { data, validity } => Some(NumSlice::Float(data, validity.words())),
            Column::Str { .. } => None,
        }
    }

    /// The value at `row` widened to `f64`, `None` when NULL — same
    /// contract as [`Column::get_f64`], minus the per-row column resolve.
    #[inline]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match *self {
            NumSlice::Int(data, vwords) => {
                (vwords[row >> 6] >> (row & 63) & 1 == 1).then(|| data[row] as f64)
            }
            NumSlice::Float(data, vwords) => {
                (vwords[row >> 6] >> (row & 63) & 1 == 1).then(|| data[row])
            }
        }
    }
}

// ---- block composite-code computation ------------------------------------

enum DimReader<'a> {
    /// Dictionary dimension via the bit-packed NULL-folded slot vector.
    Packed {
        packed: Arc<PackedCodes>,
        stride: u32,
    },
    /// Integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
        stride: u32,
    },
}

/// Fills blocks of mixed-radix composite codes for a [`DenseKeySpace`],
/// reading every dimension through a compressed or typed vector.
pub struct BlockCoder<'a> {
    dims: Vec<DimReader<'a>>,
    /// Widest bit-packed dimension, for stats (`0` when no packed dim).
    pack_width: u32,
}

impl<'a> BlockCoder<'a> {
    /// Build a coder for `space` over `table`. `None` when some dimension
    /// cannot be read vectorized (unpackable dictionary) or the code space
    /// does not fit the `u32` block buffers — callers then keep the scalar
    /// `code_of_row` loop.
    pub fn try_new(table: &'a Table, space: &DenseKeySpace) -> Option<BlockCoder<'a>> {
        if space.size() > u32::MAX as usize {
            return None;
        }
        let mut dims = Vec::with_capacity(space.cols().len());
        let mut pack_width = 0u32;
        for (d, &c) in space.cols().iter().enumerate() {
            let stride = space.strides[d] as u32;
            let reader = match (table.column(c), space.dims[d]) {
                (col @ Column::Str { .. }, DimCoder::Str) => {
                    let packed = Arc::clone(col.packed_slots()?);
                    pack_width = pack_width.max(packed.width());
                    DimReader::Packed { packed, stride }
                }
                (Column::Int { data, validity }, DimCoder::Int { min }) => DimReader::Int {
                    data,
                    vwords: validity.words(),
                    min,
                    stride,
                },
                _ => return None,
            };
            dims.push(reader);
        }
        Some(BlockCoder { dims, pack_width })
    }

    /// Widest bit-packed dimension this coder reads (0 when none).
    pub fn pack_width(&self) -> u32 {
        self.pack_width
    }

    /// Compute the composite codes of rows `start..start + out.len()` into
    /// `out`. Every loop body is branch-free over raw slices.
    pub fn fill(&self, start: usize, out: &mut [u32]) {
        let mut first = true;
        let mut slots = [0u32; BLOCK_ROWS];
        for dim in &self.dims {
            match dim {
                DimReader::Packed { packed, stride } => {
                    let slots = &mut slots[..out.len()];
                    packed.unpack_into(start, slots);
                    if first {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o = s * stride;
                        }
                    } else {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o += s * stride;
                        }
                    }
                }
                DimReader::Int {
                    data,
                    vwords,
                    min,
                    stride,
                } => {
                    // Wrapping math masked by validity: NULL placeholders may
                    // sit arbitrarily far from `min`, the multiply by the
                    // validity bit discards whatever they wrap to.
                    for (i, o) in out.iter_mut().enumerate() {
                        let row = start + i;
                        let valid = (vwords[row >> 6] >> (row & 63) & 1) as u32;
                        let slot = (data[row].wrapping_sub(*min) as u32).wrapping_add(1) * valid;
                        if first {
                            *o = slot * stride;
                        } else {
                            *o += slot * stride;
                        }
                    }
                }
            }
            first = false;
        }
        if first {
            out.fill(0);
        }
    }
}

// ---- wide (shift-packed) block coding -------------------------------------

enum WideDimReader<'a> {
    /// Dictionary dimension via the bit-packed NULL-folded slot vector.
    Packed {
        packed: Arc<PackedCodes>,
        shift: u32,
    },
    /// Integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
        shift: u32,
    },
}

/// Fills blocks of shift-packed `u64` composite codes for a
/// [`WideKeySpace`] — the same typed-slice block discipline as
/// [`BlockCoder`], for key spaces past the dense budget where codes pack
/// into bit fields instead of mixed radices.
pub struct WideCoder<'a> {
    dims: Vec<WideDimReader<'a>>,
    /// Widest bit-packed dimension, for stats (`0` when no packed dim).
    pack_width: u32,
}

impl<'a> WideCoder<'a> {
    /// Build a coder for `space` over `table`. `None` when some dictionary
    /// dimension cannot be read through a packed vector — callers then keep
    /// the per-row scalar loop.
    pub fn try_new(table: &'a Table, space: &WideKeySpace) -> Option<WideCoder<'a>> {
        let mut dims = Vec::with_capacity(space.cols().len());
        let mut pack_width = 0u32;
        for (d, &c) in space.cols().iter().enumerate() {
            let shift = space.shifts[d];
            let reader = match (table.column(c), space.dims[d]) {
                (col @ Column::Str { .. }, DimCoder::Str) => {
                    let packed = Arc::clone(col.packed_slots()?);
                    pack_width = pack_width.max(packed.width());
                    WideDimReader::Packed { packed, shift }
                }
                (Column::Int { data, validity }, DimCoder::Int { min }) => WideDimReader::Int {
                    data,
                    vwords: validity.words(),
                    min,
                    shift,
                },
                _ => return None,
            };
            dims.push(reader);
        }
        Some(WideCoder { dims, pack_width })
    }

    /// Widest bit-packed dimension this coder reads (0 when none).
    pub fn pack_width(&self) -> u32 {
        self.pack_width
    }

    /// Compute the shift-packed codes of rows `start..start + out.len()`
    /// into `out`. Every loop body is branch-free over raw slices.
    pub fn fill(&self, start: usize, out: &mut [u64]) {
        let mut first = true;
        let mut slots = [0u32; BLOCK_ROWS];
        for dim in &self.dims {
            match dim {
                WideDimReader::Packed { packed, shift } => {
                    let slots = &mut slots[..out.len()];
                    packed.unpack_into(start, slots);
                    if first {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o = (s as u64) << shift;
                        }
                    } else {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o |= (s as u64) << shift;
                        }
                    }
                }
                WideDimReader::Int {
                    data,
                    vwords,
                    min,
                    shift,
                } => {
                    // Wrapping math masked by validity, as in `BlockCoder`:
                    // the multiply by the validity bit zeroes NULL slots.
                    for (i, o) in out.iter_mut().enumerate() {
                        let row = start + i;
                        let valid = vwords[row >> 6] >> (row & 63) & 1;
                        let slot = (data[row].wrapping_sub(*min) as u64).wrapping_add(1) * valid;
                        if first {
                            *o = slot << shift;
                        } else {
                            *o |= slot << shift;
                        }
                    }
                }
            }
            first = false;
        }
        if first {
            out.fill(0);
        }
    }
}

// ---- raw accumulator lanes -----------------------------------------------

/// Where one fused aggregate lane reads its input.
#[derive(Clone, Copy)]
pub enum LaneSrc<'a> {
    /// Typed numeric column.
    Col(NumSlice<'a>),
    /// `count(*)`: no input read.
    CountStar,
}

impl<'a> LaneSrc<'a> {
    /// Resolve a numeric column lane; `None` when the column is not numeric.
    pub fn for_column(col: &'a Column) -> Option<LaneSrc<'a>> {
        NumSlice::for_column(col).map(LaneSrc::Col)
    }
}

/// One lane's dense `sum`/`count` pair, indexed by group id (or any other
/// dense accumulator index). `sum` accumulates in strict row order so float
/// results match the scalar `Acc` updates bit for bit.
///
/// Sum and count interleave in one array so a group update touches one
/// cache line, not two — on group counts that outgrow L1, the second
/// random line per row is the scatter loop's dominant cost.
#[derive(Default)]
pub struct RawLane {
    /// Per-index `(running sum, non-NULL input count)` pairs (row counts
    /// for `count(*)` lanes).
    pairs: Vec<(f64, i64)>,
}

impl RawLane {
    /// Grow the array to at least `n` entries.
    #[inline]
    pub fn ensure(&mut self, n: usize) {
        if self.pairs.len() < n {
            self.pairs.resize(n, (0.0, 0));
        }
    }

    /// The `(sum, count)` pair at index `g`.
    #[inline]
    pub fn pair(&self, g: usize) -> (f64, i64) {
        self.pairs[g]
    }

    /// Mutable access to the `(sum, count)` pair at index `g`.
    #[inline]
    pub fn pair_mut(&mut self, g: usize) -> &mut (f64, i64) {
        &mut self.pairs[g]
    }

    /// Scatter rows `rows.start + k` into accumulator indices `idx[k]`,
    /// one update per row in row order.
    #[inline]
    pub fn scatter(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, idx: &[u32]) {
        debug_assert_eq!(rows.len(), idx.len());
        match src {
            LaneSrc::CountStar => {
                for &g in idx {
                    self.pairs[g as usize].1 += 1;
                }
            }
            LaneSrc::Col(NumSlice::Float(data, vwords)) => {
                let data = &data[rows.start..rows.end];
                for (k, (&g, &x)) in idx.iter().zip(data).enumerate() {
                    let row = rows.start + k;
                    // Branch, don't mask: adding 0.0 for NULLs would turn a
                    // -0.0 running sum into +0.0, and the NaN placeholder
                    // would poison a masked multiply.
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        let p = &mut self.pairs[g as usize];
                        p.0 += x;
                        p.1 += 1;
                    }
                }
            }
            LaneSrc::Col(NumSlice::Int(data, vwords)) => {
                let data = &data[rows.start..rows.end];
                for (k, (&g, &x)) in idx.iter().zip(data).enumerate() {
                    let row = rows.start + k;
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        let p = &mut self.pairs[g as usize];
                        p.0 += x as f64;
                        p.1 += 1;
                    }
                }
            }
        }
    }

    /// Accumulate one run of rows that all map to accumulator index `g`:
    /// the accumulator lives in registers for the run, counts add
    /// run-length-weighted, and float sums still add row by row in row
    /// order (reassociating would change the bits).
    #[inline]
    pub fn accumulate_run(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, g: usize) {
        match src {
            LaneSrc::CountStar => {
                self.pairs[g].1 += rows.len() as i64;
            }
            LaneSrc::Col(NumSlice::Float(data, vwords)) => {
                let mut sum = self.pairs[g].0;
                let mut cnt = 0i64;
                for row in rows {
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        sum += data[row];
                        cnt += 1;
                    }
                }
                self.pairs[g].0 = sum;
                self.pairs[g].1 += cnt;
            }
            LaneSrc::Col(NumSlice::Int(data, vwords)) => {
                let mut sum = self.pairs[g].0;
                let mut cnt = 0i64;
                for row in rows {
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        sum += data[row] as f64;
                        cnt += 1;
                    }
                }
                self.pairs[g].0 = sum;
                self.pairs[g].1 += cnt;
            }
        }
    }
}

/// Convert one raw `sum`/`count` pair into the [`Acc`] the scalar path
/// would have produced for the same rows in the same order.
///
/// # Panics
/// On functions the fused path never admits (min/max/distinct).
#[inline]
pub fn raw_acc(func: AggFunc, sum: f64, count: i64) -> Acc {
    match func {
        AggFunc::Sum => Acc::Sum {
            sum,
            any: count > 0,
        },
        AggFunc::Avg => Acc::Avg { sum, n: count },
        AggFunc::Count => Acc::Count(count),
        AggFunc::CountStar => Acc::CountStar(count),
        _ => unreachable!("fused lanes are sum/avg/count/count(*) only"),
    }
}

// ---- fused aggregate state -----------------------------------------------

/// Fills blocks of composite codes: dense `u32` radix codes
/// ([`BlockCoder`]) or wide `u64` shift-packed codes ([`WideCoder`]).
pub(crate) trait FillCodes {
    /// The composite-code type of the block.
    type Code: Copy + Default + PartialEq;
    /// Compute the codes of rows `start..start + out.len()` into `out`.
    fn fill_codes(&self, start: usize, out: &mut [Self::Code]);
}

impl FillCodes for BlockCoder<'_> {
    type Code = u32;
    #[inline]
    fn fill_codes(&self, start: usize, out: &mut [u32]) {
        self.fill(start, out);
    }
}

impl FillCodes for WideCoder<'_> {
    type Code = u64;
    #[inline]
    fn fill_codes(&self, start: usize, out: &mut [u64]) {
        self.fill(start, out);
    }
}

/// Resolves composite codes to first-appearance group ids: a
/// direct-addressed array for dense codes, a hash for wide ones.
pub(crate) trait CodeGroups<Code> {
    /// Number of distinct groups seen.
    fn num_groups(&self) -> usize;
    /// Group id for `code`, inserting a new group when unseen.
    fn gid(&mut self, code: Code, stats: &mut ExecStats) -> usize;
}

impl CodeGroups<u32> for DenseGroupMap {
    #[inline]
    fn num_groups(&self) -> usize {
        self.len()
    }
    #[inline]
    fn gid(&mut self, code: u32, _stats: &mut ExecStats) -> usize {
        self.get_or_insert_code(code as usize)
    }
}

impl CodeGroups<u64> for WideGroupMap {
    #[inline]
    fn num_groups(&self) -> usize {
        self.len()
    }
    #[inline]
    fn gid(&mut self, code: u64, stats: &mut ExecStats) -> usize {
        self.get_or_insert_code(code, stats)
    }
}

/// Per-worker state for one fused grouping level of the aggregate
/// operator: scan → unpack/encode → gid → scatter, with the RLE run path
/// when blocks are run-dominated. The same pipeline runs on dense codes
/// within the budget and on wide codes past it; either way group ids are
/// assigned in first-appearance order and codes are a bijection onto key
/// tuples, so the output is byte-identical to the scalar path.
pub(crate) struct FusedAgg<'a, C: FillCodes, M> {
    coder: C,
    map: M,
    srcs: Vec<LaneSrc<'a>>,
    lanes: Vec<RawLane>,
    codes: Box<[C::Code]>,
    gids: Box<[u32; BLOCK_ROWS]>,
}

impl<'a, C: FillCodes, M: CodeGroups<C::Code>> FusedAgg<'a, C, M> {
    pub(crate) fn new(coder: C, map: M, srcs: Vec<LaneSrc<'a>>) -> FusedAgg<'a, C, M> {
        let lanes = srcs.iter().map(|_| RawLane::default()).collect();
        FusedAgg {
            coder,
            map,
            srcs,
            lanes,
            codes: vec![C::Code::default(); BLOCK_ROWS].into_boxed_slice(),
            gids: Box::new([0; BLOCK_ROWS]),
        }
    }

    /// Absorb one morsel, block by block.
    pub(crate) fn absorb_morsel(&mut self, morsel: Range<usize>, stats: &mut ExecStats) {
        let mut start = morsel.start;
        while start < morsel.end {
            let len = BLOCK_ROWS.min(morsel.end - start);
            self.absorb_block(start, len, stats);
            start += len;
        }
    }

    fn absorb_block(&mut self, start: usize, len: usize, stats: &mut ExecStats) {
        let codes = &mut self.codes[..len];
        self.coder.fill_codes(start, codes);
        stats.vectorized_kernel_rows += len as u64;

        // Run-dominated blocks (sorted/clustered keys) take the RLE path:
        // one gid lookup and register-resident accumulators per run.
        let mut runs = 1usize;
        for k in 1..len {
            runs += usize::from(codes[k] != codes[k - 1]);
        }
        if runs * RLE_RUN_DIVISOR <= len {
            stats.rle_runs += runs as u64;
            let mut i = 0usize;
            while i < len {
                let code = codes[i];
                let mut j = i + 1;
                while j < len && codes[j] == code {
                    j += 1;
                }
                let g = self.map.gid(code, stats);
                for (lane, src) in self.lanes.iter_mut().zip(&self.srcs) {
                    lane.ensure(g + 1);
                    lane.accumulate_run(src, start + i..start + j, g);
                }
                i = j;
            }
            return;
        }

        let gids = &mut self.gids[..len];
        for (g, &code) in gids.iter_mut().zip(codes.iter()) {
            *g = self.map.gid(code, stats) as u32;
        }
        let n_groups = self.map.num_groups();
        for (lane, src) in self.lanes.iter_mut().zip(&self.srcs) {
            lane.ensure(n_groups);
            lane.scatter(src, start..start + len, gids);
        }
    }

    /// Collapse into the group map plus the flat `groups × lanes` [`Acc`]
    /// matrix the scalar path builds, so merge and finish are shared and
    /// keys stay codes until the output columns are built.
    pub(crate) fn into_accs(mut self, funcs: &[AggFunc]) -> (M, Vec<Acc>) {
        let n = self.map.num_groups();
        for lane in &mut self.lanes {
            lane.ensure(n);
        }
        let mut accs = Vec::with_capacity(n * funcs.len());
        for gid in 0..n {
            for (lane, &func) in self.lanes.iter().zip(funcs) {
                let (sum, count) = lane.pair(gid);
                accs.push(raw_acc(func, sum, count));
            }
        }
        (self.map, accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema, Value};

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

    #[test]
    fn block_coder_matches_code_of_row() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.0)),
            (None, Some(5), None),
            (Some("y"), None, Some(2.0)),
            (Some("x"), Some(4), Some(3.0)),
            (None, None, None),
        ]);
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        assert!(coder.pack_width() >= 1);
        let mut codes = vec![0u32; t.num_rows()];
        coder.fill(0, &mut codes);
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(code as usize, space.code_of_row(&t, row), "row {row}");
        }
    }

    #[test]
    fn block_coder_rejects_float_dims_via_space() {
        let t = table(&[(Some("x"), Some(1), Some(1.0))]);
        assert!(DenseKeySpace::try_build(&t, &[2], 1 << 20).is_none());
    }

    #[test]
    fn num_slice_agrees_with_get_f64() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.5)),
            (None, None, None),
            (Some("y"), Some(-2), Some(-0.0)),
        ]);
        for c in 1..=2 {
            let col = t.column(c);
            let slice = NumSlice::for_column(col).unwrap();
            for row in 0..t.num_rows() {
                let a = slice.get_f64(row);
                let b = col.get_f64(row);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "col {c} row {row}"
                );
            }
        }
        assert!(NumSlice::for_column(t.column(0)).is_none());
    }

    #[test]
    fn raw_acc_matches_scalar_updates() {
        // The raw lane and the Acc must agree on every func, including the
        // all-NULL (count 0) edge.
        assert_eq!(raw_acc(AggFunc::Sum, 0.0, 0).finish(), Value::Null);
        assert_eq!(raw_acc(AggFunc::Sum, 5.0, 2).finish(), Value::Float(5.0));
        assert_eq!(raw_acc(AggFunc::Avg, 6.0, 0).finish(), Value::Null);
        assert_eq!(raw_acc(AggFunc::Avg, 6.0, 3).finish(), Value::Float(2.0));
        assert_eq!(raw_acc(AggFunc::Count, 0.0, 4).finish(), Value::Int(4));
        assert_eq!(raw_acc(AggFunc::CountStar, 0.0, 7).finish(), Value::Int(7));
    }

    #[test]
    fn fused_float_sums_are_bit_identical_to_scalar_acc() {
        // The fused path must reproduce the scalar Acc updates bit for bit —
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
        let mut scalar = Acc::Sum {
            sum: 0.0,
            any: false,
        };
        for row in 0..n {
            scalar.update_f64(t.column(2).get_f64(row));
        }
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        let map = DenseGroupMap::new(space);
        let srcs = vec![LaneSrc::for_column(t.column(2)).unwrap()];
        let mut fused = FusedAgg::new(coder, map, srcs);
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        let (_map, accs) = fused.into_accs(&[AggFunc::Sum]);
        match (&accs[0], &scalar) {
            (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                assert_eq!(fa, sa);
                assert_eq!(f.to_bits(), s.to_bits(), "bit-identical sums");
            }
            _ => unreachable!(),
        }
        // All rows share one code: the block collapsed to one RLE run.
        assert_eq!(stats.rle_runs, 1);
        assert_eq!(stats.vectorized_kernel_rows, n as u64);
    }

    #[test]
    fn wide_coder_matches_code_of_row() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.0)),
            (None, Some(5), None),
            (Some("y"), None, Some(2.0)),
            (Some("x"), Some(4), Some(3.0)),
            (None, None, None),
        ]);
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let coder = WideCoder::try_new(&t, &space).unwrap();
        assert!(coder.pack_width() >= 1);
        let mut codes = vec![0u64; t.num_rows()];
        coder.fill(0, &mut codes);
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(code, space.code_of_row(&t, row), "row {row}");
        }
    }

    #[test]
    fn fused_wide_matches_scalar_hash_oracle() {
        use crate::keymap::RowKeyMap;
        // Alternating keys defeat run detection; a sorted prefix exercises
        // the run path too. Compare against the scalar hash-path oracle.
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
        let n = t.num_rows();
        // Scalar oracle: first-appearance gid order, row-order updates.
        let mut st = ExecStats::default();
        let mut oracle_map = RowKeyMap::new();
        let mut oracle: Vec<Acc> = Vec::new();
        for row in 0..n {
            let g = oracle_map.get_or_insert_row(&t, &[0, 1], row, &mut st);
            if g == oracle.len() {
                oracle.push(Acc::Sum {
                    sum: 0.0,
                    any: false,
                });
            }
            oracle[g].update_f64(t.column(2).get_f64(row));
        }
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let coder = WideCoder::try_new(&t, &space).unwrap();
        let srcs = vec![LaneSrc::for_column(t.column(2)).unwrap()];
        let mut fused = FusedAgg::new(coder, WideGroupMap::new(space), srcs);
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        assert_eq!(stats.vectorized_kernel_rows, n as u64);
        let (map, accs) = fused.into_accs(&[AggFunc::Sum]);
        assert_eq!(map.len(), oracle_map.len(), "same groups in same order");
        for (g, &code) in map.codes().iter().enumerate() {
            for d in 0..2 {
                let k = map.space().key_value(&t, code, d);
                assert!(k.key_eq(&oracle_map.keys()[g][d]), "gid {g}");
            }
            match (&accs[g], &oracle[g]) {
                (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                    assert_eq!(fa, sa, "gid {g}");
                    assert_eq!(f.to_bits(), s.to_bits(), "gid {g}");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn scatter_path_matches_run_path() {
        // Alternating keys defeat run detection; both paths must agree with
        // the scalar oracle.
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
        let n = t.num_rows();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        // Scalar oracle: first-appearance gid order, row-order updates.
        let mut oracle_map = DenseGroupMap::new(space.clone());
        let mut oracle: Vec<Acc> = Vec::new();
        for row in 0..n {
            let g = oracle_map.get_or_insert_row(&t, row);
            if g == oracle.len() {
                oracle.push(Acc::Sum {
                    sum: 0.0,
                    any: false,
                });
            }
            oracle[g].update_f64(t.column(2).get_f64(row));
        }
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        let map = DenseGroupMap::new(space);
        let srcs = vec![LaneSrc::for_column(t.column(2)).unwrap()];
        let mut fused = FusedAgg::new(coder, map, srcs);
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        assert_eq!(stats.rle_runs, 0, "alternating keys take the scatter path");
        let (map, accs) = fused.into_accs(&[AggFunc::Sum]);
        assert_eq!(map.len(), oracle_map.len(), "same groups in same order");
        for g in 0..map.len() {
            match (&accs[g], &oracle[g]) {
                (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                    assert_eq!(fa, sa, "gid {g}");
                    assert_eq!(f.to_bits(), s.to_bits(), "gid {g}");
                }
                _ => unreachable!(),
            }
        }
    }
}
