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
//! * [`LaneSrc`] / [`RawLane`] accumulate `sum`/`count` pairs straight
//!   into dense `&mut [f64]` / `&mut [i64]` slices indexed by group id — no
//!   `Option`, no `Value`, no `Acc` enum dispatch inside the loop. Worker
//!   lanes merge pair by pair, and the pairs convert to real [`Acc`]s only
//!   when a level finishes ([`raw_acc`]), so the output bytes are identical
//!   to the per-row path.
//! * Run detection switches the grouped-aggregation driver (the
//!   `grouping` module) to an RLE fast path when a code block is
//!   dominated by runs (sorted/clustered dimensions): one group lookup per
//!   run and register-resident accumulation, with counts added run-length
//!   at a time. Floating-point sums still add row by row in row order —
//!   never reassociated — which is what keeps the block path
//!   byte-identical to the per-row one.
//! * [`NumSlice`] is the same hoisting for the *scalar fallback* loops:
//!   lanes that cannot fuse still resolve their typed slices once per scan
//!   instead of re-matching the column enum per row.
//!
//! Eligibility: a grouping level codes blocks when it belongs to a root
//! whose key space took one of the code paths (dense, or wide past the
//! dense budget) and whose every key dimension reads through a packed or
//! integer vector; a level accumulates raw lanes when every lane is a
//! typed numeric `sum`/`avg`/`count`/`count(*)` kernel. Levels over float
//! keys or keys that do not pack into 64 bits code row by row; min/max,
//! holistic and expression lanes accumulate through [`Acc`]. The chosen path is recorded in
//! [`crate::ExecStats`] and on trace spans.

use crate::expr::Expr;
use crate::keymap::{DenseKeySpace, DimCoder, WideKeySpace};
use crate::ops::acc::Acc;
use crate::ops::aggregate::AggFunc;
use pa_storage::{Column, DataType, PackedCodes, Table};
use std::ops::Range;
use std::sync::Arc;

/// Rows per kernel block: the unit the block paths unpack, encode, and
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

/// One key dimension resolved to a typed reader.
enum DimReader<'a> {
    /// Dictionary dimension via the bit-packed NULL-folded slot vector.
    Packed(Arc<PackedCodes>),
    /// Integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
    },
}

/// Resolve every key dimension of `cols` (coded by `coders`) to a typed
/// reader, paired with its placement in the composite code, plus the
/// widest packed dimension. `None` when a dictionary has no packed vector.
#[allow(clippy::type_complexity)]
fn dim_readers<'a, P: Copy>(
    table: &'a Table,
    cols: &[usize],
    coders: &[DimCoder],
    places: &[P],
) -> Option<(Vec<(DimReader<'a>, P)>, u32)> {
    let mut pack_width = 0u32;
    let mut dims = Vec::with_capacity(cols.len());
    for ((&c, &coder), &place) in cols.iter().zip(coders).zip(places) {
        let reader = match (table.column(c), coder) {
            (col @ Column::Str { .. }, DimCoder::Str) => {
                let packed = Arc::clone(col.packed_slots()?);
                pack_width = pack_width.max(packed.width());
                DimReader::Packed(packed)
            }
            (Column::Int { data, validity }, DimCoder::Int { min }) => DimReader::Int {
                data,
                vwords: validity.words(),
                min,
            },
            _ => return None,
        };
        dims.push((reader, place));
    }
    Some((dims, pack_width))
}

/// Fills blocks of mixed-radix composite codes for a [`DenseKeySpace`],
/// reading every dimension through a compressed or typed vector.
pub struct BlockCoder<'a> {
    /// Each dimension's reader and radix stride.
    dims: Vec<(DimReader<'a>, u32)>,
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
        let strides: Vec<u32> = space.strides.iter().map(|&s| s as u32).collect();
        let (dims, pack_width) = dim_readers(table, space.cols(), &space.dims, &strides)?;
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
        for (dim, stride) in &self.dims {
            match dim {
                DimReader::Packed(packed) => {
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
                DimReader::Int { data, vwords, min } => {
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

/// Fills blocks of shift-packed `u64` composite codes for a
/// [`WideKeySpace`] — the same typed-slice block discipline as
/// [`BlockCoder`], for key spaces past the dense budget where codes pack
/// into bit fields instead of mixed radices.
pub struct WideCoder<'a> {
    /// Each dimension's reader and bit-field shift.
    dims: Vec<(DimReader<'a>, u32)>,
    /// Widest bit-packed dimension, for stats (`0` when no packed dim).
    pack_width: u32,
}

impl<'a> WideCoder<'a> {
    /// Build a coder for `space` over `table`. `None` when some dictionary
    /// dimension cannot be read through a packed vector — callers then keep
    /// the per-row scalar loop.
    pub fn try_new(table: &'a Table, space: &WideKeySpace) -> Option<WideCoder<'a>> {
        let (dims, pack_width) = dim_readers(table, space.cols(), &space.dims, &space.shifts)?;
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
        for (dim, shift) in &self.dims {
            match dim {
                DimReader::Packed(packed) => {
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
                DimReader::Int { data, vwords, min } => {
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

/// How one aggregate lane reads its input per row — the split the
/// grouped-aggregation driver and the pivot both make once per pass.
#[derive(Debug, Clone, Copy)]
pub enum LaneKernel {
    /// `sum`/`avg`/`count` over a plain numeric column: typed reads, no
    /// `Value` construction.
    NumericCol(usize),
    /// `count(*)`: no input read at all.
    CountStar,
    /// Everything else: evaluate the expression into a `Value`.
    Generic,
}

impl LaneKernel {
    /// Classify `func(input)` against `table`'s column types.
    pub fn classify(func: AggFunc, input: &Expr, table: &Table) -> LaneKernel {
        match (func, input) {
            (AggFunc::CountStar, _) => LaneKernel::CountStar,
            (AggFunc::Sum | AggFunc::Avg | AggFunc::Count, &Expr::Col(c))
                if c < table.num_columns()
                    && matches!(table.column(c).data_type(), DataType::Int | DataType::Float) =>
            {
                LaneKernel::NumericCol(c)
            }
            _ => LaneKernel::Generic,
        }
    }
}

/// Where one fused aggregate lane reads its input.
#[derive(Clone, Copy)]
pub enum LaneSrc<'a> {
    /// Typed numeric column.
    Col(NumSlice<'a>),
    /// `count(*)`: no input read.
    CountStar,
}

impl<'a> LaneSrc<'a> {
    /// The typed source of a classified lane over `table`; `None` for a
    /// generic lane.
    pub fn for_kernel(kernel: LaneKernel, table: &'a Table) -> Option<LaneSrc<'a>> {
        match kernel {
            LaneKernel::NumericCol(c) => NumSlice::for_column(table.column(c)).map(LaneSrc::Col),
            LaneKernel::CountStar => Some(LaneSrc::CountStar),
            LaneKernel::Generic => None,
        }
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

    /// Fold a worker's lane into this one: `ids[g]` is this lane's index
    /// for the worker's index `g`, as [`GroupMap::merge_ids`] returns it.
    /// Adding pairs is exactly the [`Acc`] merge of the converted pairs.
    ///
    /// [`GroupMap::merge_ids`]: crate::keymap::GroupMap::merge_ids
    pub fn merge_from(&mut self, other: &RawLane, ids: &[u32]) {
        for (&(sum, count), &g) in other.pairs.iter().zip(ids) {
            let p = &mut self.pairs[g as usize];
            p.0 += sum;
            p.1 += count;
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
}
