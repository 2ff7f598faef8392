//! Group-id assignment shared by aggregation, join, and DISTINCT.
//!
//! Three maps assign a dense group id to a tuple of key values:
//!
//! * [`RowKeyMap`] — the general hash path. Input rows are hashed straight
//!   from their columns (no per-row key allocation); a key tuple is
//!   materialized only once per *distinct* group. Collisions are resolved
//!   by value comparison.
//! * [`DenseKeySpace`] / [`DenseGroupMap`] — the code path. When every key
//!   column has a small enumerable domain (dictionary codes for strings, a
//!   narrow observed range for integers), keys compress to a mixed-radix
//!   *composite code* and group lookup becomes one array index — no
//!   hashing, no `Value` construction, no key comparison.
//! * [`WideKeySpace`] / [`WideGroupMap`] — the over-budget code path. The
//!   same per-dimension slots shift-pack into one `u64`, and group lookup
//!   hashes that integer. Keys stay codes from scan to output.
//!
//! [`GroupMap`] unifies the three behind one interface so operators pick
//! per input: dense when the cardinality product fits the configured
//! budget, wide when it does not but the slots pack into 64 bits, hash
//! otherwise. Every path assigns group ids in first-appearance scan order,
//! the two code paths merge worker maps by code, and both decode their key
//! columns straight from codes — which is what keeps parallel merges and
//! output byte-identical to the serial hash plan (DESIGN.md §7, §10).
//! Both code layouts derive from one per-column domain (`KeyDim`), so
//! a pass that needs both scans each key column's domain once.

use crate::stats::ExecStats;
use pa_storage::hash::FxHashMap;
use pa_storage::{Bitmap, Column, Dictionary, FxHasher, PackedCell, Table, Value};
use std::hash::Hasher;

/// Default ceiling on the composite-code space (product of per-dimension
/// radices) for the dense group path. 2^20 codes × 4-byte slot ≈ 4 MiB of
/// direct-addressed table per worker — beyond that the hash path wins.
pub const DEFAULT_DENSE_BUDGET: usize = 1 << 20;

/// Hash table from key tuples to dense group ids.
#[derive(Debug, Default)]
pub struct RowKeyMap {
    buckets: FxHashMap<u64, Vec<u32>>,
    keys: Vec<Vec<Value>>,
}

fn hash_row(table: &Table, cols: &[usize], row: usize) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        table.column(c).get(row).key_hash(&mut h);
    }
    h.finish()
}

fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.key_hash(&mut h);
    }
    h.finish()
}

fn row_matches(table: &Table, cols: &[usize], row: usize, key: &[Value]) -> bool {
    cols.iter()
        .zip(key)
        .all(|(&c, v)| table.column(c).get(row).key_eq(v))
}

impl RowKeyMap {
    /// Empty map.
    pub fn new() -> RowKeyMap {
        RowKeyMap::default()
    }

    /// Empty map pre-sized for roughly `capacity` distinct groups.
    pub fn with_capacity(capacity: usize) -> RowKeyMap {
        RowKeyMap {
            buckets: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key tuples, indexed by group id.
    pub fn keys(&self) -> &[Vec<Value>] {
        &self.keys
    }

    /// Consume the map, yielding the key tuples in group-id order. Used by
    /// the parallel merge to fold a worker's partial groups into the global
    /// map without cloning every key.
    pub fn into_keys(self) -> Vec<Vec<Value>> {
        self.keys
    }

    /// Group id for the key formed by `cols` of `table[row]`, inserting a
    /// new group when unseen.
    pub fn get_or_insert_row(
        &mut self,
        table: &Table,
        cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> usize {
        stats.hash_probes += 1;
        let h = hash_row(table, cols, row);
        let bucket = self.buckets.entry(h).or_default();
        for &gid in bucket.iter() {
            if row_matches(table, cols, row, &self.keys[gid as usize]) {
                return gid as usize;
            }
        }
        let gid = self.keys.len() as u32;
        let key: Vec<Value> = cols.iter().map(|&c| table.column(c).get(row)).collect();
        self.keys.push(key);
        bucket.push(gid);
        stats.hash_build_rows += 1;
        gid as usize
    }

    /// Group id for an existing key formed from a row, without inserting.
    pub fn lookup_row(
        &self,
        table: &Table,
        cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> Option<usize> {
        stats.hash_probes += 1;
        let h = hash_row(table, cols, row);
        self.buckets.get(&h).and_then(|bucket| {
            bucket
                .iter()
                .find(|&&gid| row_matches(table, cols, row, &self.keys[gid as usize]))
                .map(|&gid| gid as usize)
        })
    }

    /// Group id for an explicit key tuple, without inserting.
    pub fn lookup_key(&self, key: &[Value], stats: &mut ExecStats) -> Option<usize> {
        stats.hash_probes += 1;
        let h = hash_key(key);
        self.buckets.get(&h).and_then(|bucket| {
            bucket
                .iter()
                .find(|&&gid| {
                    self.keys[gid as usize]
                        .iter()
                        .zip(key)
                        .all(|(a, b)| a.key_eq(b))
                })
                .map(|&gid| gid as usize)
        })
    }

    /// Group id for an explicit key tuple, inserting when unseen.
    pub fn get_or_insert_key(&mut self, key: &[Value], stats: &mut ExecStats) -> usize {
        stats.hash_probes += 1;
        let h = hash_key(key);
        let bucket = self.buckets.entry(h).or_default();
        for &gid in bucket.iter() {
            if self.keys[gid as usize]
                .iter()
                .zip(key)
                .all(|(a, b)| a.key_eq(b))
            {
                return gid as usize;
            }
        }
        let gid = self.keys.len() as u32;
        self.keys.push(key.to_vec());
        bucket.push(gid);
        stats.hash_build_rows += 1;
        gid as usize
    }
}

// ---- dense (code-path) grouping ------------------------------------------

/// How one key dimension maps to a slot in `0..radix`. Slot 0 is always the
/// NULL slot, so NULL groups exactly like the hash path's `key_eq`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DimCoder {
    /// Dictionary-encoded string column: slot = code + 1.
    Str,
    /// Integer column with observed range `[min, min + radix - 2]`:
    /// slot = value - min + 1.
    Int {
        /// Smallest non-NULL value observed at build time.
        min: i64,
    },
}

impl DimCoder {
    /// Slot of `column[row]` (0 = NULL) — the digit both code layouts use.
    #[inline]
    fn slot_of_row(self, column: &Column, row: usize) -> u64 {
        match (column, self) {
            (
                Column::Str {
                    codes, validity, ..
                },
                DimCoder::Str,
            ) => u64::from(validity.get(row)) * (codes[row] as u64 + 1),
            (Column::Int { data, validity }, DimCoder::Int { min }) => {
                u64::from(validity.get(row)) * data[row].wrapping_sub(min).wrapping_add(1) as u64
            }
            _ => unreachable!("column type changed under a built key space"),
        }
    }

    /// The key value of `slot` (0 = NULL) of the `column` this dimension
    /// codes.
    fn value_of_slot(self, column: &Column, slot: u64) -> Value {
        if slot == 0 {
            return Value::Null;
        }
        match (self, column) {
            (DimCoder::Str, Column::Str { dict, .. }) => {
                Value::Str(dict.resolve((slot - 1) as u32).clone())
            }
            (DimCoder::Int { min }, _) => Value::Int(min.wrapping_add((slot - 1) as i64)),
            _ => unreachable!("column type changed under a built key space"),
        }
    }

    /// Build one output key column from per-group slots (0 = NULL) of the
    /// `input` column this dimension codes. Integers decode to
    /// `min + slot - 1`; strings remap input dictionary codes through a
    /// first-sight table, so the output dictionary interns in group order —
    /// exactly the column `Column::push(Value)` would build, without a
    /// `Value` or a string hash per group.
    fn key_column(self, input: &Column, slots: impl ExactSizeIterator<Item = u64>) -> Column {
        let mut validity = Bitmap::with_capacity(slots.len());
        match (self, input) {
            (DimCoder::Int { min }, Column::Int { .. }) => {
                let mut data = Vec::with_capacity(slots.len());
                for slot in slots {
                    validity.push(slot != 0);
                    data.push(if slot == 0 {
                        0
                    } else {
                        min.wrapping_add((slot - 1) as i64)
                    });
                }
                Column::Int { data, validity }
            }
            (DimCoder::Str, Column::Str { dict: input, .. }) => {
                let mut dict = Dictionary::new();
                // Output code + 1 per input code; 0 = not seen yet.
                let mut remap = vec![0u32; input.len()];
                let mut codes = Vec::with_capacity(slots.len());
                for slot in slots {
                    validity.push(slot != 0);
                    codes.push(if slot == 0 {
                        0
                    } else {
                        let code = (slot - 1) as u32;
                        let out = &mut remap[code as usize];
                        if *out == 0 {
                            *out = dict.intern_arc(input.resolve(code)) + 1;
                        }
                        *out - 1
                    });
                }
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed: PackedCell::new(),
                }
            }
            _ => unreachable!("column type changed under a built key space"),
        }
    }
}

/// One key column's domain: its slot coder and radix (slot count, the
/// NULL slot included). The dense and the wide layouts both derive from
/// it, so a column's domain is scanned once however many levels and
/// layouts use it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyDim {
    pub(crate) coder: DimCoder,
    pub(crate) radix: u64,
}

impl KeyDim {
    fn new(coder: DimCoder, radix: u64) -> KeyDim {
        KeyDim { coder, radix }
    }

    /// The domain of `column`: the dictionary for strings, the observed
    /// `[min, max]` range (one O(n) pass) for integers. `None` for `Float`
    /// columns (unbounded domain) and integer ranges that overflow.
    pub(crate) fn scan(column: &Column) -> Option<KeyDim> {
        match column {
            Column::Str { dict, .. } => Some(KeyDim::new(DimCoder::Str, dict.len() as u64 + 1)),
            Column::Int { data, validity } => {
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                for (i, &v) in data.iter().enumerate() {
                    if validity.get(i) {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                if min > max {
                    // All-NULL dimension: only the NULL slot.
                    return Some(KeyDim::new(DimCoder::Int { min: 0 }, 1));
                }
                let span = u64::try_from(max.checked_sub(min)?).ok()?;
                Some(KeyDim::new(DimCoder::Int { min }, span.checked_add(2)?))
            }
            Column::Float { .. } => None,
        }
    }

    /// The domains of `cols` of `table`, `None` when any column has none.
    fn scan_all(table: &Table, cols: &[usize]) -> Option<Vec<KeyDim>> {
        cols.iter()
            .map(|&c| KeyDim::scan(table.column(c)))
            .collect()
    }
}

/// Mixed-radix composite-code space over a tuple of key columns.
///
/// Each dimension contributes a slot in `0..radix_d` (0 = NULL); the
/// composite code is `Σ slot_d × stride_d`, a bijection between key tuples
/// and `0..size()`. Built against one immutable table snapshot: the
/// per-dimension domains (dictionary size, integer range) are fixed at
/// build time, so every row of that snapshot encodes in range.
#[derive(Debug, Clone)]
pub struct DenseKeySpace {
    cols: Vec<usize>,
    pub(crate) dims: Vec<DimCoder>,
    radices: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    size: usize,
}

impl DenseKeySpace {
    /// Try to build a code space for `cols` of `table` whose size stays
    /// within `budget` codes. Returns `None` — callers fall back to the
    /// hash path — when the key is empty, the budget is 0 (dense path
    /// disabled), any column is `Float` (unbounded domain), or the
    /// cardinality product overflows the budget.
    pub fn try_build(table: &Table, cols: &[usize], budget: usize) -> Option<DenseKeySpace> {
        if cols.is_empty() {
            return None;
        }
        let dims = KeyDim::scan_all(table, cols)?;
        DenseKeySpace::from_dims(cols, &dims, budget)
    }

    /// The dense layout of already-scanned key domains (`dims[d]` is the
    /// domain of `cols[d]`): `None` when the budget is 0 or the radix
    /// product exceeds it. An empty key is the one-code space of a global
    /// aggregate.
    pub(crate) fn from_dims(
        cols: &[usize],
        dims: &[KeyDim],
        budget: usize,
    ) -> Option<DenseKeySpace> {
        if budget == 0 {
            return None;
        }
        let mut radices = Vec::with_capacity(dims.len());
        let mut strides = Vec::with_capacity(dims.len());
        let mut size = 1usize;
        for dim in dims {
            let radix = usize::try_from(dim.radix).ok()?;
            strides.push(size);
            radices.push(radix);
            size = size.checked_mul(radix)?;
            if size > budget {
                return None;
            }
        }
        Some(DenseKeySpace {
            cols: cols.to_vec(),
            dims: dims.iter().map(|d| d.coder).collect(),
            radices,
            strides,
            size,
        })
    }

    /// Number of addressable composite codes (product of radices).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Key columns the space encodes, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Per-dimension radices (slot counts, each including the NULL slot).
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// The sub-space over a subset of this space's dimensions (`dims` are
    /// positions into this space's key order). The projected space reuses
    /// the parent's per-dimension coders and radices — it is exactly the
    /// space [`DenseKeySpace::try_build`] would build for those columns on
    /// the same table snapshot, so a composite code in the parent projects
    /// to the child by pure digit arithmetic, no rescan of the domains.
    pub fn project(&self, dims: &[usize]) -> DenseKeySpace {
        let cols: Vec<usize> = dims.iter().map(|&d| self.cols[d]).collect();
        let keys: Vec<KeyDim> = dims
            .iter()
            .map(|&d| KeyDim::new(self.dims[d], self.radices[d] as u64))
            .collect();
        DenseKeySpace::from_dims(&cols, &keys, self.size).expect("a sub-space fits its space")
    }

    /// Radix-projection jump table onto the sub-space over `dims` (as built
    /// by [`DenseKeySpace::project`]): `table[code]` is the child code of
    /// every parent code — `Σ_d digit_d(code) × child_stride_d`. One `u32`
    /// per parent code; the dense budget keeps `size()` far under
    /// `u32::MAX`, so the cast never truncates. The table is filled in code
    /// order by an odometer over the parent digits — one add per code plus
    /// a carry now and then, no division.
    pub fn projection_table(&self, dims: &[usize], child: &DenseKeySpace) -> Vec<u32> {
        debug_assert_eq!(dims.len(), child.strides.len());
        // What one step of each parent digit adds to the child code.
        let mut weight = vec![0usize; self.radices.len()];
        for (j, &d) in dims.iter().enumerate() {
            weight[d] += child.strides[j];
        }
        let mut digits = vec![0usize; self.radices.len()];
        let mut child_code = 0usize;
        let mut table = Vec::with_capacity(self.size);
        for _ in 0..self.size {
            table.push(child_code as u32);
            for (d, digit) in digits.iter_mut().enumerate() {
                *digit += 1;
                child_code += weight[d];
                if *digit < self.radices[d] {
                    break;
                }
                child_code -= weight[d] * self.radices[d];
                *digit = 0;
            }
        }
        table
    }

    /// Composite code of one row of the table the space was built on.
    #[inline]
    pub fn code_of_row(&self, table: &Table, row: usize) -> usize {
        let mut code = 0;
        for (d, &c) in self.cols.iter().enumerate() {
            code += self.dims[d].slot_of_row(table.column(c), row) as usize * self.strides[d];
        }
        code
    }

    /// Composite code of an explicit key tuple, or `None` when some value
    /// lies outside the encoded domain (it then matches no row of the
    /// table, because the domains cover every value the table holds).
    pub fn code_of_key(&self, table: &Table, key: &[Value]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.cols.len());
        let mut code = 0;
        for (d, v) in key.iter().enumerate() {
            let slot = match (v, self.dims[d]) {
                (Value::Null, _) => 0,
                (Value::Str(s), DimCoder::Str) => {
                    let Column::Str { dict, .. } = table.column(self.cols[d]) else {
                        return None;
                    };
                    dict.code_of(s)? as usize + 1
                }
                (Value::Int(i), DimCoder::Int { min }) => {
                    let slot = usize::try_from(i.checked_sub(min)?).ok()? + 1;
                    if slot >= self.radices[d] {
                        return None;
                    }
                    slot
                }
                _ => return None,
            };
            code += slot * self.strides[d];
        }
        Some(code)
    }

    /// Slot (0 = NULL) of dimension `d` in a composite code.
    #[inline]
    fn slot(&self, code: usize, d: usize) -> usize {
        (code / self.strides[d]) % self.radices[d]
    }

    /// Decode dimension `d` of a composite code back into its key value.
    pub fn key_value(&self, table: &Table, code: usize, d: usize) -> Value {
        let slot = self.slot(code, d) as u64;
        self.dims[d].value_of_slot(table.column(self.cols[d]), slot)
    }
}

/// Direct-addressed group-id map over a [`DenseKeySpace`]: `code → gid` is
/// one array index. Group ids are assigned in first-appearance order, same
/// as [`RowKeyMap`], so the two paths produce byte-identical output.
#[derive(Debug)]
pub struct DenseGroupMap {
    space: DenseKeySpace,
    /// `u32::MAX` marks an unseen code (the space fits 2^20 ≪ u32::MAX).
    code_to_gid: Vec<u32>,
    /// Composite code per group id, in first-appearance order.
    gid_to_code: Vec<u32>,
}

impl DenseGroupMap {
    /// Empty map over `space`.
    pub fn new(space: DenseKeySpace) -> DenseGroupMap {
        DenseGroupMap {
            code_to_gid: vec![u32::MAX; space.size()],
            gid_to_code: Vec::new(),
            space,
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.gid_to_code.len()
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.gid_to_code.is_empty()
    }

    /// The code space this map addresses.
    pub fn space(&self) -> &DenseKeySpace {
        &self.space
    }

    /// Composite code per group id, in first-appearance order.
    pub fn codes(&self) -> &[u32] {
        &self.gid_to_code
    }

    /// Group id for a composite code, inserting a new group when unseen.
    #[inline]
    pub fn get_or_insert_code(&mut self, code: usize) -> usize {
        let gid = self.code_to_gid[code];
        if gid != u32::MAX {
            return gid as usize;
        }
        let gid = self.gid_to_code.len() as u32;
        self.code_to_gid[code] = gid;
        self.gid_to_code.push(code as u32);
        gid as usize
    }

    /// Group id for the key formed by the space's columns of `table[row]`,
    /// inserting a new group when unseen.
    #[inline]
    pub fn get_or_insert_row(&mut self, table: &Table, row: usize) -> usize {
        let code = self.space.code_of_row(table, row);
        self.get_or_insert_code(code)
    }
}

// ---- wide (shift-packed) codes for the over-budget hash path -------------

/// Shift-packed composite-code space over a tuple of key columns whose
/// per-dimension bit widths sum to at most 64 — the over-budget companion
/// to [`DenseKeySpace`]. Where the dense space multiplies mixed radices and
/// direct-addresses an array, the wide space packs each dimension's slot
/// into its own bit field of one `u64`: the packing is still a bijection
/// (slot 0 = NULL, same per-dimension coders), so group lookup hashes one
/// integer instead of a key tuple, codes compare exactly (no collisions to
/// resolve), and a coarser level projects by mask-and-shift arithmetic.
/// There is no size budget — a 2^40-code space costs nothing until codes
/// are actually observed, because the group map behind it is a hash table.
#[derive(Debug, Clone)]
pub struct WideKeySpace {
    cols: Vec<usize>,
    pub(crate) dims: Vec<DimCoder>,
    radices: Vec<u64>,
    pub(crate) shifts: Vec<u32>,
    widths: Vec<u32>,
}

impl WideKeySpace {
    /// Try to build a shift-packed code space for `cols` of `table`.
    /// Returns `None` — callers fall back to tuple hashing — when the key
    /// is empty, any column is `Float` (unbounded domain), an integer range
    /// does not fit, or the per-dimension widths overflow 64 bits.
    pub fn try_build(table: &Table, cols: &[usize]) -> Option<WideKeySpace> {
        if cols.is_empty() {
            return None;
        }
        let dims = KeyDim::scan_all(table, cols)?;
        WideKeySpace::from_dims(cols, &dims)
    }

    /// The shift-packed layout of already-scanned key domains (`dims[d]`
    /// is the domain of `cols[d]`): `None` when the widths overflow 64
    /// bits.
    pub(crate) fn from_dims(cols: &[usize], dims: &[KeyDim]) -> Option<WideKeySpace> {
        let mut shifts = Vec::with_capacity(dims.len());
        let mut widths = Vec::with_capacity(dims.len());
        let mut used = 0u32;
        for dim in dims {
            let width = 64 - (dim.radix - 1).leading_zeros();
            if used.checked_add(width)? > 64 {
                return None;
            }
            shifts.push(used);
            widths.push(width);
            used += width;
        }
        Some(WideKeySpace {
            cols: cols.to_vec(),
            dims: dims.iter().map(|d| d.coder).collect(),
            radices: dims.iter().map(|d| d.radix).collect(),
            shifts,
            widths,
        })
    }

    /// Key columns the space encodes, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Shift-packed code of one row of the table the space was built on.
    #[inline]
    pub fn code_of_row(&self, table: &Table, row: usize) -> u64 {
        let mut code = 0u64;
        for (d, &c) in self.cols.iter().enumerate() {
            code |= self.dims[d].slot_of_row(table.column(c), row) << self.shifts[d];
        }
        code
    }

    /// Slot (0 = NULL) of dimension `d` in a shift-packed code.
    #[inline]
    fn slot(&self, code: u64, d: usize) -> u64 {
        match self.widths[d] {
            0 => 0,
            width => (code >> self.shifts[d]) & (u64::MAX >> (64 - width)),
        }
    }

    /// Decode dimension `d` of a shift-packed code back into its key value.
    pub fn key_value(&self, table: &Table, code: u64, d: usize) -> Value {
        self.dims[d].value_of_slot(table.column(self.cols[d]), self.slot(code, d))
    }

    /// The sub-space over a subset of this space's dimensions, with its bit
    /// fields re-packed contiguously from bit 0 — exactly the space
    /// [`WideKeySpace::try_build`] would build for those columns.
    pub fn project(&self, dims: &[usize]) -> WideKeySpace {
        let cols: Vec<usize> = dims.iter().map(|&d| self.cols[d]).collect();
        let keys: Vec<KeyDim> = dims
            .iter()
            .map(|&d| KeyDim::new(self.dims[d], self.radices[d]))
            .collect();
        WideKeySpace::from_dims(&cols, &keys).expect("a sub-space packs like its space")
    }

    /// Mask-and-shift projector from this space's codes onto the sub-space
    /// over `dims` (as built by [`WideKeySpace::project`]) — the wide
    /// counterpart of the dense path's radix jump table, with no table to
    /// materialize because bit fields move instead of digits.
    pub fn projector(&self, dims: &[usize], child: &WideKeySpace) -> WideProjector {
        let muls: Vec<u64> = child.shifts.iter().map(|&s| 1u64 << s).collect();
        self.field_projector(dims, &muls)
    }

    /// Projector from this space's codes onto the **dense** space over
    /// `dims`: each kept slot moves from its bit field to its mixed-radix
    /// digit. Dense and wide codes number slots alike (0 = NULL), so a
    /// level within the dense budget groups on direct-addressed codes even
    /// under a wide root.
    pub(crate) fn dense_projector(&self, dims: &[usize], child: &DenseKeySpace) -> WideProjector {
        let muls: Vec<u64> = child.strides.iter().map(|&s| s as u64).collect();
        self.field_projector(dims, &muls)
    }

    fn field_projector(&self, dims: &[usize], muls: &[u64]) -> WideProjector {
        debug_assert_eq!(dims.len(), muls.len());
        let steps = dims
            .iter()
            .zip(muls)
            .filter(|(&d, _)| self.widths[d] > 0)
            .map(|(&d, &mul)| {
                let mask = u64::MAX >> (64 - self.widths[d]);
                (self.shifts[d], mask, mul)
            })
            .collect();
        WideProjector { steps }
    }
}

/// Projects a [`WideKeySpace`] code onto a sub-space: each step extracts
/// one dimension's bit field and scales it to its place in the child code
/// (a shift for a wide child, a radix stride for a dense one). With no
/// steps it maps every code to 0, the one code of a global level.
#[derive(Debug, Clone, Default)]
pub struct WideProjector {
    /// `(source shift, field mask, child multiplier)` per kept dimension.
    steps: Vec<(u32, u64, u64)>,
}

impl WideProjector {
    /// The child code of `code`.
    #[inline]
    pub fn project(&self, code: u64) -> u64 {
        let mut out = 0u64;
        for &(src, mask, mul) in &self.steps {
            out += ((code >> src) & mask) * mul;
        }
        out
    }
}

/// Hashed group-id map over a [`WideKeySpace`]: `code → gid` is one
/// integer hash probe — the over-budget counterpart of [`DenseGroupMap`].
/// Codes compare exactly, so there are no collisions to resolve, and group
/// ids are assigned in first-appearance order like every other map.
#[derive(Debug)]
pub struct WideGroupMap {
    space: WideKeySpace,
    code_to_gid: FxHashMap<u64, u32>,
    /// Shift-packed code per group id, in first-appearance order.
    gid_to_code: Vec<u64>,
}

impl WideGroupMap {
    /// Empty map over `space`.
    pub fn new(space: WideKeySpace) -> WideGroupMap {
        WideGroupMap {
            space,
            code_to_gid: FxHashMap::default(),
            gid_to_code: Vec::new(),
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.gid_to_code.len()
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.gid_to_code.is_empty()
    }

    /// The code space this map addresses.
    pub fn space(&self) -> &WideKeySpace {
        &self.space
    }

    /// Shift-packed code per group id, in first-appearance order.
    pub fn codes(&self) -> &[u64] {
        &self.gid_to_code
    }

    /// Group id for a shift-packed code, inserting a new group when unseen.
    /// Counts one hash probe, plus one build row per new group.
    #[inline]
    pub fn get_or_insert_code(&mut self, code: u64, stats: &mut ExecStats) -> usize {
        stats.hash_probes += 1;
        match self.code_to_gid.entry(code) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get() as usize,
            std::collections::hash_map::Entry::Vacant(e) => {
                let gid = self.gid_to_code.len() as u32;
                e.insert(gid);
                self.gid_to_code.push(code);
                stats.hash_build_rows += 1;
                gid as usize
            }
        }
    }

    /// Group id for the key formed by the space's columns of `table[row]`,
    /// inserting a new group when unseen.
    #[inline]
    pub fn get_or_insert_row(&mut self, table: &Table, row: usize, stats: &mut ExecStats) -> usize {
        let code = self.space.code_of_row(table, row);
        self.get_or_insert_code(code, stats)
    }
}

/// Group-id assignment behind any of the three paths. Operators pick the
/// variant per input; everything downstream (scan, merge, materialization)
/// is path-agnostic and byte-identical across paths.
#[derive(Debug)]
pub enum GroupMap {
    /// General hash path ([`RowKeyMap`]).
    Hash(RowKeyMap),
    /// Direct-addressed code path ([`DenseGroupMap`]).
    Dense(DenseGroupMap),
    /// Hashed shift-packed code path ([`WideGroupMap`]).
    Wide(WideGroupMap),
}

impl GroupMap {
    /// Dense map over `space` when one was built, hash map otherwise.
    pub fn for_space(space: Option<DenseKeySpace>) -> GroupMap {
        match space {
            Some(space) => GroupMap::Dense(DenseGroupMap::new(space)),
            None => GroupMap::Hash(RowKeyMap::new()),
        }
    }

    /// Choose the group path for `cols` of `table` under `budget`.
    pub fn choose(table: &Table, cols: &[usize], budget: usize) -> GroupMap {
        GroupMap::for_space(DenseKeySpace::try_build(table, cols, budget))
    }

    /// `"dense"`, `"wide"` or `"hash"` — for stats and bench artifacts.
    pub fn path(&self) -> &'static str {
        match self {
            GroupMap::Hash(_) => "hash",
            GroupMap::Dense(_) => "dense",
            GroupMap::Wide(_) => "wide",
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        match self {
            GroupMap::Hash(m) => m.len(),
            GroupMap::Dense(m) => m.len(),
            GroupMap::Wide(m) => m.len(),
        }
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group id for the key formed by `cols` of `table[row]`, inserting a
    /// new group when unseen. `cols` must be the columns the map was chosen
    /// for (the code paths encode their own column list).
    #[inline]
    pub fn get_or_insert_row(
        &mut self,
        table: &Table,
        cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> usize {
        match self {
            GroupMap::Hash(m) => m.get_or_insert_row(table, cols, row, stats),
            GroupMap::Dense(m) => m.get_or_insert_row(table, row),
            GroupMap::Wide(m) => m.get_or_insert_row(table, row, stats),
        }
    }

    /// Group ids for a block of composite codes, inserting unseen codes in
    /// block order. Code paths only; the path is matched once per block.
    pub(crate) fn get_or_insert_codes<C: Copy + Into<u64>>(
        &mut self,
        codes: &[C],
        gids: &mut [u32],
        stats: &mut ExecStats,
    ) {
        match self {
            GroupMap::Dense(m) => {
                for (g, &code) in gids.iter_mut().zip(codes) {
                    *g = m.get_or_insert_code(code.into() as usize) as u32;
                }
            }
            GroupMap::Wide(m) => {
                for (g, &code) in gids.iter_mut().zip(codes) {
                    *g = m.get_or_insert_code(code.into(), stats) as u32;
                }
            }
            GroupMap::Hash(_) => unreachable!("hash levels group row by row"),
        }
    }

    /// Consume the map into its key tuples in group-id order: stored keys
    /// on the hash path, decoded from codes on the code paths. `table`
    /// must be the input the map was built over.
    pub(crate) fn into_key_rows(self, table: &Table) -> Vec<Vec<Value>> {
        fn decode<C: Copy>(
            codes: &[C],
            arity: usize,
            key: impl Fn(C, usize) -> Value,
        ) -> Vec<Vec<Value>> {
            codes
                .iter()
                .map(|&c| (0..arity).map(|d| key(c, d)).collect())
                .collect()
        }
        match self {
            GroupMap::Hash(m) => m.into_keys(),
            GroupMap::Dense(m) => decode(&m.gid_to_code, m.space.cols.len(), |c, d| {
                m.space.key_value(table, c as usize, d)
            }),
            GroupMap::Wide(m) => decode(&m.gid_to_code, m.space.cols.len(), |c, d| {
                m.space.key_value(table, c, d)
            }),
        }
    }

    /// Group id for an explicit key tuple, inserting when unseen. Only the
    /// hash path supports explicit keys (the pivot seeds its global group
    /// this way).
    pub fn get_or_insert_key(&mut self, key: &[Value], stats: &mut ExecStats) -> usize {
        match self {
            GroupMap::Hash(m) => m.get_or_insert_key(key, stats),
            GroupMap::Dense(_) | GroupMap::Wide(_) => {
                unreachable!("explicit keys require the hash group path")
            }
        }
    }

    /// Fold another map's groups into this one, returning this map's group
    /// id for each of `other`'s group ids (in `other`'s id order). Unseen
    /// groups are appended in `other`'s first-appearance order — the
    /// deterministic worker-order merge both aggregation operators rely on.
    /// The code paths fold by code, never decoding a key.
    pub fn merge_ids(&mut self, other: GroupMap, stats: &mut ExecStats) -> Vec<u32> {
        match (self, other) {
            (GroupMap::Hash(dst), GroupMap::Hash(src)) => src
                .into_keys()
                .iter()
                .map(|key| dst.get_or_insert_key(key, stats) as u32)
                .collect(),
            (GroupMap::Dense(dst), GroupMap::Dense(src)) => src
                .gid_to_code
                .iter()
                .map(|&code| dst.get_or_insert_code(code as usize) as u32)
                .collect(),
            (GroupMap::Wide(dst), GroupMap::Wide(src)) => src
                .gid_to_code
                .iter()
                .map(|&code| dst.get_or_insert_code(code, stats) as u32)
                .collect(),
            _ => unreachable!("worker partials always share one group path"),
        }
    }

    /// Materialize the key columns, one [`Column`] per key dimension with
    /// one entry per group id — the output layout. The code paths decode
    /// typed columns straight from their codes; the hash path copies its
    /// stored keys. `table`/`cols` must be the input the map was built over.
    pub fn build_key_columns(
        &self,
        table: &Table,
        cols: &[usize],
    ) -> crate::error::Result<Vec<Column>> {
        Ok(match self {
            GroupMap::Hash(m) => {
                let mut out = Vec::with_capacity(cols.len());
                for (d, &c) in cols.iter().enumerate() {
                    let mut col = Column::new(table.column(c).data_type());
                    for key in m.keys() {
                        col.push(key[d].clone())?;
                    }
                    out.push(col);
                }
                out
            }
            GroupMap::Dense(m) => (0..cols.len())
                .map(|d| {
                    let slots = m.gid_to_code.iter();
                    let slots = slots.map(|&code| m.space.slot(code as usize, d) as u64);
                    m.space.dims[d].key_column(table.column(m.space.cols[d]), slots)
                })
                .collect(),
            GroupMap::Wide(m) => (0..cols.len())
                .map(|d| {
                    let slots = m.gid_to_code.iter().map(|&code| m.space.slot(code, d));
                    m.space.dims[d].key_column(table.column(m.space.cols[d]), slots)
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("x", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (s, x) in [("CA", 1), ("TX", 2), ("CA", 3), ("TX", 4), ("CA", 5)] {
            t.push_row(&[Value::str(s), Value::Int(x)]).unwrap();
        }
        t
    }

    #[test]
    fn assigns_dense_group_ids() {
        let t = table();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let gids: Vec<usize> = (0..5)
            .map(|r| m.get_or_insert_row(&t, &[0], r, &mut st))
            .collect();
        assert_eq!(gids, vec![0, 1, 0, 1, 0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.keys()[0], vec![Value::str("CA")]);
        assert_eq!(st.hash_probes, 5);
        assert_eq!(st.hash_build_rows, 2);
    }

    #[test]
    fn lookup_row_and_key_agree() {
        let t = table();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        for r in 0..5 {
            m.get_or_insert_row(&t, &[0], r, &mut st);
        }
        assert_eq!(m.lookup_row(&t, &[0], 1, &mut st), Some(1));
        assert_eq!(m.lookup_key(&[Value::str("TX")], &mut st), Some(1));
        assert_eq!(m.lookup_key(&[Value::str("NY")], &mut st), None);
    }

    #[test]
    fn composite_keys_with_nulls() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        t.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        t.push_row(&[Value::Int(1), Value::Null]).unwrap();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let g0 = m.get_or_insert_row(&t, &[0, 1], 0, &mut st);
        let g1 = m.get_or_insert_row(&t, &[0, 1], 1, &mut st);
        let g2 = m.get_or_insert_row(&t, &[0, 1], 2, &mut st);
        assert_eq!(g0, g1, "NULL groups together");
        assert_ne!(g0, g2);
    }

    #[test]
    fn get_or_insert_key_round_trip() {
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let a = m.get_or_insert_key(&[Value::Int(1), Value::str("x")], &mut st);
        let b = m.get_or_insert_key(&[Value::Int(1), Value::str("x")], &mut st);
        let c = m.get_or_insert_key(&[Value::Int(2), Value::str("x")], &mut st);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.len(), 2);
    }

    /// Str × Int table with NULLs in both key dimensions.
    fn mixed_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("d", DataType::Int),
            ("f", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d) in [
            (Some("CA"), Some(10)),
            (Some("TX"), Some(12)),
            (None, Some(10)),
            (Some("CA"), None),
            (Some("CA"), Some(10)),
            (None, Some(10)),
        ] {
            t.push_row(&[
                s.map_or(Value::Null, Value::str),
                d.map_or(Value::Null, Value::Int),
                Value::Float(1.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn dense_space_respects_budget_and_column_types() {
        let t = mixed_table();
        // s: 2 dict values + NULL = 3; d: range 10..=12 + NULL = 4.
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        assert_eq!(space.size(), 12);
        // A budget below the product forces the hash fallback.
        assert!(DenseKeySpace::try_build(&t, &[0, 1], 11).is_none());
        assert!(DenseKeySpace::try_build(&t, &[0, 1], 0).is_none());
        // Float columns never dense-encode.
        assert!(DenseKeySpace::try_build(&t, &[2], 1 << 20).is_none());
        assert!(DenseKeySpace::try_build(&t, &[], 1 << 20).is_none());
    }

    #[test]
    fn dense_gids_match_hash_gids_in_scan_order() {
        let t = mixed_table();
        let mut hash = RowKeyMap::new();
        let mut dense = DenseGroupMap::new(DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap());
        let mut st = ExecStats::default();
        for row in 0..t.num_rows() {
            let h = hash.get_or_insert_row(&t, &[0, 1], row, &mut st);
            let d = dense.get_or_insert_row(&t, row);
            assert_eq!(h, d, "row {row}");
        }
        assert_eq!(hash.len(), dense.len());
    }

    #[test]
    fn dense_codes_round_trip_through_key_values() {
        let t = mixed_table();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        for row in 0..t.num_rows() {
            let code = space.code_of_row(&t, row);
            assert!(code < space.size());
            let key: Vec<Value> = (0..2).map(|d| space.key_value(&t, code, d)).collect();
            assert!(key[0].key_eq(&t.get(row, 0)), "row {row}");
            assert!(key[1].key_eq(&t.get(row, 1)), "row {row}");
            assert_eq!(space.code_of_key(&t, &key), Some(code));
        }
        // Out-of-domain keys are rejected, not mis-encoded.
        assert_eq!(
            space.code_of_key(&t, &[Value::str("NV"), Value::Int(10)]),
            None
        );
        assert_eq!(
            space.code_of_key(&t, &[Value::str("CA"), Value::Int(99)]),
            None
        );
    }

    #[test]
    fn group_map_merge_ids_agrees_across_paths() {
        let t = mixed_table();
        let mut st = ExecStats::default();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        // Worker 0 sees rows 0..3, worker 1 rows 3..6; merge in worker order.
        let run = |mut maps: Vec<GroupMap>, st: &mut ExecStats| -> (Vec<u32>, usize) {
            for row in 0..3 {
                maps[0].get_or_insert_row(&t, &[0, 1], row, st);
            }
            for row in 3..6 {
                maps[1].get_or_insert_row(&t, &[0, 1], row, st);
            }
            let w1 = maps.pop().unwrap();
            let mut global = maps.pop().unwrap();
            let ids = global.merge_ids(w1, st);
            (ids, global.len())
        };
        let (hash_ids, hash_len) = run(
            vec![
                GroupMap::Hash(RowKeyMap::new()),
                GroupMap::Hash(RowKeyMap::new()),
            ],
            &mut st,
        );
        let (dense_ids, dense_len) = run(
            vec![
                GroupMap::Dense(DenseGroupMap::new(space.clone())),
                GroupMap::Dense(DenseGroupMap::new(space)),
            ],
            &mut st,
        );
        let wide = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let (wide_ids, wide_len) = run(
            vec![
                GroupMap::Wide(WideGroupMap::new(wide.clone())),
                GroupMap::Wide(WideGroupMap::new(wide)),
            ],
            &mut st,
        );
        assert_eq!(hash_ids, dense_ids);
        assert_eq!(hash_len, dense_len);
        assert_eq!(hash_ids, wide_ids);
        assert_eq!(hash_len, wide_len);
    }

    #[test]
    fn dense_projection_matches_direct_build() {
        let t = mixed_table();
        let root = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        for dims in [vec![0usize], vec![1], vec![0, 1]] {
            let child = root.project(&dims);
            let cols: Vec<usize> = dims.iter().map(|&d| root.cols()[d]).collect();
            let direct = DenseKeySpace::try_build(&t, &cols, 1 << 20).unwrap();
            assert_eq!(child.size(), direct.size(), "dims {dims:?}");
            let table = root.projection_table(&dims, &child);
            assert_eq!(table.len(), root.size());
            for row in 0..t.num_rows() {
                let projected = table[root.code_of_row(&t, row)] as usize;
                assert_eq!(projected, direct.code_of_row(&t, row), "row {row}");
                for (j, _) in dims.iter().enumerate() {
                    let v = child.key_value(&t, projected, j);
                    assert!(v.key_eq(&t.get(row, cols[j])), "row {row} dim {j}");
                }
            }
        }
    }

    #[test]
    fn wide_space_groups_like_the_hash_path() {
        let t = mixed_table();
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let mut hash = RowKeyMap::new();
        let mut codes: Vec<u64> = Vec::new();
        let mut st = ExecStats::default();
        for row in 0..t.num_rows() {
            let h = hash.get_or_insert_row(&t, &[0, 1], row, &mut st);
            let code = space.code_of_row(&t, row);
            let w = match codes.iter().position(|&c| c == code) {
                Some(g) => g,
                None => {
                    codes.push(code);
                    codes.len() - 1
                }
            };
            assert_eq!(h, w, "row {row}");
        }
        // Decoded key values match what the hash path materialized.
        for (gid, &code) in codes.iter().enumerate() {
            for d in 0..2 {
                assert!(
                    space.key_value(&t, code, d).key_eq(&hash.keys()[gid][d]),
                    "gid {gid} dim {d}"
                );
            }
        }
        // Float columns never wide-encode; empty keys neither.
        assert!(WideKeySpace::try_build(&t, &[2]).is_none());
        assert!(WideKeySpace::try_build(&t, &[]).is_none());
    }

    #[test]
    fn wide_projector_matches_direct_coding() {
        let t = mixed_table();
        let root = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        for dims in [vec![0usize], vec![1], vec![0, 1]] {
            let child = root.project(&dims);
            let proj = root.projector(&dims, &child);
            let cols: Vec<usize> = dims.iter().map(|&d| root.cols()[d]).collect();
            let direct = WideKeySpace::try_build(&t, &cols).unwrap();
            for row in 0..t.num_rows() {
                assert_eq!(
                    proj.project(root.code_of_row(&t, row)),
                    direct.code_of_row(&t, row),
                    "dims {dims:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn wide_space_refuses_overflowing_widths() {
        // Two full-range integer dimensions cannot pack into 64 bits.
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(0), Value::Int(0)]).unwrap();
        t.push_row(&[Value::Int(1 << 33), Value::Int(1 << 33)])
            .unwrap();
        assert!(WideKeySpace::try_build(&t, &[0, 1]).is_none());
        // Either wide dimension alone still fits.
        assert!(WideKeySpace::try_build(&t, &[0]).is_some());
        assert!(WideKeySpace::try_build(&t, &[1]).is_some());
    }

    #[test]
    fn build_key_columns_matches_stored_keys_on_every_path() {
        let t = mixed_table();
        let mut st = ExecStats::default();
        let mut hash = GroupMap::Hash(RowKeyMap::new());
        let mut dense = GroupMap::choose(&t, &[0, 1], 1 << 20);
        let mut wide = GroupMap::Wide(WideGroupMap::new(
            WideKeySpace::try_build(&t, &[0, 1]).unwrap(),
        ));
        assert_eq!(dense.path(), "dense");
        assert_eq!(hash.path(), "hash");
        assert_eq!(wide.path(), "wide");
        // Scan from row 1: TX is the first string key seen, so the output
        // dictionary's intern order differs from the input's (CA, TX).
        for row in (1..t.num_rows()).chain(0..1) {
            hash.get_or_insert_row(&t, &[0, 1], row, &mut st);
            dense.get_or_insert_row(&t, &[0, 1], row, &mut st);
            wide.get_or_insert_row(&t, &[0, 1], row, &mut st);
        }
        let h = hash.build_key_columns(&t, &[0, 1]).unwrap();
        assert_eq!(h.len(), 2);
        let Column::Str { dict, .. } = &h[0] else {
            panic!("string key column")
        };
        let order: Vec<&str> = dict.values().iter().map(|s| s.as_ref()).collect();
        assert_eq!(order, ["TX", "CA"], "interned in group order");
        for map in [&dense, &wide] {
            let c = map.build_key_columns(&t, &[0, 1]).unwrap();
            for (hc, cc) in h.iter().zip(&c) {
                assert_eq!(hc.len(), hash.len(), "{}", map.path());
                assert_eq!(hc.str_codes(), cc.str_codes(), "{}", map.path());
                assert_eq!(hc.int_data(), cc.int_data(), "{}", map.path());
                let valid = |c: &Column| c.validity().iter().collect::<Vec<bool>>();
                assert_eq!(valid(hc), valid(cc), "{}", map.path());
                if let (Column::Str { dict: hd, .. }, Column::Str { dict: cd, .. }) = (hc, cc) {
                    assert_eq!(hd.values(), cd.values(), "{}", map.path());
                }
                for i in 0..hc.len() {
                    assert_eq!(hc.get(i), cc.get(i), "{}", map.path());
                }
            }
        }
    }
}
