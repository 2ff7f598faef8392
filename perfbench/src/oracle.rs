//! The output check. Each query shape is evaluated naively over the rows the
//! benchmark generated — one pass with `BTreeMap` group states, sharing no
//! code with the engine — and compared cell by cell with the service's
//! answer. The engine's answer must also satisfy the paper's §2 invariants
//! on its own: Vpct shares sum to 1 per totals group, each Hpct row sums to
//! 1, and a zero total gives NULL.

use pa_storage::{Table, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// The aggregate a shape computes per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `Vpct(A BY ..)`: each group's share of its totals group.
    Vpct,
    /// `Hpct(A BY ..)`: one row per group, one share per BY combination.
    Hpct,
    /// `sum(A BY ..)`: one row per group, one sum per BY combination.
    HorizontalSum,
}

/// A holistic aggregate carried beside a horizontal term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lane {
    /// `median(A)`.
    Median,
    /// `percentile(A, p)`: exact, interpolated between the nearest ranks.
    Percentile(f64),
    /// `approx_percentile(A, p)`: a t-digest estimate.
    ApproxPercentile(f64),
}

impl Lane {
    fn rank(self) -> f64 {
        match self {
            Lane::Median => 0.5,
            Lane::Percentile(p) | Lane::ApproxPercentile(p) => p,
        }
    }
}

/// How the GROUP BY list expands into grouping sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// `GROUP BY a, b`.
    Flat,
    /// `GROUP BY ROLLUP (a, b)`.
    Rollup,
    /// `GROUP BY CUBE (a, b)`.
    Cube,
    /// `GROUP BY GROUPING SETS ((a, b), (a), ())`.
    Sets(Vec<Vec<&'static str>>),
}

/// One query shape, in the terms of the paper: fact table `F`, measure `A`,
/// GROUP BY list and BY list.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Fact table.
    pub table: &'static str,
    /// Measure column `A`.
    pub measure: &'static str,
    /// `D1..Dk` for Vpct (it contains the BY list), `D1..Dj` otherwise.
    pub group_by: Vec<&'static str>,
    /// The BY list.
    pub by: Vec<&'static str>,
    /// Aggregate form.
    pub form: Form,
    /// Holistic lanes, named `lane0`, `lane1`, ... in the result.
    pub lanes: Vec<Lane>,
    /// Grouping-set expansion of the GROUP BY list.
    pub grouping: Grouping,
}

impl Spec {
    /// The statement in the percentage SQL dialect.
    pub fn sql(&self) -> String {
        let m = self.measure;
        let by = self.by.join(", ");
        let mut items: Vec<String> = self.group_by.iter().map(|c| c.to_string()).collect();
        items.push(match self.form {
            Form::Vpct if self.by.is_empty() => format!("Vpct({m})"),
            Form::Vpct => format!("Vpct({m} BY {by})"),
            Form::Hpct => format!("Hpct({m} BY {by})"),
            Form::HorizontalSum => format!("sum({m} BY {by})"),
        });
        for (i, lane) in self.lanes.iter().enumerate() {
            items.push(match lane {
                Lane::Median => format!("median({m}) AS lane{i}"),
                Lane::Percentile(p) => format!("percentile({m}, {p}) AS lane{i}"),
                Lane::ApproxPercentile(p) => format!("approx_percentile({m}, {p}) AS lane{i}"),
            });
        }
        let cols = self.group_by.join(", ");
        let group = match &self.grouping {
            Grouping::Flat if self.group_by.is_empty() => String::new(),
            Grouping::Flat => format!(" GROUP BY {cols}"),
            Grouping::Rollup => format!(" GROUP BY ROLLUP ({cols})"),
            Grouping::Cube => format!(" GROUP BY CUBE ({cols})"),
            Grouping::Sets(sets) => {
                let sets: Vec<String> =
                    sets.iter().map(|s| format!("({})", s.join(", "))).collect();
                format!(" GROUP BY GROUPING SETS ({})", sets.join(", "))
            }
        };
        format!("SELECT {} FROM {}{group}", items.join(", "), self.table)
    }

    /// The grouping sets the statement evaluates, each a sub-list of the
    /// GROUP BY list. Vpct skips the empty set: its share is 1 by definition
    /// and the dialect does not evaluate it.
    pub fn grouping_sets(&self) -> Vec<Vec<&'static str>> {
        let g = &self.group_by;
        let sets: Vec<Vec<&'static str>> = match &self.grouping {
            Grouping::Flat => vec![g.clone()],
            Grouping::Rollup => (0..=g.len()).rev().map(|k| g[..k].to_vec()).collect(),
            Grouping::Cube => (0..1usize << g.len())
                .rev()
                .map(|mask| {
                    (0..g.len())
                        .filter(|i| mask & (1 << (g.len() - 1 - i)) != 0)
                        .map(|i| g[i])
                        .collect()
                })
                .collect(),
            Grouping::Sets(sets) => sets.clone(),
        };
        sets.into_iter()
            .filter(|s| self.form != Form::Vpct || !s.is_empty())
            .collect()
    }

    /// Every column the shape groups on: the GROUP BY list, then the BY
    /// columns it does not already contain.
    fn dims(&self) -> Vec<&'static str> {
        let mut dims = self.group_by.clone();
        dims.extend(self.by.iter().filter(|b| !self.group_by.contains(b)));
        dims
    }
}

/// A grouping value: the part of [`Value`] that dimension columns hold, with
/// a total order so it can key a `BTreeMap`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// SQL NULL — in a grouping-set result, a rolled-up column.
    Null,
    /// Integer dimension value.
    Int(i64),
    /// String dimension value.
    Str(Arc<str>),
}

impl Key {
    fn of(v: Value) -> Result<Key, String> {
        match v {
            Value::Null => Ok(Key::Null),
            Value::Int(i) => Ok(Key::Int(i)),
            Value::Str(s) => Ok(Key::Str(s)),
            Value::Float(f) => Err(format!("float grouping value {f}")),
        }
    }

    /// The value as the engine spells it in a generated cell-column name.
    fn render(&self) -> String {
        match self {
            Key::Null => "NULL".to_string(),
            Key::Int(i) => i.to_string(),
            Key::Str(s) => s.replace([' ', '\t', '\n'], "_"),
        }
    }
}

/// Per-fine-group state of the naive pass: the measure sum and how many
/// non-NULL measures it saw.
#[derive(Debug, Clone, Copy, Default)]
struct Sum {
    total: f64,
    count: u64,
}

impl Sum {
    fn add(&mut self, other: Sum) {
        self.total += other.total;
        self.count += other.count;
    }

    /// SQL `sum`: NULL when no non-NULL measure contributed.
    fn value(self) -> Option<f64> {
        (self.count > 0).then_some(self.total)
    }
}

/// One dimension column of `F` with each row's value replaced by a small
/// id; id `values.len()` stands for NULL in a result (a rolled-up column).
struct Coded {
    ids: Vec<u32>,
    values: Vec<Key>,
    index: BTreeMap<Key, u32>,
}

impl Coded {
    fn of(f: &Table, col: usize) -> Result<Coded, String> {
        let mut index: BTreeMap<Key, u32> = BTreeMap::new();
        let mut ids = Vec::with_capacity(f.num_rows());
        for row in 0..f.num_rows() {
            // NULL marks a rolled-up column in a result, so the generated
            // dimensions hold no NULLs.
            let key = match Key::of(f.get(row, col))? {
                Key::Null => return Err(format!("NULL in dimension column {col}")),
                k => k,
            };
            let next = index.len() as u32;
            ids.push(*index.entry(key).or_insert(next));
        }
        let mut values = vec![Key::Null; index.len()];
        for (k, &id) in &index {
            values[id as usize] = k.clone();
        }
        Ok(Coded { ids, values, index })
    }

    fn null_id(&self) -> u64 {
        self.values.len() as u64
    }
}

/// Group keys over a shape's grouping columns as one mixed-radix number,
/// one digit per column; a column outside a grouping set holds the NULL
/// digit, so keys of every grouping set live in one space.
struct Space {
    columns: Vec<Arc<Coded>>,
    stride: Vec<u64>,
}

impl Space {
    fn new(columns: Vec<Arc<Coded>>) -> Result<Space, String> {
        let mut stride = vec![1u64; columns.len()];
        for i in (0..columns.len().saturating_sub(1)).rev() {
            stride[i] = stride[i + 1]
                .checked_mul(columns[i + 1].null_id() + 1)
                .ok_or("grouping key space exceeds 64 bits")?;
        }
        Ok(Space { columns, stride })
    }

    fn digit(&self, code: u64, d: usize) -> u64 {
        (code / self.stride[d]) % (self.columns[d].null_id() + 1)
    }

    /// `code` with every column outside `keep` set to NULL.
    fn project(&self, code: u64, keep: &[bool]) -> u64 {
        (0..self.columns.len())
            .map(|d| {
                let digit = if keep[d] {
                    self.digit(code, d)
                } else {
                    self.columns[d].null_id()
                };
                digit * self.stride[d]
            })
            .sum()
    }

    /// The key with these digits.
    fn code(&self, digits: &[u64]) -> u64 {
        digits.iter().zip(&self.stride).map(|(g, s)| g * s).sum()
    }

    /// `a` with the columns in `from_b` taken from `b`.
    fn merge(&self, a: u64, b: u64, from_b: &[bool]) -> u64 {
        (0..self.columns.len())
            .map(|d| self.digit(if from_b[d] { b } else { a }, d) * self.stride[d])
            .sum()
    }

    /// The key of row `row` of `F`.
    fn row(&self, row: usize) -> u64 {
        self.columns
            .iter()
            .zip(&self.stride)
            .map(|(c, s)| c.ids[row] as u64 * s)
            .sum()
    }

    fn values(&self, code: u64) -> Vec<Key> {
        (0..self.columns.len())
            .map(|d| {
                let c = &self.columns[d];
                c.values
                    .get(self.digit(code, d) as usize)
                    .cloned()
                    .unwrap_or(Key::Null)
            })
            .collect()
    }
}

/// The naive pass over `F`: measure sums per combination of the shape's
/// grouping columns, and the measure values per GROUP BY key when a
/// holistic lane needs them.
struct Fine {
    dims: Vec<&'static str>,
    space: Space,
    sums: BTreeMap<u64, Sum>,
    samples: BTreeMap<u64, Vec<f64>>,
}

impl Fine {
    /// Sums regrouped on the columns in `keep`.
    fn project(&self, keep: &[bool]) -> BTreeMap<u64, Sum> {
        let mut out: BTreeMap<u64, Sum> = BTreeMap::new();
        for (&code, s) in &self.sums {
            out.entry(self.space.project(code, keep))
                .or_default()
                .add(*s);
        }
        out
    }

    /// Which grouping columns are in `cols`.
    fn mask(&self, cols: &[&str]) -> Vec<bool> {
        self.dims.iter().map(|d| cols.contains(d)).collect()
    }
}

/// Naive passes for one check round, with the coded columns they share.
/// Build a fresh oracle whenever the tables may have changed.
#[derive(Default)]
pub struct Oracle {
    columns: BTreeMap<(&'static str, &'static str), Arc<Coded>>,
    measures: BTreeMap<(&'static str, &'static str), Arc<Vec<Option<f64>>>>,
    passes: BTreeMap<(&'static str, Vec<&'static str>, bool), Arc<Fine>>,
}

impl Oracle {
    fn fine(&mut self, spec: &Spec, f: &Table) -> Result<Arc<Fine>, String> {
        let dims = spec.dims();
        let id = (spec.table, dims.clone(), !spec.lanes.is_empty());
        if let Some(fine) = self.passes.get(&id) {
            return Ok(Arc::clone(fine));
        }
        let schema = f.schema();
        let index = |c: &str| schema.index_of(c).map_err(|e| e.to_string());
        let mut columns = Vec::with_capacity(dims.len());
        for &d in &dims {
            let coded = match self.columns.get(&(spec.table, d)) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(Coded::of(f, index(d)?)?);
                    self.columns.insert((spec.table, d), Arc::clone(&c));
                    c
                }
            };
            columns.push(coded);
        }
        let measure = match self.measures.get(&(spec.table, spec.measure)) {
            Some(m) => Arc::clone(m),
            None => {
                let col = index(spec.measure)?;
                let m: Arc<Vec<Option<f64>>> =
                    Arc::new((0..f.num_rows()).map(|r| f.get(r, col).as_f64()).collect());
                self.measures
                    .insert((spec.table, spec.measure), Arc::clone(&m));
                m
            }
        };
        let space = Space::new(columns)?;
        let group_mask: Vec<bool> = dims.iter().map(|d| spec.group_by.contains(d)).collect();
        let mut sums: BTreeMap<u64, Sum> = BTreeMap::new();
        let mut samples: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (row, value) in measure.iter().enumerate() {
            let code = space.row(row);
            sums.entry(code).or_default().add(Sum {
                total: value.unwrap_or(0.0),
                count: value.is_some() as u64,
            });
            if !spec.lanes.is_empty() {
                let group = space.project(code, &group_mask);
                samples.entry(group).or_default().extend(*value);
            }
        }
        let fine = Arc::new(Fine {
            dims,
            space,
            sums,
            samples,
        });
        self.passes.insert(id, Arc::clone(&fine));
        Ok(fine)
    }

    /// Compare `result` — the service's answer to `spec.sql()` over the fact
    /// table `f` — with the naive evaluation, and check the §2 invariants.
    /// The error names the first mismatch.
    pub fn check(&mut self, spec: &Spec, f: &Table, result: &Table) -> Result<(), String> {
        let fine = self.fine(spec, f)?;
        let expected = expected_rows(spec, &fine);
        let got = result_rows(spec, &fine, &expected, result)?;
        let show = |code: u64| format!("{:?}", fine.space.values(code));
        compare(&expected, &got, show)?;
        invariants(spec, &fine, &got, show)?;
        check_lanes(spec, &fine, &got, show)
    }
}

/// One result row: the grouping set it belongs to (as a column mask), its
/// percentage or aggregate cells, and its holistic lanes.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    set: Vec<bool>,
    cells: Vec<Option<f64>>,
    lanes: Vec<Option<f64>>,
}

/// Expected result rows and, for horizontal forms, the cell-column names in
/// the order the cells are listed.
struct Expected {
    rows: BTreeMap<u64, Vec<Option<f64>>>,
    cell_names: Vec<String>,
}

fn ratio(part: Option<f64>, total: Option<f64>) -> Option<f64> {
    match (part, total) {
        (Some(p), Some(t)) if t != 0.0 => Some(p / t),
        _ => None,
    }
}

/// Per grouping set, the Vpct BY list shrinks to its columns in the set;
/// the totals are over the rest of the set, or over all of `F` when no BY
/// column is left.
fn vpct_totals(spec: &Spec, fine: &Fine, set: &[bool]) -> Vec<bool> {
    let by = fine.mask(&spec.by);
    let by_in_set = set.iter().zip(&by).any(|(s, b)| *s && *b);
    set.iter()
        .zip(&by)
        .map(|(s, b)| by_in_set && *s && !*b)
        .collect()
}

fn expected_rows(spec: &Spec, fine: &Fine) -> Expected {
    let by_mask = fine.mask(&spec.by);
    let by_pos: Vec<usize> = spec
        .by
        .iter()
        .map(|b| fine.dims.iter().position(|d| d == b).expect("BY column"))
        .collect();
    let combos: Vec<u64> = if spec.form == Form::Vpct {
        Vec::new()
    } else {
        fine.project(&by_mask).into_keys().collect()
    };
    let cell_names = combos
        .iter()
        .map(|&combo| {
            let values = fine.space.values(combo);
            let parts: Vec<String> = spec
                .by
                .iter()
                .zip(&by_pos)
                .map(|(c, &p)| format!("{c}={}", values[p].render()))
                .collect();
            parts.join(";")
        })
        .collect();
    let mut rows: BTreeMap<u64, Vec<Option<f64>>> = BTreeMap::new();
    for set in spec.grouping_sets() {
        let set = fine.mask(&set);
        let level = fine.project(&set);
        match spec.form {
            Form::Vpct => {
                let totals_mask = vpct_totals(spec, fine, &set);
                let totals = fine.project(&totals_mask);
                for (&k, s) in &level {
                    let total = totals
                        .get(&fine.space.project(k, &totals_mask))
                        .and_then(|t| t.value());
                    rows.insert(k, vec![ratio(s.value(), total)]);
                }
            }
            Form::Hpct | Form::HorizontalSum => {
                let with_by: Vec<bool> = set.iter().zip(&by_mask).map(|(s, b)| *s || *b).collect();
                let cells = fine.project(&with_by);
                for (&k, total) in &level {
                    let values = combos
                        .iter()
                        .map(|&combo| {
                            let cell = fine.space.merge(k, combo, &by_mask);
                            let part = cells.get(&cell).and_then(|s| s.value());
                            if spec.form == Form::Hpct {
                                // A missing cell counts as 0 (SIGMOD's
                                // `ELSE 0`); only a zero total gives NULL.
                                ratio(Some(part.unwrap_or(0.0)), total.value())
                            } else {
                                // DMKD: a missing horizontal sum is NULL.
                                part
                            }
                        })
                        .collect();
                    rows.insert(k, values);
                }
            }
        }
    }
    Expected { rows, cell_names }
}

fn cell(v: Value) -> Result<Option<f64>, String> {
    match v {
        Value::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric cell {other}")),
    }
}

/// The engine's rows keyed like [`expected_rows`]: key columns by name,
/// cells in the expected cell-name order.
fn result_rows(
    spec: &Spec,
    fine: &Fine,
    expected: &Expected,
    result: &Table,
) -> Result<BTreeMap<u64, Row>, String> {
    let schema = result.schema();
    let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
    let find = |c: &str| {
        names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(c))
            .ok_or_else(|| format!("result lacks column {c}; has {names:?}"))
    };
    // (result column, grouping column) of each GROUP BY column.
    let key_cols: Vec<(usize, usize)> = spec
        .group_by
        .iter()
        .map(|c| {
            Ok((
                find(c)?,
                fine.dims
                    .iter()
                    .position(|d| d == c)
                    .expect("GROUP BY column"),
            ))
        })
        .collect::<Result<_, String>>()?;
    let lane_cols: Vec<usize> = (0..spec.lanes.len())
        .map(|i| find(&format!("lane{i}")))
        .collect::<Result<_, _>>()?;
    let rest: Vec<usize> = (0..names.len())
        .filter(|i| !key_cols.iter().any(|(c, _)| c == i) && !lane_cols.contains(i))
        .collect();
    let value_cols: Vec<usize> = if spec.form == Form::Vpct {
        if rest.len() != 1 {
            return Err(format!("Vpct result has columns {names:?}"));
        }
        rest
    } else {
        let got: BTreeSet<&str> = rest.iter().map(|&i| names[i]).collect();
        let want: BTreeSet<&str> = expected.cell_names.iter().map(String::as_str).collect();
        if got != want {
            return Err(format!(
                "cell columns differ: got {got:?}, expected {want:?}"
            ));
        }
        expected
            .cell_names
            .iter()
            .map(|n| find(n))
            .collect::<Result<_, _>>()?
    };
    let space = &fine.space;
    let mut rows = BTreeMap::new();
    for r in 0..result.num_rows() {
        let mut set = vec![false; fine.dims.len()];
        let mut digits: Vec<u64> = space.columns.iter().map(|c| c.null_id()).collect();
        for &(c, d) in &key_cols {
            match Key::of(result.get(r, c))? {
                Key::Null => {}
                k => {
                    set[d] = true;
                    let id = space.columns[d].index.get(&k).ok_or_else(|| {
                        format!("result key {k:?} of {} is not in the data", fine.dims[d])
                    })?;
                    digits[d] = *id as u64;
                }
            }
        }
        let code = space.code(&digits);
        let read = |cols: &[usize]| -> Result<Vec<Option<f64>>, String> {
            cols.iter().map(|&c| cell(result.get(r, c))).collect()
        };
        let row = Row {
            set,
            cells: read(&value_cols)?,
            lanes: read(&lane_cols)?,
        };
        if rows.insert(code, row).is_some() {
            return Err(format!("duplicate result row {:?}", space.values(code)));
        }
    }
    Ok(rows)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

fn compare(
    expected: &Expected,
    got: &BTreeMap<u64, Row>,
    show: impl Fn(u64) -> String,
) -> Result<(), String> {
    for (key, want) in &expected.rows {
        let row = got
            .get(key)
            .ok_or_else(|| format!("missing result row {}", show(*key)))?;
        for (i, (g, w)) in row.cells.iter().zip(want).enumerate() {
            let same = match (g, w) {
                (Some(g), Some(w)) => close(*g, *w),
                (None, None) => true,
                _ => false,
            };
            if !same {
                return Err(format!(
                    "row {} cell {i}: got {g:?}, expected {w:?}",
                    show(*key)
                ));
            }
        }
    }
    if let Some(extra) = got.keys().find(|k| !expected.rows.contains_key(k)) {
        return Err(format!("unexpected result row {}", show(*extra)));
    }
    Ok(())
}

/// §2 on the engine's own answer: shares of one totals group (Vpct) or of
/// one row (Hpct) sum to 1, unless the total is zero and every share is
/// NULL.
fn invariants(
    spec: &Spec,
    fine: &Fine,
    got: &BTreeMap<u64, Row>,
    show: impl Fn(u64) -> String,
) -> Result<(), String> {
    let sums_to_one = |what: String, cells: &[Option<f64>]| -> Result<(), String> {
        let present: Vec<f64> = cells.iter().flatten().copied().collect();
        if present.is_empty() {
            return Ok(());
        }
        if spec.form == Form::Vpct && present.len() != cells.len() {
            return Err(format!("{what}: NULL share beside non-NULL shares"));
        }
        let sum: f64 = present.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("{what}: shares sum to {sum}"));
        }
        Ok(())
    };
    match spec.form {
        Form::Vpct => {
            let mut groups: BTreeMap<(Vec<bool>, u64), Vec<Option<f64>>> = BTreeMap::new();
            for (&key, row) in got {
                let totals = fine.space.project(key, &vpct_totals(spec, fine, &row.set));
                groups
                    .entry((row.set.clone(), totals))
                    .or_default()
                    .push(row.cells[0]);
            }
            for ((_, totals), shares) in &groups {
                sums_to_one(format!("Vpct totals group {}", show(*totals)), shares)?;
            }
        }
        Form::Hpct => {
            for (&key, row) in got {
                sums_to_one(format!("Hpct row {}", show(key)), &row.cells)?;
            }
        }
        Form::HorizontalSum => {}
    }
    Ok(())
}

/// PERCENTILE_CONT: linear interpolation between the two nearest ranks.
fn percentile_cont(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Distance between rank `p` and the rank interval `x` occupies in
/// `sorted` (ties span an interval).
fn rank_error(sorted: &[f64], x: f64, p: f64) -> f64 {
    let n = sorted.len() as f64;
    let below = sorted.partition_point(|v| *v < x) as f64 / n;
    let not_above = sorted.partition_point(|v| *v <= x) as f64 / n;
    if p < below {
        below - p
    } else if p > not_above {
        p - not_above
    } else {
        0.0
    }
}

fn check_lanes(
    spec: &Spec,
    fine: &Fine,
    got: &BTreeMap<u64, Row>,
    show: impl Fn(u64) -> String,
) -> Result<(), String> {
    for (&key, row) in got {
        if spec.lanes.is_empty() {
            break;
        }
        let mut values = fine
            .samples
            .get(&key)
            .ok_or_else(|| format!("holistic lane of unknown group {}", show(key)))?
            .clone();
        values.sort_by(f64::total_cmp);
        for (i, (lane, got)) in spec.lanes.iter().zip(&row.lanes).enumerate() {
            let got = got.ok_or_else(|| format!("lane{i} of {} is NULL", show(key)))?;
            let p = lane.rank();
            // Exact percentiles hold every sample up to the engine's
            // documented per-group budget, then spill to a t-digest.
            let exact = !matches!(lane, Lane::ApproxPercentile(_))
                && values.len() <= pa_engine::DEFAULT_PERCENTILE_BUDGET;
            let ok = if exact {
                close(got, percentile_cont(&values, p))
            } else {
                rank_error(&values, got, p) <= pa_engine::TDIGEST_RANK_EPSILON
            };
            if !ok {
                return Err(format!(
                    "lane{i} of {}: got {got}, exact {}",
                    show(key),
                    percentile_cont(&values, p)
                ));
            }
        }
    }
    Ok(())
}

/// Order-independent digest of a result: rows sorted, floats rounded to
/// nine significant digits so summation order cannot change it.
pub fn checksum(t: &Table) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            let mut line = String::new();
            for c in 0..t.num_columns() {
                match t.get(r, c) {
                    Value::Float(f) => write!(line, "{f:.8e}|"),
                    other => write!(line, "{other}|"),
                }
                .expect("write to String");
            }
            line
        })
        .collect();
    rows.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in 0..t.num_columns() {
        t.schema().field_at(c).name.hash(&mut h);
    }
    rows.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table(rows: &[(&str, i64, f64)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Str),
            ("d", DataType::Int),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (g, d, a) in rows {
            t.push_row(&[Value::str(g), Value::Int(*d), Value::Float(*a)])
                .unwrap();
        }
        t
    }

    fn spec(form: Form, group_by: Vec<&'static str>, by: Vec<&'static str>) -> Spec {
        Spec {
            table: "f",
            measure: "a",
            group_by,
            by,
            form,
            lanes: Vec::new(),
            grouping: Grouping::Flat,
        }
    }

    fn answer(spec: &Spec, f: &Table) -> Table {
        let catalog = pa_storage::Catalog::new();
        catalog.create_table("f", f.clone()).unwrap();
        let engine = pa_core::PercentageEngine::new(&catalog);
        let out = engine.execute_sql(&spec.sql()).unwrap();
        let result = out.table().read().clone();
        result
    }

    fn check(spec: &Spec, f: &Table, result: &Table) -> Result<(), String> {
        Oracle::default().check(spec, f, result)
    }

    #[test]
    fn zero_totals_must_come_back_null() {
        // Group "z" sums to zero: its Vpct shares and Hpct cells are NULL.
        let f = table(&[("x", 1, 3.0), ("x", 2, 1.0), ("z", 1, 0.0), ("z", 2, 0.0)]);
        for s in [
            spec(Form::Vpct, vec!["g", "d"], vec!["d"]),
            spec(Form::Hpct, vec!["g"], vec!["d"]),
            spec(Form::HorizontalSum, vec!["g"], vec!["d"]),
        ] {
            check(&s, &f, &answer(&s, &f)).unwrap();
        }
        let s = spec(Form::Hpct, vec!["g"], vec!["d"]);
        let mut wrong = answer(&s, &f);
        let z = (0..wrong.num_rows())
            .find(|&r| wrong.get(r, 0) == Value::str("z"))
            .unwrap();
        wrong
            .set_cells(z, &[1, 2], &[Value::Float(0.5), Value::Float(0.5)])
            .unwrap();
        assert!(check(&s, &f, &wrong).is_err());
    }

    #[test]
    fn a_wrong_answer_is_reported() {
        let f = table(&[("x", 1, 3.0), ("x", 2, 1.0), ("y", 1, 2.0)]);
        let s = spec(Form::Vpct, vec!["g", "d"], vec!["d"]);
        let mut wrong = answer(&s, &f);
        wrong.set_cells(0, &[2], &[Value::Float(0.5)]).unwrap();
        let err = check(&s, &f, &wrong).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn a_missing_row_is_reported() {
        let f = table(&[("x", 1, 3.0), ("x", 2, 1.0), ("y", 1, 2.0)]);
        let s = spec(Form::Hpct, vec!["g"], vec!["d"]);
        let full = answer(&s, &f);
        let short = full.take(&[0]);
        assert!(check(&s, &f, &short).unwrap_err().contains("missing"));
    }

    #[test]
    fn grouping_sets_expand_like_the_dialect() {
        let mut s = spec(Form::Vpct, vec!["a", "b"], vec!["b"]);
        s.grouping = Grouping::Cube;
        assert_eq!(
            s.grouping_sets(),
            vec![vec!["a", "b"], vec!["a"], vec!["b"]]
        );
        s.grouping = Grouping::Rollup;
        s.form = Form::Hpct;
        assert_eq!(s.grouping_sets(), vec![vec!["a", "b"], vec!["a"], vec![]]);
    }
}
