//! Hash joins: inner and left outer.
//!
//! Percentage queries join `Fk` (probe side) with `Fj` (build side) on the
//! common subkey `D1..Dj` to perform the division; the DMKD SPJ strategy
//! assembles `FH` with a chain of **left outer** joins on `D1..Dj`. The
//! paper's "identical indexes on the common subkey" optimization maps to
//! passing a prebuilt [`HashIndex`] for the build side.

use crate::error::{EngineError, Result};
use crate::guard::ResourceGuard;
use crate::stats::ExecStats;
use pa_storage::{Field, HashIndex, Schema, Table, Value};

/// Output rows accumulated between guard charges in the probe loop — large
/// enough to amortize the atomic, small enough to catch a cross-product
/// blowup well before it is materialized.
const JOIN_CHARGE_BATCH: usize = 4096;

/// Join variants used by the strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Matched pairs only.
    Inner,
    /// Every left row; unmatched rows pad right columns with NULL.
    LeftOuter,
}

/// Hash-join `left` with `right` on equal key tuples.
///
/// Output columns are all of `left` followed by all of `right`; colliding
/// names from the right side get a `.r` suffix (further collisions `.r1`,
/// `.r2`, ...). When `right_index` is provided it must have been built on
/// `right` over exactly `right_keys` — this is the paper's subkey-index
/// optimization; otherwise a transient hash table is built (and accounted).
///
/// Join keys compare with grouping semantics (`NULL` matches `NULL`), which
/// is what the generated plans need: group keys came out of GROUP BY, so a
/// NULL dimension value is a legitimate group.
///
/// Both input scans are charged to `guard` up front and output rows are
/// charged in batches *during* the probe loop, so a skewed key that
/// degenerates into a cross product trips the budget before the row-pair
/// vectors grow unbounded.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    right_index: Option<&HashIndex>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Table> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::InvalidOperator(format!(
            "join key arity mismatch: {} vs {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    for &k in left_keys {
        if k >= left.num_columns() {
            return Err(EngineError::InvalidOperator(format!(
                "left key column {k} out of range"
            )));
        }
    }
    for &k in right_keys {
        if k >= right.num_columns() {
            return Err(EngineError::InvalidOperator(format!(
                "right key column {k} out of range"
            )));
        }
    }
    if let Some(idx) = right_index {
        if idx.key_cols() != right_keys {
            return Err(EngineError::InvalidOperator(
                "provided index does not cover the join keys".into(),
            ));
        }
    }
    stats.statements += 1;
    let mut span = guard.span("join");

    // Build side.
    let built;
    let index: &HashIndex = match right_index {
        Some(idx) => idx,
        None => {
            built = HashIndex::build(right, right_keys)?;
            stats.hash_build_rows += right.num_rows() as u64;
            &built
        }
    };
    stats.rows_scanned += right.num_rows() as u64;

    // Probe side.
    let n = left.num_rows();
    stats.rows_scanned += n as u64;
    guard.charge((n + right.num_rows()) as u64)?;
    span.add_rows((n + right.num_rows()) as u64);
    span.add_morsels(1);
    let mut left_rows: Vec<usize> = Vec::with_capacity(n);
    let mut right_rows: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut key_buf: Vec<Value> = Vec::with_capacity(left_keys.len());
    let mut charged = 0usize;
    for row in 0..n {
        key_buf.clear();
        for &k in left_keys {
            key_buf.push(left.column(k).get(row));
        }
        stats.hash_probes += 1;
        let mut matched = false;
        for r in index.probe(right, &key_buf) {
            matched = true;
            left_rows.push(row);
            right_rows.push(Some(r));
        }
        if !matched && join_type == JoinType::LeftOuter {
            left_rows.push(row);
            right_rows.push(None);
        }
        // Charge output growth mid-loop: this is where a skewed join blows up.
        let produced = left_rows.len() - charged;
        if produced >= JOIN_CHARGE_BATCH {
            guard.charge(produced as u64)?;
            span.add_rows(produced as u64);
            charged = left_rows.len();
        }
    }
    guard.charge((left_rows.len() - charged) as u64)?;
    span.add_rows((left_rows.len() - charged) as u64);

    // Assemble output schema with deduplicated names.
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    for f in right.schema().fields() {
        let mut name = f.name.clone();
        if fields.iter().any(|g| g.name == name) {
            name = format!("{}.r", f.name);
            let mut k = 1;
            while fields.iter().any(|g| g.name == name) {
                name = format!("{}.r{k}", f.name);
                k += 1;
            }
        }
        fields.push(Field::new(name, f.dtype));
    }
    let schema = Schema::new(fields)?.into_shared();

    let mut columns = Vec::with_capacity(left.num_columns() + right.num_columns());
    for c in left.columns() {
        columns.push(c.take(&left_rows));
    }
    for c in right.columns() {
        columns.push(c.take_opt(&right_rows));
    }
    stats.rows_materialized += left_rows.len() as u64;
    Ok(Table::from_columns(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    /// The unlimited guard the direct operator calls below run under.
    const G: ResourceGuard = ResourceGuard::unlimited();

    fn fk() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("A", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c, a) in [
            ("CA", "LA", 23.0),
            ("CA", "SF", 83.0),
            ("TX", "Dallas", 85.0),
            ("TX", "Houston", 64.0),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn fj() -> Table {
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("A", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::str("CA"), Value::Float(106.0)])
            .unwrap();
        t.push_row(&[Value::str("TX"), Value::Float(149.0)])
            .unwrap();
        t
    }

    #[test]
    fn inner_join_fk_with_fj() {
        let (fk, fj) = (fk(), fj());
        let mut st = ExecStats::default();
        let out = hash_join(&fk, &fj, &[0], &[0], JoinType::Inner, None, &G, &mut st).unwrap();
        assert_eq!(out.num_rows(), 4);
        // Renamed right columns.
        assert_eq!(out.schema().index_of("state.r").unwrap(), 3);
        assert_eq!(out.schema().index_of("A.r").unwrap(), 4);
        let s = out.sorted_by(&[0, 1]);
        assert_eq!(s.get(0, 2), Value::Float(23.0));
        assert_eq!(s.get(0, 4), Value::Float(106.0));
        assert_eq!(st.hash_probes, 4);
    }

    #[test]
    fn left_outer_pads_unmatched_with_null() {
        let fk = fk();
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("A", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut fj = Table::empty(schema);
        fj.push_row(&[Value::str("CA"), Value::Float(106.0)])
            .unwrap();
        let mut st = ExecStats::default();
        let inner = hash_join(&fk, &fj, &[0], &[0], JoinType::Inner, None, &G, &mut st).unwrap();
        assert_eq!(inner.num_rows(), 2);
        let outer =
            hash_join(&fk, &fj, &[0], &[0], JoinType::LeftOuter, None, &G, &mut st).unwrap();
        assert_eq!(outer.num_rows(), 4);
        let s = outer.sorted_by(&[0, 1]);
        assert_eq!(s.get(2, 0), Value::str("TX"));
        assert_eq!(s.get(2, 4), Value::Null, "unmatched right side is NULL");
    }

    #[test]
    fn prebuilt_index_is_used_and_validated() {
        let (fk, fj) = (fk(), fj());
        let idx = HashIndex::build(&fj, &[0]).unwrap();
        let mut st = ExecStats::default();
        let out = hash_join(
            &fk,
            &fj,
            &[0],
            &[0],
            JoinType::Inner,
            Some(&idx),
            &G,
            &mut st,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(st.hash_build_rows, 0, "no transient build with an index");

        let wrong = HashIndex::build(&fj, &[1]).unwrap();
        assert!(hash_join(
            &fk,
            &fj,
            &[0],
            &[0],
            JoinType::Inner,
            Some(&wrong),
            &G,
            &mut st
        )
        .is_err());
    }

    #[test]
    fn one_to_many_duplicates_probe_rows() {
        let (fj, fk) = (fj(), fk());
        // Join small->large: each fj row matches two fk rows.
        let mut st = ExecStats::default();
        let out = hash_join(&fj, &fk, &[0], &[0], JoinType::Inner, None, &G, &mut st).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn null_keys_join_with_grouping_semantics() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut a = Table::empty(schema.clone());
        a.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        let mut b = Table::empty(schema);
        b.push_row(&[Value::Null, Value::Int(2)]).unwrap();
        let mut st = ExecStats::default();
        let out = hash_join(&a, &b, &[0], &[0], JoinType::Inner, None, &G, &mut st).unwrap();
        assert_eq!(out.num_rows(), 1, "NULL group key matches NULL group key");
    }

    #[test]
    fn guard_catches_join_blowup_mid_probe() {
        // 300 × 300 rows all sharing one key: a 90 000-row cross product.
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..300 {
            t.push_row(&[Value::Int(1), Value::Int(i)]).unwrap();
        }
        let mut st = ExecStats::default();
        // Budget admits both scans (600) plus a few batches, not the full
        // product — the guard must trip inside the probe loop.
        let guard = crate::guard::ResourceGuard::with_row_budget(10_000);
        let err =
            hash_join(&t, &t, &[0], &[0], JoinType::Inner, None, &guard, &mut st).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert!(
            guard.rows_charged() < 30_000,
            "tripped early, not after materializing all 90k pairs: {}",
            guard.rows_charged()
        );

        // The same join under a sufficient budget completes.
        let guard = crate::guard::ResourceGuard::with_row_budget(100_000);
        let out = hash_join(&t, &t, &[0], &[0], JoinType::Inner, None, &guard, &mut st).unwrap();
        assert_eq!(out.num_rows(), 90_000);
    }

    #[test]
    fn key_arity_validated() {
        let (fk, fj) = (fk(), fj());
        let mut st = ExecStats::default();
        assert!(hash_join(&fk, &fj, &[0, 1], &[0], JoinType::Inner, None, &G, &mut st).is_err());
        assert!(hash_join(&fk, &fj, &[], &[], JoinType::Inner, None, &G, &mut st).is_err());
        assert!(hash_join(&fk, &fj, &[9], &[0], JoinType::Inner, None, &G, &mut st).is_err());
    }
}
