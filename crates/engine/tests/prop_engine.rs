//! Property tests for the physical operators, each checked against a naive
//! reference implementation over the same random input.

use pa_engine::{
    distinct, filter, hash_aggregate, hash_join, sort, window_aggregate, AggFunc, AggSpec,
    ExecStats, Expr, JoinType, ResourceGuard,
};
use pa_storage::{DataType, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Row {
    g: Option<i64>,
    d: Option<i64>,
    a: Option<i64>,
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            prop::option::weighted(0.9, 0..5i64),
            prop::option::weighted(0.9, 0..4i64),
            prop::option::weighted(0.85, -20..=20i64),
        )
            .prop_map(|(g, d, a)| Row { g, d, a }),
        0..max,
    )
}

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for r in rows {
        t.push_row(&[
            Value::from(r.g),
            Value::from(r.d),
            Value::from(r.a.map(|x| x as f64)),
        ])
        .unwrap();
    }
    t
}

fn key_of(v: &Value) -> String {
    v.to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aggregate_matches_reference(rows in rows_strategy(120)) {
        let t = table_of(&rows);
        let specs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col(t.schema(), "a").unwrap(), "sum"),
            AggSpec::new(AggFunc::Count, Expr::col(t.schema(), "a").unwrap(), "cnt"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::Min, Expr::col(t.schema(), "a").unwrap(), "mn"),
            AggSpec::new(AggFunc::Max, Expr::col(t.schema(), "a").unwrap(), "mx"),
        ];
        let out = hash_aggregate(&t, &[0], &specs, &ResourceGuard::unlimited(), &mut ExecStats::default()).unwrap();

        // Reference.
        #[derive(Default)]
        struct Ref {
            sum: f64,
            any: bool,
            cnt: i64,
            n: i64,
            mn: Option<i64>,
            mx: Option<i64>,
        }
        let mut model: BTreeMap<String, Ref> = BTreeMap::new();
        for r in &rows {
            let e = model.entry(key_of(&Value::from(r.g))).or_default();
            e.n += 1;
            if let Some(a) = r.a {
                e.sum += a as f64;
                e.any = true;
                e.cnt += 1;
                e.mn = Some(e.mn.map_or(a, |m| m.min(a)));
                e.mx = Some(e.mx.map_or(a, |m| m.max(a)));
            }
        }
        prop_assert_eq!(out.num_rows(), model.len());
        for i in 0..out.num_rows() {
            let key = key_of(&out.get(i, 0));
            let m = &model[&key];
            if m.any {
                prop_assert!((out.get(i, 1).as_f64().unwrap() - m.sum).abs() < 1e-9);
                prop_assert_eq!(out.get(i, 4).as_f64().unwrap(), m.mn.unwrap() as f64);
                prop_assert_eq!(out.get(i, 5).as_f64().unwrap(), m.mx.unwrap() as f64);
            } else {
                prop_assert!(out.get(i, 1).is_null());
                prop_assert!(out.get(i, 4).is_null());
            }
            prop_assert_eq!(out.get(i, 2).as_i64().unwrap(), m.cnt);
            prop_assert_eq!(out.get(i, 3).as_i64().unwrap(), m.n);
        }
    }

    #[test]
    fn join_matches_nested_loop(left in rows_strategy(60), right in rows_strategy(60)) {
        let lt = table_of(&left);
        let rt = table_of(&right);
        for (jt, outer) in [(JoinType::Inner, false), (JoinType::LeftOuter, true)] {
            let out = hash_join(&lt, &rt, &[0], &[0], jt, None, &ResourceGuard::unlimited(), &mut ExecStats::default()).unwrap();
            // Reference: nested loop with grouping (NULL = NULL) semantics.
            let mut expected = 0usize;
            for l in &left {
                let matches = right
                    .iter()
                    .filter(|r| Value::from(l.g).key_eq(&Value::from(r.g)))
                    .count();
                expected += if matches == 0 && outer { 1 } else { matches };
            }
            prop_assert_eq!(out.num_rows(), expected, "{:?}", jt);
        }
    }

    #[test]
    fn distinct_matches_set(rows in rows_strategy(120)) {
        let t = table_of(&rows);
        let out = distinct(&t, &[0, 1], &mut ExecStats::default()).unwrap();
        let model: std::collections::BTreeSet<(String, String)> = rows
            .iter()
            .map(|r| (key_of(&Value::from(r.g)), key_of(&Value::from(r.d))))
            .collect();
        prop_assert_eq!(out.num_rows(), model.len());
    }

    #[test]
    fn filter_matches_retain(rows in rows_strategy(120), threshold in -20i64..=20) {
        let t = table_of(&rows);
        let pred = Expr::Cmp(
            pa_engine::CmpOp::Gt,
            Box::new(Expr::col(t.schema(), "a").unwrap()),
            Box::new(Expr::lit(threshold)),
        );
        let out = filter(&t, &pred, &mut ExecStats::default()).unwrap();
        let expected = rows.iter().filter(|r| r.a.is_some_and(|a| a > threshold)).count();
        prop_assert_eq!(out.num_rows(), expected, "NULL predicates drop rows");
    }

    #[test]
    fn sort_matches_std_sort(rows in rows_strategy(120)) {
        let t = table_of(&rows);
        let out = sort(&t, &[2], &mut ExecStats::default()).unwrap();
        let mut model: Vec<Option<i64>> = rows.iter().map(|r| r.a).collect();
        // NULLs first, then ascending — Option<i64> sorts None first already.
        model.sort();
        for (i, m) in model.iter().enumerate() {
            prop_assert_eq!(out.get(i, 2), Value::from(m.map(|x| x as f64)), "row {}", i);
        }
    }

    #[test]
    fn window_sum_equals_group_sum_broadcast(rows in rows_strategy(120)) {
        let t = table_of(&rows);
        let out =
            window_aggregate(&t, &[0], AggFunc::Sum, 2, "w", &mut ExecStats::default()).unwrap();
        // Model: per-group sums.
        let mut sums: BTreeMap<String, (f64, bool)> = BTreeMap::new();
        for r in &rows {
            let e = sums.entry(key_of(&Value::from(r.g))).or_default();
            if let Some(a) = r.a {
                e.0 += a as f64;
                e.1 = true;
            }
        }
        prop_assert_eq!(out.num_rows(), t.num_rows());
        for i in 0..out.num_rows() {
            let key = key_of(&out.get(i, 0));
            let (sum, any) = sums[&key];
            if any {
                prop_assert!((out.get(i, 3).as_f64().unwrap() - sum).abs() < 1e-9);
            } else {
                prop_assert!(out.get(i, 3).is_null());
            }
        }
    }

    #[test]
    fn count_distinct_matches_set_model(rows in rows_strategy(150)) {
        let t = table_of(&rows);
        let spec = AggSpec::new(
            AggFunc::CountDistinct,
            Expr::col(t.schema(), "d").unwrap(),
            "dd",
        );
        let out = hash_aggregate(&t, &[0], &[spec], &ResourceGuard::unlimited(), &mut ExecStats::default()).unwrap();
        let mut model: BTreeMap<String, std::collections::BTreeSet<i64>> = BTreeMap::new();
        for r in &rows {
            let e = model.entry(key_of(&Value::from(r.g))).or_default();
            if let Some(d) = r.d {
                e.insert(d);
            }
        }
        for i in 0..out.num_rows() {
            let key = key_of(&out.get(i, 0));
            prop_assert_eq!(out.get(i, 1).as_i64().unwrap() as usize, model[&key].len());
        }
    }
}
