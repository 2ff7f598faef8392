//! The workloads: the tables each one generates from the seed, the query
//! shapes it sends, and the rows it appends.

use crate::oracle::{Form, Grouping, Lane, Spec};
use pa_bench::{dmkd_queries, sigmod_queries, BenchQuery, Dataset};
use pa_storage::{Bitmap, Column, DataType, Schema, Table, Value};
use pa_workload::{CensusConfig, EmployeeConfig, SalesConfig, TransactionConfig};

/// Every workload, in the order `--describe` lists them.
pub const NAMES: [&str; 3] = ["paper_sql", "scan_kernels", "cube_append"];

/// Rows per `append_rows` call in `cube_append`.
pub const APPEND_ROWS: usize = 1_000;

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// Tables and their base row counts at scale 1.
    pub tables: Vec<(&'static str, usize)>,
    /// Query shapes; every pass sends each once, in a seeded order.
    pub shapes: Vec<Spec>,
    /// Table that receives an `append_rows` of [`APPEND_ROWS`] rows before
    /// each shape's turn in a pass.
    pub append_to: Option<&'static str>,
    /// Times each shape runs back to back on its turn: with appends, the
    /// first run after the write is cold and the rest warm, whatever the
    /// pass order.
    pub repeats: usize,
    /// The tail percentile reported as `query_tail_ms`. Where every shape
    /// runs once a pass, its latencies form one cluster of one sample per
    /// pass, and a percentile whose share of a pass ends on a whole number
    /// of queries falls on the gap between two clusters; these fall
    /// mid-way into a slot. `cube_append`'s clusters are unequal (one cold
    /// and two warm runs per shape and pass, merged where cold and warm
    /// cost alike), so its percentile was chosen from measured runs; each
    /// run reports the samples around the tail as `tail_window_ms`.
    pub tail_percentile: f64,
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "paper_sql" => paper_sql(),
            "scan_kernels" => scan_kernels(),
            "cube_append" => cube_append(),
            _ => return None,
        })
    }

    /// Queries in one pass.
    pub fn pass_queries(&self) -> usize {
        self.shapes.len() * self.repeats
    }

    /// Fewest query samples a run takes, so that at least ten lie beyond
    /// the tail percentile.
    pub fn min_samples(&self) -> usize {
        let p = self.tail_percentile;
        (1..)
            .find(|&n| n - ((p * n as f64).ceil() as usize).min(n) >= 10)
            .expect("a tail below 1 leaves room")
    }

    /// Generate every table at `scale` × the base row counts from `seed`.
    pub fn generate(&self, seed: u64, scale: f64) -> Vec<(&'static str, Table)> {
        self.tables
            .iter()
            .map(|&(name, base)| {
                let rows = ((base as f64 * scale).round() as usize).max(1);
                (name, generate_table(name, rows, seed))
            })
            .collect()
    }

    /// The rows of the `k`-th append of a run, in the `cube` table's
    /// columns (only `cube_append` appends).
    pub fn append_batch(&self, seed: u64, k: u64) -> Vec<Vec<Value>> {
        let table = self.append_to.expect("workload appends");
        let mut rng =
            SplitMix(table_seed(seed, table) ^ (k + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        (0..APPEND_ROWS).map(|_| cube_row(&mut rng)).collect()
    }
}

/// The papers' evaluation traffic as SQL under the default strategy choice.
fn paper_sql() -> Workload {
    let mut shapes = Vec::new();
    for q in sigmod_queries() {
        shapes.push(paper_spec(&q, Form::Vpct));
        shapes.push(paper_spec(&q, Form::Hpct));
    }
    // SIGMOD Table 2: each city's share of its state's sales. It also makes
    // a pass an odd number of queries, so the median falls inside one
    // shape's latency cluster.
    shapes.push(Spec {
        table: "sales",
        measure: "salesAmt",
        group_by: vec!["state", "city"],
        by: vec!["city"],
        form: Form::Vpct,
        lanes: Vec::new(),
        grouping: Grouping::Flat,
    });
    for q in dmkd_queries() {
        if q.dataset == Dataset::Transaction2M {
            continue;
        }
        shapes.push(paper_spec(&q, Form::HorizontalSum));
        shapes.push(paper_spec(&q, Form::Hpct));
    }
    Workload {
        name: "paper_sql",
        why: "SIGMOD Tables 2 and 4-6 and DMKD Table 3 as SQL through the service: 1 to 585k result rows, so output path, WAL and per-query fixed costs dominate",
        tables: vec![
            ("employee", 1_000_000),
            ("sales", 1_000_000),
            ("transactionLine", 1_000_000),
            ("uscensus", 200_000),
        ],
        shapes,
        append_to: None,
        repeats: 1,
        tail_percentile: 0.91,
    }
}

fn paper_spec(q: &BenchQuery, form: Form) -> Spec {
    let group_by = if form == Form::Vpct {
        q.totals.iter().chain(&q.by).copied().collect()
    } else {
        q.totals.clone()
    };
    Spec {
        table: q.dataset.table_name(),
        measure: q.dataset.measure(),
        group_by,
        by: q.by.clone(),
        form,
        lanes: Vec::new(),
        grouping: Grouping::Flat,
    }
}

/// Narrow horizontal results over 1M rows: nearly all time is the scan.
fn scan_kernels() -> Workload {
    let h = |table, measure, group_by: &[&'static str], by: &[&'static str], form, lanes| Spec {
        table,
        measure,
        group_by: group_by.to_vec(),
        by: by.to_vec(),
        form,
        lanes,
        grouping: Grouping::Flat,
    };
    let mut shapes = Vec::new();
    // Dense vectorized path (d = 50 integer BY), then the RLE path over the
    // day-sorted copy of the same rows.
    for table in ["facts", "facts_sorted"] {
        shapes.push(h(table, "amt", &["store"], &["day"], Form::Hpct, vec![]));
        shapes.push(h(
            table,
            "amt",
            &["store"],
            &["day"],
            Form::HorizontalSum,
            vec![],
        ));
    }
    // Bit-packed path: dictionary-encoded string dimensions.
    shapes.push(h(
        "employee",
        "salary",
        &["gender"],
        &["marstatus"],
        Form::Hpct,
        vec![],
    ));
    shapes.push(h(
        "employee",
        "salary",
        &["educat"],
        &["gender", "marstatus"],
        Form::Hpct,
        vec![],
    ));
    shapes.push(h(
        "employee",
        "salary",
        &["gender", "marstatus"],
        &["educat"],
        Form::Hpct,
        vec![],
    ));
    shapes.push(h(
        "employee",
        "salary",
        &["educat"],
        &["gender", "marstatus"],
        Form::HorizontalSum,
        vec![],
    ));
    // Holistic scalar path. ~9.9k rows per store group stay exact; the two
    // gender groups outgrow the exact budget and spill to a t-digest.
    shapes.push(h(
        "facts",
        "amt",
        &["store"],
        &["day"],
        Form::Hpct,
        vec![Lane::Median],
    ));
    shapes.push(h(
        "facts",
        "amt",
        &["store"],
        &["day"],
        Form::Hpct,
        vec![Lane::Percentile(0.9)],
    ));
    shapes.push(h(
        "employee",
        "salary",
        &["gender"],
        &["marstatus"],
        Form::Hpct,
        vec![Lane::Median, Lane::ApproxPercentile(0.5)],
    ));
    Workload {
        name: "scan_kernels",
        why: "at most ~101 result groups over 1M rows on the dense, RLE, bit-packed and holistic kernel paths: scan time dominates, output path and WAL barely matter",
        tables: vec![
            ("facts", 1_000_000),
            ("facts_sorted", 1_000_000),
            ("employee", 1_000_000),
        ],
        shapes,
        append_to: None,
        repeats: 1,
        tail_percentile: 0.86,
    }
}

/// CUBE / ROLLUP / GROUPING SETS beside a stream of appends to the same
/// table: lattice levels are cold after each write and warm between.
fn cube_append() -> Workload {
    let s = |group_by: &[&'static str], by: &[&'static str], form, grouping| Spec {
        table: "cube",
        measure: "amt",
        group_by: group_by.to_vec(),
        by: by.to_vec(),
        form,
        lanes: Vec::new(),
        grouping,
    };
    let shapes = vec![
        s(
            &["region", "month", "day"],
            &["day"],
            Form::Vpct,
            Grouping::Rollup,
        ),
        s(
            &["region", "month", "day"],
            &["day"],
            Form::Vpct,
            Grouping::Cube,
        ),
        s(
            &["store", "region"],
            &["region"],
            Form::Vpct,
            Grouping::Sets(vec![vec!["store", "region"], vec!["store"]]),
        ),
        s(
            &["store", "month"],
            &["month"],
            Form::Vpct,
            Grouping::Rollup,
        ),
        s(&["region", "month"], &["day"], Form::Hpct, Grouping::Cube),
        s(
            &["region", "store"],
            &["month"],
            Form::Hpct,
            Grouping::Rollup,
        ),
        s(
            &["region"],
            &["day"],
            Form::Hpct,
            Grouping::Sets(vec![vec!["region"], vec![]]),
        ),
    ];
    Workload {
        name: "cube_append",
        why: "CUBE/ROLLUP/GROUPING SETS Vpct and Hpct, each run 3 times after a 1,000-row append to the same table: lattice cache cold then warm, invalidation, WAL writes",
        tables: vec![("cube", 1_000_000)],
        shapes,
        append_to: Some("cube"),
        repeats: 3,
        tail_percentile: 0.88,
    }
}

/// splitmix64: the benchmark's own seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw from `0..n`.
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// Per-table seed: the run seed mixed with the table name, so tables of
/// one run are independent.
fn table_seed(seed: u64, table: &str) -> u64 {
    let mut rng = SplitMix(seed);
    table.bytes().fold(rng.next(), |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Integer dimension columns plus an `amt` measure in `0..1000` (zero
/// included), the shape of `pa_bench::lcg_fact_table` and `lcg_cube_table`.
fn int_fact_table(rows: usize, seed: u64, dims: &[(&str, u64)]) -> Table {
    let mut rng = SplitMix(seed);
    let mut data: Vec<Vec<i64>> = vec![Vec::with_capacity(rows); dims.len()];
    let mut amt = Vec::with_capacity(rows);
    for _ in 0..rows {
        for (col, &(_, card)) in data.iter_mut().zip(dims) {
            col.push(rng.below(card));
        }
        amt.push(rng.below(1000) as f64);
    }
    let mut fields: Vec<(&str, DataType)> = dims.iter().map(|&(n, _)| (n, DataType::Int)).collect();
    fields.push(("amt", DataType::Float));
    let schema = Schema::from_pairs(&fields)
        .expect("static schema")
        .into_shared();
    let mut columns: Vec<Column> = data
        .into_iter()
        .map(|data| Column::Int {
            data,
            validity: Bitmap::filled(rows, true),
        })
        .collect();
    columns.push(Column::Float {
        data: amt,
        validity: Bitmap::filled(rows, true),
    });
    Table::from_columns(schema, columns).expect("columns match schema")
}

const FACT_DIMS: [(&str, u64); 2] = [("store", 101), ("day", 50)];
const CUBE_DIMS: [(&str, u64); 4] = [("store", 23), ("day", 7), ("region", 5), ("month", 12)];

fn cube_row(rng: &mut SplitMix) -> Vec<Value> {
    let mut row: Vec<Value> = CUBE_DIMS
        .iter()
        .map(|&(_, c)| Value::Int(rng.below(c)))
        .collect();
    row.push(Value::Float(rng.below(1000) as f64));
    row
}

fn generate_table(name: &str, rows: usize, run_seed: u64) -> Table {
    let seed = table_seed(run_seed, name);
    match name {
        "employee" => pa_workload::employee_table(&EmployeeConfig { rows, seed }),
        "sales" => pa_workload::sales_table(&SalesConfig { rows, seed }),
        "transactionLine" => pa_workload::transaction_line_table(&TransactionConfig { rows, seed }),
        "uscensus" => pa_workload::uscensus_table(&CensusConfig { rows, seed }),
        "facts" => int_fact_table(rows, seed, &FACT_DIMS),
        // The same rows as `facts` (same seed), sorted by day so the RLE
        // path sees long runs.
        "facts_sorted" => {
            int_fact_table(rows, table_seed(run_seed, "facts"), &FACT_DIMS).sorted_by(&[1])
        }
        "cube" => int_fact_table(rows, seed, &CUBE_DIMS),
        other => unreachable!("no generator for table {other}"),
    }
}
