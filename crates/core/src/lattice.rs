//! Dimension-lattice planning — the paper's multi-term and multi-query
//! optimizations.
//!
//! SIGMOD §3.1: "If m > 1 then partial aggregations need to be computed
//! bottom-up based on the dimension lattice to speed up computation", and
//! §6 (future work): "A set of percentage queries on the same table may be
//! efficiently evaluated using shared summaries."
//!
//! Both reduce to the same idea, borrowed from cube computation
//! [Gray et al. 1996]: an aggregation level `L` (a set of grouping columns)
//! can be computed from any already-materialized level `S ⊇ L` because
//! `sum()` is distributive — and the smallest such ancestor is the cheapest
//! source. This module plans where each level comes from and evaluates the
//! plan (DESIGN.md §15):
//!
//! * When the fact table must be scanned at all, every uncached level
//!   *rides the same scan* through the fused multi-level kernel
//!   ([`pa_engine::lattice_aggregate`]): one pass codes each row
//!   once and scatters every measure into every level's accumulators —
//!   for every input, float keys and non-fusable lanes included.
//! * Each level's merged partial is serialized into the catalog's
//!   [`pa_storage::LatticeCache`], so a later query at the same level — or
//!   at any coarser level — re-derives its totals from a cached partial
//!   instead of rescanning `F`. [`plan_levels_cached`] arbitrates sources
//!   with per-source cost constants: an exact cached partial beats a cached
//!   finer ancestor beats a freshly planned ancestor beats a fact scan,
//!   *regardless of arity* (arity only breaks ties within a source kind).
//! * [`plan_levels`] remains the cache-oblivious bottom-up planner the
//!   original lattice evaluation used.
//!
//! [`eval_vpct_lattice`] evaluates a multi-term `Vpct` query with that
//! plan; [`eval_vpct_batch`] shares one fused summary scan across a whole
//! set of percentage queries.

use crate::error::{CoreError, Result};
use crate::query::{VpctQuery, VpctTerm};
use crate::vertical::QueryResult;
use pa_engine::{
    create_table_as, hash_aggregate, hash_join, lattice_aggregate, AggFunc, AggSpec, ExecStats,
    Expr, JoinType, ProjSpec, ResourceGuard, ShardPartial,
};
use pa_storage::{Catalog, Column, DataType, Field, FxHashMap, LatticeEntry, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One aggregation level: a set of grouping columns (stored sorted,
/// case-normalized, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Level(Vec<String>);

impl Level {
    /// Normalize a column list into a level.
    pub fn new(cols: &[String]) -> Level {
        let mut v: Vec<String> = cols.iter().map(|c| c.to_ascii_lowercase()).collect();
        v.sort();
        v.dedup();
        Level(v)
    }

    /// Number of grouping columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether `self` can be computed from `other` (`self ⊆ other`).
    pub fn subset_of(&self, other: &Level) -> bool {
        self.0.iter().all(|c| other.0.binary_search(c).is_ok())
    }

    /// The normalized columns.
    pub fn columns(&self) -> &[String] {
        &self.0
    }

    /// `(a, b)` rendering for plans and EXPLAIN output.
    pub fn render(&self) -> String {
        format!("({})", self.0.join(", "))
    }
}

/// Cost constant of serving a level from an exact cached partial.
pub const COST_CACHED: u32 = 0;
/// Cost constant of re-aggregating a cached finer partial.
pub const COST_CACHED_ANCESTOR: u32 = 1;
/// Cost constant of re-aggregating a level materialized earlier in the
/// same plan.
pub const COST_PLANNED: u32 = 2;
/// Cost constant of scanning the fact table.
pub const COST_FACT_SCAN: u32 = 3;

/// Where a level's aggregation reads from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelSource {
    /// Scan the fact table (through the fused multi-level kernel when the
    /// plan is eligible; all `FactTable` levels share one scan).
    FactTable,
    /// Re-aggregate the previously planned level at this index.
    Planned(usize),
    /// Deserialize this level's exact cached partial.
    Cached,
    /// Re-aggregate the cached partial of this finer level.
    CachedAncestor(Level),
}

impl LevelSource {
    /// Per-source cost constant. A cached partial always beats a planned
    /// ancestor, however small the planned ancestor is — deserializing
    /// ready groups is cheaper than re-running an aggregation — and any
    /// derivation beats rescanning `F`. Arity never enters the constant;
    /// it only breaks ties *within* one source kind.
    pub fn cost(&self) -> u32 {
        match self {
            LevelSource::Cached => COST_CACHED,
            LevelSource::CachedAncestor(_) => COST_CACHED_ANCESTOR,
            LevelSource::Planned(_) => COST_PLANNED,
            LevelSource::FactTable => COST_FACT_SCAN,
        }
    }
}

/// One step of a lattice plan: materialize `level` from `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStep {
    /// The level to materialize.
    pub level: Level,
    /// Its cheapest available source.
    pub source: LevelSource,
}

/// Plan the materialization order for a set of needed levels plus the root
/// (the full GROUP BY), ignoring any cache. Returns steps root-first; each
/// non-root level reads from its minimal already-planned ancestor, falling
/// back to the fact table when none covers it (which can only happen for
/// the root). This is the serial bottom-up plan; the fused evaluator uses
/// [`plan_levels_cached`].
pub fn plan_levels(root: &Level, needed: &[Level]) -> Vec<LevelStep> {
    let mut steps = vec![LevelStep {
        level: root.clone(),
        source: LevelSource::FactTable,
    }];
    for level in distinct_non_root(root, needed) {
        let source = match min_planned_ancestor(&level, &steps) {
            Some((i, _)) => LevelSource::Planned(i),
            None => LevelSource::FactTable,
        };
        steps.push(LevelStep { level, source });
    }
    steps
}

/// Distinct needed levels excluding the root, widest first so later levels
/// can reuse them.
fn distinct_non_root(root: &Level, needed: &[Level]) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    for l in needed {
        if l != root && !levels.contains(l) {
            levels.push(l.clone());
        }
    }
    levels.sort_by_key(|l| std::cmp::Reverse(l.arity()));
    levels
}

/// Minimal already-planned ancestor of `level`, as `(step index, arity)`.
fn min_planned_ancestor(level: &Level, steps: &[LevelStep]) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (i, step) in steps.iter().enumerate() {
        if level.subset_of(&step.level) {
            let arity = step.level.arity();
            if best.is_none_or(|(_, a)| arity < a) {
                best = Some((i, arity));
            }
        }
    }
    best
}

/// Minimal cached *strict* superset of `level` (ties broken by column
/// names so the plan is deterministic whatever order the cache lists
/// levels in).
fn min_cached_ancestor(level: &Level, cached: &[Level]) -> Option<Level> {
    cached
        .iter()
        .filter(|c| *c != level && level.subset_of(c))
        .min_by(|a, b| a.arity().cmp(&b.arity()).then(a.columns().cmp(b.columns())))
        .cloned()
}

/// Plan the materialization order for `root` plus `needed`, arbitrating
/// each level between the lattice cache, earlier plan steps, and the fact
/// table by the per-source cost constants.
///
/// * The root prefers its exact cached partial, then (only when
///   `reaggregate_root` — false when the query carries extra aggregates,
///   whose finalized values cannot be re-derived from an ancestor) the
///   minimal cached finer partial, then a fact scan.
/// * When the root scans, every uncached non-empty level **rides the same
///   fused scan** (`FactTable`): the one-pass kernel makes the marginal
///   cost of an extra level a scatter per row, below a post-hoc
///   re-aggregation — except a level whose exact partial is cached, which
///   is served from cache and stays out of the scan.
/// * When the root is served from cache, no scan happens at all: each
///   level takes the cheapest of exact-cache / cached-ancestor / planned
///   ancestor by `(cost, arity)`, so a cached finer partial beats a
///   smaller-but-uncached planned ancestor.
/// * The empty (grand-total) level never scans — the kernel has no
///   zero-dimension lane — and always derives from the smallest source.
pub fn plan_levels_cached(
    root: &Level,
    needed: &[Level],
    cached: &[Level],
    reaggregate_root: bool,
) -> Vec<LevelStep> {
    let root_source = if cached.contains(root) {
        LevelSource::Cached
    } else if reaggregate_root {
        match min_cached_ancestor(root, cached) {
            Some(anc) => LevelSource::CachedAncestor(anc),
            None => LevelSource::FactTable,
        }
    } else {
        LevelSource::FactTable
    };
    let root_scans = root_source == LevelSource::FactTable;
    let mut steps = vec![LevelStep {
        level: root.clone(),
        source: root_source,
    }];
    for level in distinct_non_root(root, needed) {
        let source = if cached.contains(&level) {
            LevelSource::Cached
        } else {
            let mut candidates: Vec<(u32, usize, LevelSource)> = Vec::new();
            if let Some(anc) = min_cached_ancestor(&level, cached) {
                candidates.push((
                    COST_CACHED_ANCESTOR,
                    anc.arity(),
                    LevelSource::CachedAncestor(anc),
                ));
            }
            if root_scans && level.arity() > 0 {
                // Riding the already-required fused scan beats planning a
                // re-aggregation afterwards, but not reading a cached
                // partial: rank it between the two.
                candidates.push((COST_PLANNED, 0, LevelSource::FactTable));
            } else if let Some((i, arity)) = min_planned_ancestor(&level, &steps) {
                candidates.push((COST_PLANNED, arity, LevelSource::Planned(i)));
            }
            candidates
                .into_iter()
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .map(|(_, _, s)| s)
                .unwrap_or(LevelSource::FactTable)
        };
        steps.push(LevelStep { level, source });
    }
    steps
}

/// Identity of the aggregate lanes a query's lattice partials carry: one
/// `name=func(measure)` clause per percentage term and per extra
/// aggregate, in lane order. Cached partials are keyed by this signature
/// so a lookup with different measures (or differently named lanes) never
/// resurrects a partial of the wrong shape. The BY lists deliberately do
/// not participate: they choose *which levels* a query needs, not what
/// the lanes contain, so queries differing only in BY share partials.
pub fn lattice_signature(q: &VpctQuery) -> String {
    let mut parts: Vec<String> = q
        .terms
        .iter()
        .map(|t| format!("{}=sum({})", t.name, t.measure.sql()))
        .collect();
    for e in &q.extra {
        let m = e
            .measure
            .as_ref()
            .map(|m| m.sql())
            .unwrap_or_else(|| "*".into());
        parts.push(format!("{}={}({})", e.name, e.func.sql_name(), m));
    }
    parts.join(";")
}

/// The levels a query's plan may consult: the root, every term's totals
/// level, and (returned separately by the callers that need it) cached
/// supersets thereof.
fn wanted_levels(q: &VpctQuery) -> (Level, Vec<Level>, Vec<Level>) {
    let root = Level::new(&q.group_by);
    let needed: Vec<Level> = q
        .terms
        .iter()
        .map(|t| Level::new(&q.totals_key(t)))
        .collect();
    let mut wanted = vec![root.clone()];
    for l in &needed {
        if !wanted.contains(l) {
            wanted.push(l.clone());
        }
    }
    (root, needed, wanted)
}

/// Kernel dimension indices for `level`: positions of its columns within
/// the root GROUP BY list, strictly increasing as the fused kernel
/// requires.
fn level_dims(level: &Level, group_by: &[String]) -> Vec<usize> {
    let mut dims: Vec<usize> = level
        .columns()
        .iter()
        .map(|c| {
            group_by
                .iter()
                .position(|g| g.eq_ignore_ascii_case(c))
                .expect("level ⊆ group_by")
        })
        .collect();
    dims.sort_unstable();
    dims
}

/// Project `src` down to `names` (in order), preserving each column's
/// stored name and type.
fn select_named(src: &Table, names: &[String], stats: &mut ExecStats) -> Result<Table> {
    let schema = src.schema();
    let mut specs = Vec::with_capacity(names.len());
    for n in names {
        let pos = schema.index_of(n).map_err(CoreError::from)?;
        let f = schema.field_at(pos);
        specs.push(ProjSpec::typed(Expr::Col(pos), f.name.clone(), f.dtype));
    }
    Ok(pa_engine::project(src, &specs, stats)?)
}

/// Re-aggregate the distributive term sums of `src` down to `level_cols`
/// (each term's sum column summed again), producing the standard level
/// layout `[level_cols in the given order][one sum per term]`.
fn reaggregate_level(
    src: &Table,
    level_cols: &[String],
    terms: &[VpctTerm],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Table> {
    let schema = src.schema();
    let group_cols: Vec<usize> = level_cols
        .iter()
        .map(|n| schema.index_of(n).map_err(CoreError::from))
        .collect::<Result<Vec<_>>>()?;
    let specs: Vec<AggSpec> = terms
        .iter()
        .map(|t| {
            let pos = schema.index_of(&t.name)?;
            Ok(AggSpec::new(AggFunc::Sum, Expr::Col(pos), t.name.clone()))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(hash_aggregate(src, &group_cols, &specs, guard, stats)?)
}

/// Position of `name` in `t`'s schema, matching case-insensitively (the
/// batch evaluator mixes query spellings with fact-schema spellings).
fn position_of(t: &Table, name: &str) -> Result<usize> {
    t.schema()
        .fields()
        .iter()
        .position(|f| f.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CoreError::InvalidQuery(format!("unknown column {name}")))
}

/// Bring a finalized level partial into the batch's canonical layout —
/// `names` columns in order, rows sorted by the leading `key_len` key
/// columns. A table already in that column order is returned as-is:
/// [`ShardPartial::finalize`] sorted it by exactly those keys. A cached
/// partial stored by a batch with a different union order is reordered
/// and re-sorted.
fn canonical_level(
    t: Table,
    names: &[String],
    key_len: usize,
    stats: &mut ExecStats,
) -> Result<Table> {
    let matches = t.num_columns() == names.len()
        && t.schema()
            .fields()
            .iter()
            .zip(names)
            .all(|(f, n)| f.name.eq_ignore_ascii_case(n));
    if matches {
        return Ok(t);
    }
    let t = select_named(&t, names, stats)?;
    let key_cols: Vec<usize> = (0..key_len).collect();
    Ok(t.sorted_by(&key_cols))
}

/// The generated `CASE WHEN total <> 0 THEN p/total ELSE NULL END`:
/// NULL when the totals group summed to nothing, zero, or the group's own
/// sum is NULL.
#[inline]
fn pct_value(p: Option<f64>, total: f64, any: bool) -> Value {
    if !any || total == 0.0 {
        return Value::Null;
    }
    match p {
        Some(p) => Value::Float(p / total),
        None => Value::Null,
    }
}

/// One percentage lane over a materialized level: divide each group's sum
/// (column `sum_pos`) by its total at the `totals_pos` columns, where the
/// totals re-aggregate the level's own distributive sums. When the totals
/// columns are the level's leading sort keys, each totals group is a
/// contiguous run and no hashing happens at all — the common shape for
/// BY-suffix batches, whose totals are key-order prefixes. Otherwise a
/// key-fragment hash aggregates the totals (fragments are comparable
/// within one table; NULL groups with NULL, matching join semantics).
fn pct_lane(
    fk: &Table,
    totals_pos: &[usize],
    sum_pos: usize,
    stats: &mut ExecStats,
) -> Result<Column> {
    let n = fk.num_rows();
    let sums = fk.column(sum_pos);
    let mut pct = Column::with_capacity(DataType::Float, n);
    let mut sorted_pos: Vec<usize> = totals_pos.to_vec();
    sorted_pos.sort_unstable();
    if sorted_pos.iter().copied().eq(0..sorted_pos.len()) {
        let keys: Vec<&Column> = sorted_pos.iter().map(|&c| fk.column(c)).collect();
        let mut start = 0usize;
        for r in 1..=n {
            let boundary = r == n
                || keys
                    .iter()
                    .any(|c| c.key_fragment(r) != c.key_fragment(r - 1));
            if !boundary {
                continue;
            }
            let mut total = 0.0;
            let mut any = false;
            for i in start..r {
                if let Some(x) = sums.get_f64(i) {
                    total += x;
                    any = true;
                }
            }
            for i in start..r {
                pct.push(pct_value(sums.get_f64(i), total, any))?;
            }
            start = r;
        }
    } else {
        let mut totals: FxHashMap<Vec<Option<i64>>, (f64, bool)> = FxHashMap::default();
        for r in 0..n {
            let key: Vec<Option<i64>> = totals_pos
                .iter()
                .map(|&c| fk.column(c).key_fragment(r))
                .collect();
            let e = totals.entry(key).or_insert((0.0, false));
            if let Some(x) = sums.get_f64(r) {
                e.0 += x;
                e.1 = true;
            }
        }
        for r in 0..n {
            let key: Vec<Option<i64>> = totals_pos
                .iter()
                .map(|&c| fk.column(c).key_fragment(r))
                .collect();
            let (total, any) = totals[&key];
            pct.push(pct_value(sums.get_f64(r), total, any))?;
        }
    }
    stats.rows_scanned += 2 * n as u64;
    stats.case_condition_evals += n as u64;
    Ok(pct)
}

/// Evaluate a multi-term vertical percentage query on the dimension
/// lattice: every uncached level from one fused scan of `F`, cached levels
/// from the lattice catalog, then one join-and-divide pass. Produces the
/// same table as [`crate::eval_vpct`]; identical totals levels across
/// terms are computed once, and each freshly scanned level's partial is
/// cached for later queries.
///
/// `guard` meters every aggregate and join in the lattice plan.
pub fn eval_vpct_lattice(
    catalog: &Catalog,
    q: &VpctQuery,
    prefix: &str,
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    q.validate()?;
    let mut stats = ExecStats::default();
    let statements = crate::codegen::vpct_statements(q, &crate::strategy::VpctStrategy::best());

    let f_shared = catalog.table(&q.table)?;
    let f = f_shared.read();
    let f_schema = f.schema().clone();
    let k_cols: Vec<usize> = q
        .group_by
        .iter()
        .map(|n| {
            f_schema
                .index_of(n)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let k_len = k_cols.len();

    // Aggregate lanes: one sum per term plus extras, exactly like eval_vpct.
    let mut fk_specs: Vec<AggSpec> = Vec::new();
    for term in &q.terms {
        fk_specs.push(AggSpec::new(
            AggFunc::Sum,
            term.measure.to_expr(&f_schema)?,
            term.name.clone(),
        ));
    }
    for extra in &q.extra {
        let input = match (&extra.func, &extra.measure) {
            (AggFunc::CountStar, _) => Expr::lit(1),
            (_, Some(m)) => m.to_expr(&f_schema)?,
            (f, None) => {
                return Err(CoreError::InvalidQuery(format!(
                    "{} requires a measure",
                    f.sql_name()
                )));
            }
        };
        fk_specs.push(AggSpec::new(extra.func, input, extra.name.clone()));
    }

    // Probe the lattice catalog: every wanted level (counted lookups), plus
    // cached finer supersets that could serve as re-aggregation sources
    // (non-counting probe first, so only usable entries count as hits).
    let (root, needed, wanted) = wanted_levels(q);
    let signature = lattice_signature(q);
    let cache = catalog.lattice_cache();
    let mut entries: HashMap<Level, Arc<LatticeEntry>> = HashMap::new();
    for l in &wanted {
        if let Some(e) = cache.get(&q.table, l.columns(), &signature) {
            entries.insert(l.clone(), e);
        }
    }
    for cols in cache.levels_for(&q.table) {
        let l = Level::new(&cols);
        if entries.contains_key(&l)
            || !wanted.iter().any(|w| w.subset_of(&l))
            || !cache.probe(&q.table, l.columns(), &signature)
        {
            continue;
        }
        if let Some(e) = cache.get(&q.table, l.columns(), &signature) {
            entries.insert(l, e);
        }
    }
    let mut cached_levels: Vec<Level> = entries.keys().cloned().collect();
    cached_levels.sort_by(|a, b| a.columns().cmp(b.columns()));

    let steps = plan_levels_cached(&root, &needed, &cached_levels, q.extra.is_empty());
    stats.lattice_levels += steps.len() as u64;

    // One fused scan covers every FactTable step (the root is always among
    // them when any step scans).
    let scan_idx: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.source == LevelSource::FactTable)
        .map(|(i, _)| i)
        .collect();
    let mut scan_tables: HashMap<usize, Table> = HashMap::new();
    if !scan_idx.is_empty() {
        debug_assert_eq!(scan_idx[0], 0, "non-root levels only scan with the root");
        let dims: Vec<Vec<usize>> = scan_idx
            .iter()
            .map(|&i| level_dims(&steps[i].level, &q.group_by))
            .collect();
        let partials = lattice_aggregate(&f, &k_cols, &fk_specs, &dims, guard, &mut stats)?;
        stats.levels_from_scan += partials.len() as u64;
        for (&i, partial) in scan_idx.iter().zip(partials) {
            cache.store(
                &q.table,
                steps[i].level.columns(),
                &signature,
                partial.serialize(),
            );
            scan_tables.insert(i, partial.finalize(&mut stats)?);
        }
    }
    drop(f);

    // Materialize each step. Layout contract downstream of here:
    // the root table is [q.group_by order][terms][extras]; every other
    // level is [its columns in normalized order][one sum per term].
    let term_names: Vec<String> = q.terms.iter().map(|t| t.name.clone()).collect();
    let mut level_tables: Vec<Table> = Vec::with_capacity(steps.len());
    for (idx, step) in steps.iter().enumerate() {
        let table = match &step.source {
            LevelSource::FactTable => {
                let t = scan_tables
                    .remove(&idx)
                    .expect("the scan covers every scan step");
                if idx == 0 {
                    // The kernel's root keys follow q.group_by order already.
                    t
                } else {
                    let mut names = step.level.columns().to_vec();
                    names.extend(term_names.iter().cloned());
                    select_named(&t, &names, &mut stats)?
                }
            }
            LevelSource::Planned(i) => reaggregate_level(
                &level_tables[*i],
                step.level.columns(),
                &q.terms,
                guard,
                &mut stats,
            )?,
            LevelSource::Cached => {
                stats.levels_from_cache += 1;
                let e = entries
                    .get(&step.level)
                    .expect("cached source holds an entry");
                let t = ShardPartial::deserialize(&e.bytes)?.finalize(&mut stats)?;
                let mut names = if idx == 0 {
                    q.group_by.clone()
                } else {
                    step.level.columns().to_vec()
                };
                names.extend(term_names.iter().cloned());
                if idx == 0 {
                    names.extend(q.extra.iter().map(|e| e.name.clone()));
                }
                select_named(&t, &names, &mut stats)?
            }
            LevelSource::CachedAncestor(anc) => {
                stats.levels_from_cache += 1;
                let e = entries.get(anc).expect("cached ancestor holds an entry");
                let t = ShardPartial::deserialize(&e.bytes)?.finalize(&mut stats)?;
                let cols = if idx == 0 {
                    q.group_by.clone()
                } else {
                    step.level.columns().to_vec()
                };
                reaggregate_level(&t, &cols, &q.terms, guard, &mut stats)?
            }
        };
        level_tables.push(table);
    }

    // Join the root against each term's totals level and divide.
    let mut cur = level_tables[0].clone();
    let fk_width_orig = cur.num_columns();
    let mut pct_exprs: Vec<Expr> = Vec::new();
    for (t, term) in q.terms.iter().enumerate() {
        let totals_level = Level::new(&q.totals_key(term));
        let sum_pos = k_len + t;
        if totals_level.arity() == 0 {
            // Global totals: the paper's corner case; take the grand total
            // from the root's sums.
            let mut grand = 0.0;
            let mut any = false;
            for r in 0..level_tables[0].num_rows() {
                if let Some(x) = level_tables[0].get(r, sum_pos).as_f64() {
                    grand += x;
                    any = true;
                }
            }
            stats.rows_scanned += level_tables[0].num_rows() as u64;
            let total = if any {
                pa_storage::Value::Float(grand)
            } else {
                pa_storage::Value::Null
            };
            pct_exprs.push(Expr::Col(sum_pos).safe_div(Expr::Lit(total)));
            continue;
        }
        let (step_idx, _) = steps
            .iter()
            .enumerate()
            .find(|(_, s)| s.level == totals_level)
            .expect("level was planned");
        let fj = &level_tables[step_idx];
        let j_len = totals_level.arity();
        // Join keys: totals columns, positioned in `cur` via the root's
        // group-by order, and 0..j_len in the level table.
        let cur_keys: Vec<usize> = totals_level
            .columns()
            .iter()
            .map(|n| {
                q.group_by
                    .iter()
                    .position(|g| g.eq_ignore_ascii_case(n))
                    .expect("totals ⊆ group_by")
            })
            .collect();
        let fj_keys: Vec<usize> = (0..j_len).collect();
        // Level tables carry one re-aggregated sum per term, in term order;
        // term t's total lands just past the joined-in key columns.
        let total_pos = cur.num_columns() + j_len + t;
        cur = hash_join(
            &cur,
            fj,
            &cur_keys,
            &fj_keys,
            JoinType::Inner,
            None,
            guard,
            &mut stats,
        )?;
        pct_exprs.push(Expr::Col(sum_pos).safe_div(Expr::Col(total_pos)));
    }

    // Final projection, matching eval_vpct's output layout.
    let mut projections: Vec<ProjSpec> = Vec::new();
    for (i, name) in q.group_by.iter().enumerate() {
        projections.push(ProjSpec::typed(
            Expr::Col(i),
            name.clone(),
            cur.schema().field_at(i).dtype,
        ));
    }
    for (t, term) in q.terms.iter().enumerate() {
        projections.push(ProjSpec::typed(
            pct_exprs[t].clone(),
            term.name.clone(),
            pa_storage::DataType::Float,
        ));
    }
    for (e, extra) in q.extra.iter().enumerate() {
        let pos = k_len + q.terms.len() + e;
        debug_assert!(pos < fk_width_orig);
        projections.push(ProjSpec::typed(
            Expr::Col(pos),
            extra.name.clone(),
            cur.schema().field_at(pos).dtype,
        ));
    }
    let fv = pa_engine::project(&cur, &projections, &mut stats)?;
    let shared = create_table_as(catalog, &format!("{prefix}FV"), fv, &mut stats)?;
    Ok(QueryResult {
        table: shared,
        stats,
        statements,
    })
}

/// Render the lattice plan a query would execute with right now — one line
/// per level, naming the chosen source — for EXPLAIN output. `cache_table`
/// is the table name the execution path will key the lattice cache with
/// (the pinned snapshot alias when the executor runs the query, so EXPLAIN
/// and execution agree on cache visibility). Probing never perturbs the
/// cache's hit/miss counters.
pub fn lattice_plan_lines(catalog: &Catalog, q: &VpctQuery, cache_table: &str) -> Vec<String> {
    let (root, needed, wanted) = wanted_levels(q);
    let signature = lattice_signature(q);
    let cache = catalog.lattice_cache();
    let mut cached: Vec<Level> = Vec::new();
    for l in &wanted {
        if cache.probe(cache_table, l.columns(), &signature) {
            cached.push(l.clone());
        }
    }
    for cols in cache.levels_for(cache_table) {
        let l = Level::new(&cols);
        if !cached.contains(&l)
            && wanted.iter().any(|w| w.subset_of(&l))
            && cache.probe(cache_table, l.columns(), &signature)
        {
            cached.push(l);
        }
    }
    cached.sort_by(|a, b| a.columns().cmp(b.columns()));
    let steps = plan_levels_cached(&root, &needed, &cached, q.extra.is_empty());
    steps
        .iter()
        .map(|step| {
            let source = match &step.source {
                LevelSource::FactTable => "scan".to_string(),
                LevelSource::Planned(i) => {
                    format!("projected-from {}", steps[*i].level.render())
                }
                LevelSource::Cached => "cache".to_string(),
                LevelSource::CachedAncestor(anc) => {
                    format!("cache (re-aggregated from {})", anc.render())
                }
            };
            format!("-- lattice: level {} <- {}", step.level.render(), source)
        })
        .collect()
}

/// Evaluate a batch of single-measure percentage queries against the same
/// fact table with one **shared summary**: a partial aggregate at the union
/// of every query's GROUP BY, from which each query's `Fk` re-aggregates
/// (SIGMOD §6 future work). The summary — and each query's exact grouping
/// level — is computed by the fused multi-level kernel in a single scan of
/// `F` and cached in the lattice catalog, so a repeat batch (or a batch
/// whose union is covered by a cached partial) never rescans the fact
/// table. Queries must share the table and carry no extra aggregate terms.
/// Results are returned in input order and registered as `{prefix}q{i}_FV`.
///
/// `guard` is shared across the whole batch: the summary scan and every
/// per-query evaluation draw from the same row budget.
pub fn eval_vpct_batch(
    catalog: &Catalog,
    queries: &[VpctQuery],
    prefix: &str,
    guard: &ResourceGuard,
) -> Result<Vec<QueryResult>> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let table = &queries[0].table;
    for q in queries {
        q.validate()?;
        if &q.table != table {
            return Err(CoreError::Unsupported(
                "batched queries must target the same fact table".into(),
            ));
        }
        if !q.extra.is_empty() {
            return Err(CoreError::Unsupported(
                "batched evaluation supports percentage terms only".into(),
            ));
        }
    }

    // Distinct measures across the batch, and the union grouping level.
    let mut measures: Vec<crate::query::Measure> = Vec::new();
    for q in queries {
        for t in &q.terms {
            if !measures.contains(&t.measure) {
                measures.push(t.measure.clone());
            }
        }
    }
    let mut union_cols: Vec<String> = Vec::new();
    for q in queries {
        for g in &q.group_by {
            if !union_cols.iter().any(|c| c.eq_ignore_ascii_case(g)) {
                union_cols.push(g.clone());
            }
        }
    }

    let mut stats = ExecStats::default();
    let f_shared = catalog.table(table)?;
    let f = f_shared.read();
    let f_schema = f.schema().clone();
    let union_idx: Vec<usize> = union_cols
        .iter()
        .map(|n| f_schema.index_of(n).map_err(CoreError::from))
        .collect::<Result<Vec<_>>>()?;
    let specs: Vec<AggSpec> = measures
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Ok(AggSpec::new(
                AggFunc::Sum,
                m.to_expr(&f_schema)?,
                format!("__m{i}"),
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    let signature = measures
        .iter()
        .enumerate()
        .map(|(i, m)| format!("__m{i}=sum({})", m.sql()))
        .collect::<Vec<_>>()
        .join(";");
    let mut summary_names: Vec<String> = union_cols.clone();
    summary_names.extend((0..measures.len()).map(|i| format!("__m{i}")));

    // The union level plus each query's exact grouping level, all ⊆ union:
    // the fused kernel evaluates every one of them in the same scan.
    let union_level = Level::new(&union_cols);
    let mut levels: Vec<Level> = vec![union_level.clone()];
    for q in queries {
        let l = Level::new(&q.group_by);
        if !levels.contains(&l) {
            levels.push(l);
        }
    }
    stats.lattice_levels += levels.len() as u64;
    let cache = catalog.lattice_cache();

    // Canonical layout for every materialized level: its columns in union
    // order, then one partial sum per measure.
    let level_names = |l: &Level| -> Vec<String> {
        let mut names: Vec<String> = union_cols
            .iter()
            .filter(|c| l.columns().iter().any(|lc| lc.eq_ignore_ascii_case(c)))
            .cloned()
            .collect();
        names.extend((0..measures.len()).map(|i| format!("__m{i}")));
        names
    };

    // One scan of F builds every level — unless a compatible union partial
    // is already cached, in which case F is never read and each grouping
    // level comes from its own cache entry (or re-aggregates from the
    // summary below).
    let mut level_tables: HashMap<Level, Table> = HashMap::new();
    if let Some(entry) = cache.get(table, union_level.columns(), &signature) {
        drop(f);
        stats.levels_from_cache += 1;
        let t = ShardPartial::deserialize(&entry.bytes)?.finalize(&mut stats)?;
        let canon = canonical_level(t, &summary_names, union_cols.len(), &mut stats)?;
        level_tables.insert(union_level.clone(), canon);
        for l in levels.iter().skip(1) {
            if let Some(e) = cache.get(table, l.columns(), &signature) {
                stats.levels_from_cache += 1;
                let t = ShardPartial::deserialize(&e.bytes)?.finalize(&mut stats)?;
                let canon = canonical_level(t, &level_names(l), l.arity(), &mut stats)?;
                level_tables.insert(l.clone(), canon);
            }
        }
    } else {
        let dims: Vec<Vec<usize>> = levels.iter().map(|l| level_dims(l, &union_cols)).collect();
        let partials = lattice_aggregate(&f, &union_idx, &specs, &dims, guard, &mut stats)?;
        stats.levels_from_scan += partials.len() as u64;
        for (l, partial) in levels.iter().zip(partials) {
            cache.store(table, l.columns(), &signature, partial.serialize());
            // Kernel key order is the union order already; finalize sorts
            // by it.
            level_tables.insert(l.clone(), partial.finalize(&mut stats)?);
        }
        drop(f);
    }

    let summary_name = format!("{prefix}summary");
    let summary = level_tables
        .get(&union_level)
        .expect("union level is always materialized")
        .clone();
    create_table_as(catalog, &summary_name, summary, &mut stats)?;

    // Any grouping level still missing (the cache evicted it) re-aggregates
    // the summary's distributive sums.
    let missing: Vec<Level> = levels
        .iter()
        .skip(1)
        .filter(|l| !level_tables.contains_key(l))
        .cloned()
        .collect();
    for l in missing {
        let derived = {
            let src = level_tables
                .get(&union_level)
                .expect("union level is always materialized");
            let group_cols: Vec<usize> = (0..union_cols.len())
                .filter(|&c| {
                    l.columns()
                        .iter()
                        .any(|lc| lc.eq_ignore_ascii_case(&union_cols[c]))
                })
                .collect();
            let mspecs: Vec<AggSpec> = (0..measures.len())
                .map(|m| {
                    AggSpec::new(
                        AggFunc::Sum,
                        Expr::Col(union_cols.len() + m),
                        format!("__m{m}"),
                    )
                })
                .collect();
            hash_aggregate(src, &group_cols, &mspecs, guard, &mut stats)?
        };
        let key_cols: Vec<usize> = (0..l.arity()).collect();
        level_tables.insert(l, derived.sorted_by(&key_cols));
    }

    // Each query divides its own grouping level directly: the totals
    // re-aggregate that level's partial sums (distributive), so no join,
    // no re-hash of the group keys, and no per-row expression evaluation.
    let mut out = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let mut rq = q.clone();
        rq.table = summary_name.clone();
        for term in &mut rq.terms {
            let m_idx = measures
                .iter()
                .position(|m| m == &term.measure)
                .expect("collected");
            term.measure = crate::query::Measure::Column(format!("__m{m_idx}"));
        }
        let statements =
            crate::codegen::vpct_statements(&rq, &crate::strategy::VpctStrategy::best());

        let fk = level_tables
            .get(&Level::new(&q.group_by))
            .expect("every grouping level is materialized");
        let n = fk.num_rows() as u64;
        let mut qstats = ExecStats::default();
        let width = q.group_by.len() + q.terms.len();
        let mut fields: Vec<Field> = Vec::with_capacity(width);
        let mut cols: Vec<Column> = Vec::with_capacity(width);
        for name in &q.group_by {
            let pos = position_of(fk, name)?;
            fields.push(Field::new(name.clone(), fk.schema().field_at(pos).dtype));
            cols.push(fk.column(pos).clone());
        }
        for term in &q.terms {
            let m_idx = measures
                .iter()
                .position(|m| m == &term.measure)
                .expect("collected");
            let sum_pos = position_of(fk, &format!("__m{m_idx}"))?;
            let totals_pos = q
                .totals_key(term)
                .iter()
                .map(|c| position_of(fk, c))
                .collect::<Result<Vec<_>>>()?;
            guard.charge(2 * n)?;
            qstats.statements += 1;
            fields.push(Field::new(term.name.clone(), DataType::Float));
            cols.push(pct_lane(fk, &totals_pos, sum_pos, &mut qstats)?);
        }
        let fv = Table::from_columns(Schema::new(fields)?.into_shared(), cols)?;
        let shared = create_table_as(catalog, &format!("{prefix}q{i}_FV"), fv, &mut qstats)?;
        let mut result = QueryResult {
            table: shared,
            stats: qstats,
            statements,
        };
        // Fold the shared-summary cost into the first result's accounting.
        if i == 0 {
            result.stats += stats;
            stats = ExecStats::default();
        }
        out.push(result);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::VpctTerm;
    use crate::strategy::VpctStrategy;
    use crate::vertical::eval_vpct;
    use crate::vertical::tests::sales_catalog;
    use pa_storage::Value;

    /// The unlimited guard the direct operator calls below run under.
    const G: ResourceGuard = ResourceGuard::unlimited();

    fn level(cols: &[&str]) -> Level {
        Level::new(&cols.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn level_normalization_and_subset() {
        let a = level(&["B", "a"]);
        assert_eq!(a.columns(), &["a".to_string(), "b".to_string()]);
        assert!(level(&["a"]).subset_of(&a));
        assert!(!a.subset_of(&level(&["a"])));
        assert!(level(&[]).subset_of(&a));
        assert_eq!(level(&["a", "a"]).arity(), 1);
    }

    #[test]
    fn plan_chains_nested_levels() {
        // Root {a,b,c,d}; needed {a,b,c}, {a,b}, {a}: each from the previous.
        let root = level(&["a", "b", "c", "d"]);
        let needed = vec![level(&["a"]), level(&["a", "b", "c"]), level(&["a", "b"])];
        let steps = plan_levels(&root, &needed);
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].level, level(&["a", "b", "c"]));
        assert_eq!(steps[1].source, LevelSource::Planned(0));
        assert_eq!(steps[2].level, level(&["a", "b"]));
        assert_eq!(steps[2].source, LevelSource::Planned(1), "minimal ancestor");
        assert_eq!(steps[3].source, LevelSource::Planned(2));
    }

    #[test]
    fn plan_deduplicates_levels() {
        let root = level(&["a", "b"]);
        let needed = vec![level(&["a"]), level(&["a"]), root.clone()];
        let steps = plan_levels(&root, &needed);
        assert_eq!(steps.len(), 2, "duplicate + root folded away");
    }

    #[test]
    fn plan_incomparable_levels_both_read_root() {
        let root = level(&["a", "b"]);
        let needed = vec![level(&["a"]), level(&["b"])];
        let steps = plan_levels(&root, &needed);
        assert_eq!(steps[1].source, LevelSource::Planned(0));
        assert_eq!(steps[2].source, LevelSource::Planned(0));
    }

    #[test]
    fn plan_cached_prefers_cached_partial_over_smaller_planned_ancestor() {
        // Satellite: a cached finer partial must beat a smaller-but-uncached
        // materialized ancestor — the per-source cost constant decides, not
        // arity.
        let root = level(&["a", "b", "c", "d"]);
        let cached = vec![root.clone(), level(&["a", "b", "c"])];
        let needed = vec![level(&["a", "b"]), level(&["a"])];
        let steps = plan_levels_cached(&root, &needed, &cached, true);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(
            steps[1].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        // {a}: the freshly planned {a,b} (arity 2) is smaller than the
        // cached {a,b,c} (arity 3), yet the cached partial wins the tie.
        assert_eq!(steps[2].level, level(&["a"]));
        assert_eq!(
            steps[2].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        assert!(
            LevelSource::CachedAncestor(level(&["x"])).cost() < LevelSource::Planned(0).cost(),
            "cost constants encode the preference"
        );
    }

    #[test]
    fn plan_cached_exact_hit_beats_every_ancestor() {
        let root = level(&["a", "b"]);
        let cached = vec![root.clone(), level(&["a"])];
        let steps = plan_levels_cached(&root, &[level(&["a"])], &cached, true);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(steps[1].source, LevelSource::Cached);
    }

    #[test]
    fn plan_uncached_levels_ride_the_fused_scan() {
        let root = level(&["a", "b", "c"]);
        let needed = vec![level(&["a", "b"]), level(&["a"]), level(&[])];
        let steps = plan_levels_cached(&root, &needed, &[], true);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].source, LevelSource::FactTable, "rides the scan");
        assert_eq!(steps[2].source, LevelSource::FactTable, "rides the scan");
        // The grand total can never scan (the kernel has no zero-dimension
        // lane); it re-aggregates from the smallest planned level.
        assert_eq!(steps[3].level, level(&[]));
        assert_eq!(steps[3].source, LevelSource::Planned(2));
    }

    #[test]
    fn plan_exact_cached_level_stays_out_of_the_scan() {
        let root = level(&["a", "b"]);
        let cached = vec![level(&["a"])];
        let steps = plan_levels_cached(&root, &[level(&["a"]), level(&["b"])], &cached, true);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].level, level(&["a"]));
        assert_eq!(steps[1].source, LevelSource::Cached);
        assert_eq!(steps[2].source, LevelSource::FactTable);
    }

    #[test]
    fn plan_root_reaggregation_gated_by_extras() {
        let root = level(&["a", "b"]);
        let cached = vec![level(&["a", "b", "c"])];
        let with = plan_levels_cached(&root, &[], &cached, true);
        assert_eq!(
            with[0].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        // Extra aggregates (count(*), avg) cannot re-derive from a coarser
        // projection of an ancestor partial: the root must scan.
        let without = plan_levels_cached(&root, &[], &cached, false);
        assert_eq!(without[0].source, LevelSource::FactTable);
    }

    #[test]
    fn lattice_matches_reference_on_multi_term_query() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_", &G).unwrap();
        let lattice = eval_vpct_lattice(&catalog, &q, "l_", &G).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lattice_shares_duplicate_totals_levels() {
        // Two terms with the same BY list: the totals level is computed once.
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![VpctTerm::new("salesAmt", &["city"]), {
                let mut t = VpctTerm::new("salesAmt", &["city"]);
                t.name = "second_copy".into();
                t
            }],
            extra: vec![],
        };
        let per_term = eval_vpct(&catalog, &q, &VpctStrategy::best(), "p_", &G).unwrap();
        let lattice = eval_vpct_lattice(&catalog, &q, "l_", &G).unwrap();
        let a: Vec<Vec<Value>> = per_term.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
        assert!(
            lattice.stats.rows_scanned < per_term.stats.rows_scanned,
            "lattice {} vs per-term {}",
            lattice.stats.rows_scanned,
            per_term.stats.rows_scanned
        );
    }

    #[test]
    fn lattice_counters_track_scan_and_cache() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        // Totals levels: BY city → {state}; BY state,city → {} (the grand
        // total, which derives and never scans). Three levels in all.
        let cold = eval_vpct_lattice(&catalog, &q, "c_", &G).unwrap();
        assert_eq!(cold.stats.lattice_levels, 3);
        assert_eq!(cold.stats.levels_from_scan, 2, "root and {{state}}");
        assert_eq!(cold.stats.levels_from_cache, 0);
        let warm = eval_vpct_lattice(&catalog, &q, "w_", &G).unwrap();
        assert_eq!(warm.stats.levels_from_scan, 0, "no rescan when cached");
        assert_eq!(
            warm.stats.levels_from_cache, 3,
            "both cached levels plus the grand total re-aggregated from one"
        );
        let a: Vec<Vec<Value>> = cold.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = warm.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b, "cache-warm result identical to cache-cold");
    }

    #[test]
    fn coarser_query_reuses_cached_finer_partial() {
        let catalog = sales_catalog();
        // Fine query caches partials for {state,city} and {city}; the lane
        // name is pinned so the coarse query's signature matches.
        let mut fine_term = VpctTerm::new("salesAmt", &["city"]);
        fine_term.name = "p".into();
        let fine = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![fine_term],
            extra: vec![],
        };
        eval_vpct_lattice(&catalog, &fine, "f_", &G).unwrap();
        // Coarse query at {city}: not cached exactly, but {city} ⊂ the
        // cached {city,state} partial — served by re-aggregating it, never
        // rescanning the fact table.
        let mut coarse_term = VpctTerm::new("salesAmt", &[]);
        coarse_term.name = "p".into();
        let coarse = VpctQuery {
            table: "sales".into(),
            group_by: vec!["city".into()],
            terms: vec![coarse_term],
            extra: vec![],
        };
        let result = eval_vpct_lattice(&catalog, &coarse, "g_", &G).unwrap();
        assert_eq!(result.stats.levels_from_scan, 0, "no fact scan");
        assert!(result.stats.levels_from_cache > 0);
        // Against the direct reference.
        let mut ref_term = VpctTerm::new("salesAmt", &[]);
        ref_term.name = "p".into();
        let reference = eval_vpct(
            &catalog,
            &VpctQuery {
                table: "sales".into(),
                group_by: vec!["city".into()],
                terms: vec![ref_term],
                extra: vec![],
            },
            &VpctStrategy::best(),
            "r_",
            &G,
        )
        .unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0]).rows().collect();
        let b: Vec<Vec<Value>> = result.snapshot().sorted_by(&[0]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn explain_lines_name_sources_and_flip_to_cache() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        let cold = lattice_plan_lines(&catalog, &q, "sales");
        assert_eq!(
            cold,
            vec![
                "-- lattice: level (city, state) <- scan",
                "-- lattice: level (state) <- scan",
                "-- lattice: level () <- projected-from (state)",
            ]
        );
        let before = catalog.lattice_cache().stats();
        eval_vpct_lattice(&catalog, &q, "l_", &G).unwrap();
        let warm = lattice_plan_lines(&catalog, &q, "sales");
        assert_eq!(
            warm,
            vec![
                "-- lattice: level (city, state) <- cache",
                "-- lattice: level (state) <- cache",
                "-- lattice: level () <- cache (re-aggregated from (state))",
            ]
        );
        // EXPLAIN probes never count as hits or misses.
        let after = catalog.lattice_cache().stats();
        assert_eq!(after.hits, before.hits);
    }

    #[test]
    fn batch_shares_one_summary() {
        let catalog = sales_catalog();
        let q1 = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let q2 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let results = eval_vpct_batch(&catalog, &[q1.clone(), q2.clone()], "b_", &G).unwrap();
        assert_eq!(results.len(), 2);
        // Batched results equal per-query evaluation.
        for (q, r) in [(q1, &results[0]), (q2, &results[1])] {
            let solo = eval_vpct(&catalog, &q, &VpctStrategy::best(), "s_", &G).unwrap();
            let a: Vec<Vec<Value>> = solo.snapshot().sorted_by(&[0, 1]).rows().collect();
            let b: Vec<Vec<Value>> = r.snapshot().sorted_by(&[0, 1]).rows().collect();
            assert_eq!(a, b, "{}", q.terms[0].name);
        }
        assert!(catalog.contains("b_summary"));
    }

    #[test]
    fn batch_summary_served_from_cache_on_repeat() {
        let catalog = sales_catalog();
        let qs = [
            VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]),
            VpctQuery::single("sales", &["state"], "salesAmt", &[]),
        ];
        let first = eval_vpct_batch(&catalog, &qs, "b1_", &G).unwrap();
        assert!(first[0].stats.levels_from_scan > 0);
        let second = eval_vpct_batch(&catalog, &qs, "b2_", &G).unwrap();
        assert!(second[0].stats.levels_from_cache > 0, "summary from cache");
        assert_eq!(second[0].stats.levels_from_scan, 0);
        for (a, b) in first.iter().zip(&second) {
            let x: Vec<Vec<Value>> = a.snapshot().sorted_by(&[0]).rows().collect();
            let y: Vec<Vec<Value>> = b.snapshot().sorted_by(&[0]).rows().collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn batch_rejects_mixed_tables_and_extras() {
        let catalog = sales_catalog();
        let q1 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let mut q2 = q1.clone();
        q2.table = "other".into();
        assert!(matches!(
            eval_vpct_batch(&catalog, &[q1.clone(), q2], "x_", &G),
            Err(CoreError::Unsupported(_))
        ));
        let mut q3 = q1.clone();
        q3.extra.push(crate::query::ExtraAgg::count_star("n"));
        assert!(matches!(
            eval_vpct_batch(&catalog, &[q3], "x_", &G),
            Err(CoreError::Unsupported(_))
        ));
        assert!(eval_vpct_batch(&catalog, &[], "x_", &G).unwrap().is_empty());
    }

    #[test]
    fn single_term_lattice_equals_reference() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_", &G).unwrap();
        let lattice = eval_vpct_lattice(&catalog, &q, "l_", &G).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lattice_handles_global_totals_term() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into()],
            terms: vec![VpctTerm::new("salesAmt", &[])],
            extra: vec![],
        };
        let result = eval_vpct_lattice(&catalog, &q, "g_", &G).unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(0, 1), Value::Float(106.0 / 255.0));
        assert_eq!(t.get(1, 1), Value::Float(149.0 / 255.0));
    }

    #[test]
    fn lattice_handles_extras_and_caches_them() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![VpctTerm::new("salesAmt", &["city"])],
            extra: vec![crate::query::ExtraAgg::count_star("n")],
        };
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_", &G).unwrap();
        let cold = eval_vpct_lattice(&catalog, &q, "c_", &G).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = cold.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
        // The exact root partial (terms + extras lanes) is cacheable even
        // though re-aggregating extras from an ancestor is not.
        let warm = eval_vpct_lattice(&catalog, &q, "w_", &G).unwrap();
        assert!(warm.stats.levels_from_cache > 0);
        assert_eq!(warm.stats.levels_from_scan, 0);
        let c: Vec<Vec<Value>> = warm.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, c);
    }
}
