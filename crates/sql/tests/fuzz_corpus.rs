//! Corpus-driven parser fuzzing.
//!
//! Three layers:
//!
//! 1. **Round-trip on a valid corpus**: every statement the dialect
//!    documents must parse, print canonically, and re-parse to the same
//!    AST — and the canonical text must be a fixpoint of print∘parse.
//! 2. **Mutation fuzzing**: thousands of splitmix64-seeded byte-level
//!    mutations (delete / insert / duplicate / truncate / swap) of the
//!    valid corpus. The contract is *typed errors, never panics*: each
//!    mutant either parses or returns an [`SqlError`], under
//!    `catch_unwind` so a panic is reported as the seed that found it.
//! 3. **Edge cases** the papers' grammar invites: empty `BY` lists,
//!    duplicate dimensions, reserved words as identifiers, unterminated
//!    strings, deep parenthesis nests — each pinned to a typed outcome.
//!
//! Deterministic by default; set `PA_FUZZ_SEED` to explore a different
//! mutation universe locally.

use pa_sql::{parse, parse_statement, validate, SqlError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every documented syntactic feature: plain aggregates, Vpct/Hpct,
/// horizontal `BY` on standard aggregates (DMKD Hagg), DISTINCT, DEFAULT,
/// aliases, WHERE, multi-term selects, ORDER BY, EXPLAIN [ANALYZE].
const VALID_CORPUS: &[&str] = &[
    "SELECT state, sum(salesAmt) FROM sales GROUP BY state;",
    "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city;",
    "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;",
    "SELECT state, Hpct(salesAmt) FROM sales GROUP BY state;",
    "SELECT state, sum(salesAmt BY city) FROM sales GROUP BY state;",
    "SELECT subdeptid, sum(salesAmt BY regionNo, monthNo) FROM t GROUP BY subdeptid;",
    "SELECT count(DISTINCT city) FROM sales;",
    "SELECT state, sum(salesAmt BY city DEFAULT 0) FROM sales GROUP BY state;",
    "SELECT state, sum(salesAmt) AS total FROM sales GROUP BY state;",
    "SELECT state, sum(a) FROM f WHERE a > 10 AND state <> 'NV' GROUP BY state;",
    "SELECT sum(price * qty BY region) FROM t GROUP BY s;",
    "SELECT state, Vpct(salesAmt BY dweek), Hpct(salesAmt BY dept) FROM sales GROUP BY state;",
    "SELECT state, sum(a) FROM f GROUP BY state ORDER BY 1;",
    "SELECT min(a), max(a), avg(a), count(a) FROM f;",
    "EXPLAIN SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;",
    "EXPLAIN ANALYZE SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city;",
];

#[test]
fn valid_corpus_round_trips_through_print_and_parse() {
    for sql in VALID_CORPUS {
        let first = parse_statement(sql).unwrap_or_else(|e| panic!("corpus entry {sql:?}: {e}"));
        let printed = first.to_string();
        let second = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} (from {sql:?}): {e}"));
        assert_eq!(first, second, "AST drift through print∘parse for {sql:?}");
        assert_eq!(
            printed,
            second.to_string(),
            "canonical text is not a fixpoint for {sql:?}"
        );
    }
}

/// splitmix64: tiny, deterministic, good enough to steer mutations.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One byte-level mutation. Output may be invalid UTF-8-free ASCII soup —
/// exactly what the tokenizer must survive.
fn mutate(rng: &mut SplitMix64, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    match rng.next() % 5 {
        0 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes.remove(i);
        }
        1 => {
            let i = rng.below(bytes.len() + 1);
            // Printable ASCII plus the dialect's significant punctuation.
            let pool = b"()*,;<>='\"% BYbyselectfromgroupwhere0123456789";
            bytes.insert(i, pool[rng.below(pool.len())]);
        }
        2 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            let b = bytes[i];
            bytes.insert(i, b);
        }
        3 if !bytes.is_empty() => {
            bytes.truncate(rng.below(bytes.len()));
        }
        _ if bytes.len() >= 2 => {
            let i = rng.below(bytes.len() - 1);
            bytes.swap(i, i + 1);
        }
        _ => {}
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The parser's panic-freedom contract over the mutated corpus: every
/// mutant yields `Ok` or a typed [`SqlError`]. A panic fails the test with
/// the seed, round and mutant that produced it.
#[test]
fn mutated_corpus_yields_typed_errors_never_panics() {
    // PA_FUZZ_SEED replays a reported seed: a test harness input, not
    // engine configuration.
    #[allow(clippy::disallowed_methods)]
    let seed = std::env::var("PA_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5eed_cafe_d00d_f00du64);
    let mut rng = SplitMix64(seed);
    let mut parsed = 0usize;
    let mut rejected = 0usize;
    for round in 0..200 {
        for base in VALID_CORPUS {
            let mut sql = (*base).to_string();
            // Stack 1..=3 mutations so errors occur mid-statement, not only
            // at the first broken token.
            for _ in 0..=rng.below(3) {
                sql = mutate(&mut rng, &sql);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| parse_statement(&sql)));
            match outcome {
                Ok(Ok(stmt)) => {
                    parsed += 1;
                    // Whatever parsed must still round-trip; validation may
                    // reject it, but with a typed rule error only.
                    let reparsed = parse_statement(&stmt.to_string())
                        .unwrap_or_else(|e| panic!("mutant {sql:?} printed unparseable text: {e}"));
                    assert_eq!(stmt, reparsed, "mutant {sql:?} round-trip drift");
                    let _: Result<_, SqlError> =
                        catch_unwind(AssertUnwindSafe(|| validate(stmt.select()))).unwrap_or_else(
                            |_| panic!("validate panicked (seed {seed:#x}) on mutant {sql:?}"),
                        );
                }
                Ok(Err(SqlError::Lex { .. } | SqlError::Parse { .. } | SqlError::Rule(_))) => {
                    rejected += 1;
                }
                Err(_) => panic!(
                    "parser panicked (seed {seed:#x}, round {round}) on mutant {sql:?} \
                     (base {base:?})"
                ),
            }
        }
    }
    // The corpus must actually exercise both sides of the contract.
    assert!(
        parsed > 100,
        "only {parsed} mutants parsed — mutator too hot"
    );
    assert!(
        rejected > 100,
        "only {rejected} mutants rejected — mutator too cold"
    );
}

fn expect_typed_error(sql: &str) -> SqlError {
    match catch_unwind(AssertUnwindSafe(|| {
        parse_statement(sql).and_then(|s| validate(s.select()).map(|_| s))
    })) {
        Ok(Ok(stmt)) => panic!("{sql:?} unexpectedly accepted as {stmt}"),
        Ok(Err(e)) => e,
        Err(_) => panic!("{sql:?} panicked instead of returning a typed error"),
    }
}

#[test]
fn empty_by_list_is_a_typed_error() {
    let e = expect_typed_error("SELECT state, Hpct(salesAmt BY) FROM sales GROUP BY state;");
    assert!(
        matches!(e, SqlError::Parse { .. }),
        "empty BY list should be a parse error, got {e}"
    );
    expect_typed_error("SELECT state, Vpct(salesAmt BY ) FROM sales GROUP BY state;");
}

#[test]
fn duplicate_dimensions_are_typed_errors() {
    // Duplicate BY dimension and duplicate GROUP BY column: rejected (as a
    // parse or usage-rule error), never a panic or silent double column.
    expect_typed_error(
        "SELECT state, city, Vpct(salesAmt BY city, city) FROM sales GROUP BY state, city;",
    );
    expect_typed_error("SELECT state, sum(a) FROM f GROUP BY state, state;");
}

#[test]
fn reserved_words_as_identifiers_are_typed_errors() {
    for sql in [
        "SELECT select FROM from;",
        "SELECT state FROM sales GROUP BY group;",
    ] {
        expect_typed_error(sql);
    }
    // Keywords are contextual, not absolutely reserved: in positions where
    // no clause keyword can follow (inside an aggregate's parens, in a BY
    // list) they are ordinary column names — and must round-trip like ones.
    for sql in [
        "SELECT sum(by) FROM t;",
        "SELECT state, Hpct(salesAmt BY where) FROM sales GROUP BY state;",
    ] {
        let stmt = parse(sql).expect("contextual keyword as column");
        assert_eq!(stmt, parse(&stmt.to_string()).unwrap());
    }
}

#[test]
fn pathological_inputs_stay_typed() {
    // Unterminated string, bare operators, empty input, stray semicolons.
    for sql in [
        "",
        ";",
        "SELECT 'unterminated FROM t;",
        "SELECT FROM GROUP BY;",
        "SELECT ((((( FROM t;",
        "GROUP BY GROUP BY GROUP BY",
    ] {
        let out = catch_unwind(AssertUnwindSafe(|| parse(sql)));
        match out {
            Ok(Ok(stmt)) => panic!("{sql:?} unexpectedly parsed as {stmt}"),
            Ok(Err(_)) => {}
            Err(_) => panic!("{sql:?} panicked"),
        }
    }
    // A deep-but-bounded parenthesis nest must not blow the stack.
    let deep = format!("SELECT {}a{} FROM t;", "(".repeat(200), ")".repeat(200));
    let out = catch_unwind(AssertUnwindSafe(|| parse(&deep)));
    assert!(out.is_ok(), "deep nest panicked (stack?)");
}
