//! Deterministic seeded case runner behind the `proptest!` macro.

use crate::strategy::{Strategy, TestRng};
use rand::SeedableRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runner configuration (`#![proptest_config(ProptestConfig::with_cases(n))]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// FNV-1a, so each test gets a stable seed derived from its own name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// PA_PROPTEST_SEED replays a reported failure: a test harness input, not
// engine configuration.
#[allow(clippy::disallowed_methods)]
fn base_seed(test_name: &str) -> (u64, bool) {
    match std::env::var("PA_PROPTEST_SEED") {
        Ok(s) => {
            let seed = s
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("PA_PROPTEST_SEED must be a u64, got {s:?}"));
            (seed, true)
        }
        Err(_) => (fnv1a(test_name.as_bytes()), false),
    }
}

/// Run `config.cases` generated inputs through `test_fn`, panicking with a
/// seed-bearing report on the first failure.
pub fn run_cases<S, F>(test_name: &str, config: &ProptestConfig, strategy: &S, test_fn: F)
where
    S: Strategy,
    F: Fn(S::Value),
{
    let (seed, overridden) = base_seed(test_name);
    for case in 0..config.cases {
        // Independent per-case rng so any failing case reproduces from the
        // printed base seed regardless of how earlier cases consumed bits.
        let mut rng =
            TestRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let input = strategy.generate(&mut rng);
        let desc = format!("{input:?}");
        let result = catch_unwind(AssertUnwindSafe(|| test_fn(input)));
        if let Err(payload) = result {
            eprintln!(
                "proptest failure in `{test_name}` (case {case}/{total}, seed {seed}{src})\n\
                 \x20 input: {desc}\n\
                 \x20 rerun: PA_PROPTEST_SEED={seed} cargo test {test_name}",
                total = config.cases,
                src = if overridden {
                    ", from PA_PROPTEST_SEED"
                } else {
                    ", derived from test name"
                },
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run_cases(
            "runs_all_cases",
            &ProptestConfig::with_cases(17),
            &(0i64..100),
            |_v| counter.set(counter.get() + 1),
        );
        count += counter.get();
        assert_eq!(count, 17);
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = |_: ()| {
            let vals = std::cell::RefCell::new(Vec::new());
            run_cases(
                "deterministic_across_runs",
                &ProptestConfig::with_cases(8),
                &(0i64..1000),
                |v| vals.borrow_mut().push(v),
            );
            vals.into_inner()
        };
        assert_eq!(collect(()), collect(()));
    }

    #[test]
    fn failure_carries_seed_report() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cases(
                "failure_carries_seed_report",
                &ProptestConfig::with_cases(50),
                &(0i64..10),
                |v| assert!(v < 5, "boom"),
            )
        }));
        assert!(result.is_err(), "a case >= 5 must fail within 50 cases");
    }
}
