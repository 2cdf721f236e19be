//! Integration tests for experiment E1: compositional vs monolithic
//! verification agree, and the cost gap has the claimed shape.

use bip_core::dining_philosophers;
use bip_verify::dfinder::{linear_invariants, Abstraction};
use bip_verify::reach::explore;
use bip_verify::DFinder;
use proptest::prelude::*;

mod common;
use common::{linear_oracle, random_system};

#[test]
fn verdicts_agree_with_exact_checker_across_family() {
    for n in 2..=6 {
        for &two_phase in &[false, true] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let df = DFinder::new(&sys).check_deadlock_freedom();
            let exact = explore(&sys, 10_000_000);
            assert!(exact.complete, "n={n}");
            if df.verdict.is_deadlock_free() {
                assert!(
                    exact.deadlocks.is_empty(),
                    "unsound at n={n} two_phase={two_phase}"
                );
            } else {
                // Our candidates are allowed to be spurious in general, but
                // on this family they never are:
                assert!(
                    !exact.deadlocks.is_empty(),
                    "imprecise at n={n} two_phase={two_phase}"
                );
            }
        }
    }
}

#[test]
fn monolithic_state_count_grows_exponentially() {
    // Conservative variant: reachable states are independent sets on a
    // cycle (Lucas numbers, ratio → φ ≈ 1.62); two-phase adds the hasL
    // interleavings and grows faster. Both are exponential.
    for &two_phase in &[false, true] {
        let counts: Vec<usize> = (2..=7)
            .map(|n| explore(&dining_philosophers(n, two_phase).unwrap(), 10_000_000).states)
            .collect();
        for w in counts.windows(2) {
            assert!(
                w[1] as f64 / w[0] as f64 >= 1.25,
                "two_phase={two_phase}: {counts:?}"
            );
        }
        assert!(
            *counts.last().unwrap() as f64 / counts[0] as f64 >= 8.0,
            "two_phase={two_phase}: {counts:?}"
        );
    }
}

#[test]
fn compositional_abstraction_grows_linearly() {
    let sizes: Vec<usize> = (2..=8)
        .map(|n| {
            let sys = dining_philosophers(n, false).unwrap();
            let df = DFinder::new(&sys);
            df.abstraction().num_places
        })
        .collect();
    // Places = 4n: exactly linear.
    for (i, &s) in sizes.iter().enumerate() {
        assert_eq!(s, 4 * (i + 2));
    }
}

#[test]
fn gas_station_benchmark() {
    // The other standard D-Finder benchmark: one pump, k customers, an
    // operator. Customers prepay the operator, then pump.
    for k in 2..=4 {
        let sys = bench::gas_station(k);
        let df = DFinder::new(&sys).check_deadlock_freedom();
        let exact = explore(&sys, 1_000_000);
        assert!(exact.complete);
        assert!(exact.deadlocks.is_empty());
        assert!(df.verdict.is_deadlock_free(), "k={k}: {df:?}");
    }
}

/// The sparse fraction-free `linear_invariants` returns exactly the dense
/// rational oracle's list — order of invariants and of coefficients
/// included — under the default filters and unbounded ones.
fn assert_linear_matches_oracle(sys: &bip_core::System, what: &str) {
    let abs = Abstraction::new(sys);
    for (max_coeff, max_support) in [
        (DFinder::DEFAULT_MAX_COEFF, DFinder::DEFAULT_MAX_SUPPORT),
        (i64::MAX, usize::MAX),
    ] {
        assert_eq!(
            linear_invariants(&abs, max_coeff, max_support),
            linear_oracle::linear_invariants(&abs, max_coeff, max_support),
            "{what}, max_coeff={max_coeff}, max_support={max_support}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linear_invariants_match_dense_oracle_on_random_systems(seed in 0u64..3000) {
        assert_linear_matches_oracle(&random_system(seed), &format!("seed {seed}"));
    }
}

#[test]
fn linear_invariants_match_dense_oracle_on_families() {
    for k in 2..=40 {
        assert_linear_matches_oracle(&bench::gas_station(k), &format!("gas-{k}"));
    }
    for n in 2..=16 {
        for two_phase in [false, true] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            assert_linear_matches_oracle(&sys, &format!("phil-{n} two_phase={two_phase}"));
        }
    }
    for n in 2..=8 {
        assert_linear_matches_oracle(&bench::counter_ring(n, 3), &format!("cring-{n}"));
    }
}
