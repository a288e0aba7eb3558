//! Property tests for the search's configuration knobs on arbitrary
//! histories: `search_jobs` — which no longer starts workers — must leave
//! every outcome exactly as at 1, and a bounded memo must never change an
//! answer, in one-shot checks and in resumed sessions alike.

use proptest::prelude::*;
use tm_harness::randhist::{random_history, GenConfig};
use tm_model::{History, SpecRegistry};
use tm_opacity::{SearchConfig, SearchCore, SearchMode, SearchOutcome};

/// A one-shot opacity check of `h` on a fresh core.
fn check(h: &History, specs: &SpecRegistry, config: SearchConfig) -> SearchOutcome {
    SearchCore::new(specs, SearchMode::OPACITY, config)
        .check_history(h)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random histories across three generator profiles: every
    /// `search_jobs` value, "auto" (0) included, yields the same outcome —
    /// witness and statistics — as the default of 1.
    #[test]
    fn parallel_search_is_verdict_identical_on_random_histories(
        seed in 0u64..10_000,
        profile in 0usize..3,
    ) {
        let config = match profile {
            0 => GenConfig::default(),
            1 => GenConfig {
                txs: 6,
                objs: 2,
                max_ops: 5,
                noise: 0.4,
                commit_pending: 0.3,
                abort: 0.2,
            },
            _ => GenConfig {
                txs: 5,
                objs: 1,
                max_ops: 4,
                noise: 0.6,
                commit_pending: 0.2,
                abort: 0.4,
            },
        };
        let h = random_history(&config, seed);
        let specs = SpecRegistry::registers();
        let one = check(&h, &specs, SearchConfig::default());
        for jobs in [0usize, 2, 8] {
            let config = SearchConfig {
                search_jobs: jobs,
                ..SearchConfig::default()
            };
            prop_assert_eq!(&check(&h, &specs, config), &one, "jobs={} on {}", jobs, h);
        }
    }

    /// A tight memo capacity must never change a verdict — eviction only
    /// costs recomputation.
    #[test]
    fn bounded_memo_is_verdict_identical_on_random_histories(
        seed in 0u64..10_000,
        cap in 1usize..24,
    ) {
        let h = random_history(&GenConfig::default(), seed);
        let specs = SpecRegistry::registers();
        let unbounded = check(&h, &specs, SearchConfig::default());
        let config = SearchConfig {
            memo_capacity: Some(cap),
            ..SearchConfig::default()
        };
        let out = check(&h, &specs, config);
        prop_assert_eq!(out.holds(), unbounded.holds(), "cap={} on {}", cap, h);
    }

    /// Session use (the monitor's shape): extending and re-checking a
    /// bounded session at every prefix matches fresh checks — the memo's
    /// invalidation rules compose with eviction.
    #[test]
    fn bounded_session_matches_batch_on_prefixes(seed in 0u64..3_000) {
        let config = GenConfig {
            txs: 5,
            objs: 2,
            max_ops: 4,
            noise: 0.3,
            commit_pending: 0.25,
            abort: 0.25,
        };
        let h = random_history(&config, seed);
        let specs = SpecRegistry::registers();
        let session_config = SearchConfig {
            memo_capacity: Some(8),
            ..SearchConfig::default()
        };
        let mut session = SearchCore::new(&specs, SearchMode::OPACITY, session_config);
        for (i, e) in h.events().iter().enumerate() {
            session.extend(e).unwrap();
            let live = session.check().unwrap().holds();
            let batch = check(&h.prefix(i + 1), &specs, SearchConfig::default()).holds();
            prop_assert_eq!(live, batch, "prefix {} of {}", i + 1, h);
        }
    }
}
