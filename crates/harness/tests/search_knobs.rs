//! The conformance batteries are invariant under the serialization
//! search's memory knob: the bounded dead-end memo (`memo_capacity`) may
//! change how fast a history is judged, never what the judgment is —
//! pinned here for the full register battery and the typed-object
//! battery.

use tm_harness::{
    conformance_parallel, conformance_parallel_with, object_conformance, object_conformance_with,
    ConformanceReport, ObjectKind,
};
use tm_model::SpecRegistry;
use tm_opacity::{SearchConfig, SearchCore, SearchMode};
use tm_stm::{MutantStm, Mutation, TmRegistry};

/// Masks the one probabilistic component (real-thread lost-update probe)
/// so comparisons pin exactly the deterministic sweep.
fn normalize(mut r: ConformanceReport) -> ConformanceReport {
    r.no_lost_updates = true;
    r.violations.retain(|v| !v.starts_with("counter:"));
    r
}

#[test]
fn register_battery_is_invariant_under_tiny_memo_capacity() {
    // Eviction soundness: with an 8-entry table every verdict — including
    // the mutant's convictions — is unchanged.
    let search = SearchConfig {
        memo_capacity: Some(8),
        ..SearchConfig::default()
    };
    let reg = TmRegistry::suite();
    for tm in ["tl2", "nonopaque"] {
        let factory = reg.factory(tm).expect("suite TM");
        let baseline = normalize(conformance_parallel(&factory, 1));
        let bounded = normalize(conformance_parallel_with(&factory, 1, search));
        assert_eq!(baseline, bounded, "{tm} under memo_capacity=8");
    }
    let mutant = |k: usize| -> Box<dyn tm_stm::Stm> {
        Box::new(MutantStm::new(k, Mutation::SkipReadValidation))
    };
    let baseline = normalize(conformance_parallel(&mutant, 1));
    assert!(!baseline.opaque, "the mutant must be convicted");
    let bounded = normalize(conformance_parallel_with(&mutant, 1, search));
    assert_eq!(baseline, bounded, "mutant conviction under memo_capacity=8");
}

#[test]
fn typed_object_battery_is_invariant_under_search_knobs() {
    // The rich-semantics battery (incl. SI-STM's object-level write-skew
    // conviction) under bounded search, with the sweep sharded.
    let reg = TmRegistry::suite();
    let kinds = [ObjectKind::Set, ObjectKind::Counter, ObjectKind::Queue];
    for tm in ["tl2", "sistm"] {
        let factory = reg.factory(tm).expect("suite TM");
        let baseline = object_conformance(&factory, &kinds, 1);
        for cap in [8usize, 16] {
            let search = SearchConfig {
                memo_capacity: Some(cap),
                ..SearchConfig::default()
            };
            let knobs = object_conformance_with(&factory, &kinds, 2, search);
            assert_eq!(baseline, knobs, "{tm} typed battery under memo_cap={cap}");
        }
    }
}

#[test]
fn session_eviction_counter_is_reported_and_monotone() {
    // SearchStats.evictions: zero while unbounded, positive once the cap
    // binds, and the session's lifetime counter never decreases.
    let specs = SpecRegistry::registers();
    let h = tm_harness::random_history(
        &tm_harness::GenConfig {
            txs: 7,
            objs: 2,
            max_ops: 5,
            noise: 0.3,
            commit_pending: 0.2,
            abort: 0.2,
        },
        42,
    );
    let mut unbounded = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
    let mut bounded = SearchCore::new(
        &specs,
        SearchMode::OPACITY,
        SearchConfig {
            memo_capacity: Some(4),
            ..SearchConfig::default()
        },
    );
    let mut last = 0usize;
    for e in h.events() {
        unbounded.extend(e).unwrap();
        bounded.extend(e).unwrap();
        let u = unbounded.check().unwrap();
        let b = bounded.check().unwrap();
        assert_eq!(u.holds(), b.holds(), "verdicts diverge at {e}");
        assert_eq!(u.stats.evictions, 0, "unbounded session must not evict");
        let lifetime = bounded.lifetime_stats().evictions;
        assert!(lifetime >= last, "lifetime evictions must be monotone");
        assert_eq!(
            lifetime,
            bounded.memo_evictions(),
            "stats and accessor must agree"
        );
        last = lifetime;
    }
}
