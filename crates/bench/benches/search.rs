//! The `search` bench: the memory-bounded serialization search.
//!
//! `search/obs/{disabled,enabled}` prices the batch opacity check of the
//! concurrent contention-knot workload ([`tm_bench::search_knot_history`])
//! with the observability handle off (the default no-op path, which must
//! stay at noise level) and with a live metrics sink attached. The
//! workload is non-opaque by construction, so every run exhausts the same
//! serialization space, with no early-exit variance.
//! `search/memo-cap/C` runs the phased knot workload under a bounded
//! dead-end table, measuring what eviction-induced re-exploration costs at
//! each capacity. The machine-readable companion numbers (bounded-memo
//! node overheads, verdict-latency percentiles under a streaming monitor
//! at several caps) are emitted by the `report` bin into
//! `BENCH_search.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tm_bench::{search_knot_history, sequential_knot_search};
use tm_model::{History, SpecRegistry};
use tm_opacity::{SearchConfig, SearchCore, SearchMode};

/// One batch check of a non-opaque workload, returning the nodes expanded.
fn check(h: &History, specs: &SpecRegistry, config: SearchConfig) -> usize {
    let out = SearchCore::new(specs, SearchMode::OPACITY, config)
        .check_history(h)
        .expect("workload is checkable");
    assert!(!out.holds(), "the knot workloads must stay non-opaque");
    out.stats.nodes
}

fn bench_search(c: &mut Criterion) {
    let specs = SpecRegistry::registers();
    let h = search_knot_history(3, 3);
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    // The observability axis: the identical check with the handle disabled
    // (the default — no sink, every call a no-op on a Copy handle) and
    // with a live sink installed. CI tracks the pair warn-only; the
    // disabled point must price at noise level (<2% of the uninstrumented
    // baseline), the enabled point prices the per-check fold plus the
    // per-kilonode liveness tick.
    for (label, config) in [
        ("disabled", SearchConfig::default()),
        (
            "enabled",
            SearchConfig {
                obs: tm_obs::ObsHandle::install(),
                ..SearchConfig::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("obs", label), &h, |b, h| {
            b.iter(|| check(h, &specs, config))
        });
    }
    // The bounded-memo axis rides the phased workload, whose peak table
    // dwarfs its live working set — the shape a capacity bound is for.
    // The peak is MEASURED from an unbounded run (a batch check never
    // invalidates mid-check, so the final resident count is the peak);
    // caps are the full peak, a half, and a quarter (the <20%-overhead
    // acceptance point), labeled by fraction so bench IDs stay stable if
    // the workload or engine shifts the absolute size.
    let hp = sequential_knot_search(15, 3);
    let peak = {
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        assert!(!s.check_history(&hp).expect("workload is checkable").holds());
        s.memo_resident().max(4)
    };
    for (label, cap) in [("full", peak), ("half", peak / 2), ("quarter", peak / 4)] {
        let config = SearchConfig {
            memo_capacity: Some(cap),
            ..SearchConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("memo-cap", label), &hp, |b, h| {
            b.iter(|| check(h, &specs, config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
