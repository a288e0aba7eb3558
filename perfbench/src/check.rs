//! `check-mix`: the path `tmcheck check` takes — parse a text trace, check
//! it is well-formed, then search for a serialization — over a set of
//! contention knots and many small random traces, at 1 and 2 workers.

use std::time::Instant;

use tm_model::SpecRegistry;
use tm_opacity::search::{SearchConfig, SearchStats};

use crate::report::{
    latency_metrics, mean, median, median_secs, percentile, Digest, Kind, MemProbe, Outcome,
    Samples, SplitMix,
};
use crate::spans::{Tracer, ROOT};
use crate::Ctx;

/// Distinct small traces; each pass checks all of them.
const SMALL: usize = 256;
/// Transactions per small trace (the graph-characterization reference
/// enumerates every order, so it stays small).
const SMALL_TXS: usize = 5;
/// Timed passes over the small traces per round.
const SMALL_SAMPLES: usize = 8;
/// `setup_s` is the median over batches of `SETUP_BATCH` set-ups (one
/// set-up alone is too short to time), `SETUP_REPS` batches per round.
const SETUP_REPS: usize = 9;
const SETUP_BATCH: u32 = 200;

/// One trace in text form, with its reference verdict.
struct Trace {
    text: String,
    opaque: bool,
}

struct Inputs {
    knots: Vec<Trace>,
    small: Vec<Trace>,
    digest: u64,
}

fn inputs(seed: u64, specs: &SpecRegistry) -> Inputs {
    // The knot set's verdicts hold by construction: every history closes
    // with an impossible read except the monitor workload, which is opaque.
    let knots = vec![
        (tm_bench::search_knot_history(3, 4), false),
        (tm_bench::search_knot_history(5, 2), false),
        (tm_bench::rt_chain_knot_history(5, 4), false),
        (tm_bench::sequential_knot_search(15, 3), false),
        (tm_bench::monitor_workload(192), true),
    ];
    let mut rng = SplitMix::new(seed);
    let config = tm_harness::randhist::GenConfig {
        txs: SMALL_TXS,
        ..Default::default()
    };
    let small: Vec<Trace> = (0..SMALL)
        .map(|_| {
            let h = tm_harness::randhist::random_history(&config, rng.next());
            // Unique writes hold by construction, so Theorem 2 decides it.
            let opaque = tm_opacity::decide_via_graph(&h, specs, SMALL_TXS)
                .expect("random histories are graph-checkable")
                .opaque();
            Trace {
                text: tm_trace::to_text(&h),
                opaque,
            }
        })
        .collect();
    let knots: Vec<Trace> = knots
        .into_iter()
        .map(|(h, opaque)| Trace {
            text: tm_trace::to_text(&h),
            opaque,
        })
        .collect();
    let mut d = Digest::new();
    for t in knots.iter().chain(&small) {
        d.str(&t.text);
    }
    Inputs {
        knots,
        small,
        digest: d.finish(),
    }
}

fn config(jobs: usize) -> SearchConfig {
    SearchConfig {
        search_jobs: jobs,
        ..SearchConfig::default()
    }
}

/// The `tmcheck check` path on one trace: the verdict and search stats.
fn check(text: &str, specs: &SpecRegistry, jobs: usize) -> Result<(bool, SearchStats), String> {
    let h = tm_trace::from_text(text).map_err(|e| e.message)?;
    tm_model::check_well_formed(&h).map_err(|e| format!("{e:?}"))?;
    let r = tm_opacity::is_opaque_with(&h, specs, config(jobs)).map_err(|e| e.to_string())?;
    Ok((r.opaque, r.stats))
}

/// Checks every trace once, recording each check's latency in window
/// `round` of `lat` when given; verdicts are compared with the reference.
fn pass(
    traces: &[Trace],
    specs: &SpecRegistry,
    jobs: usize,
    mut lat: Option<(&mut Samples, usize)>,
    o: &mut Outcome,
) -> SearchStats {
    let mut total = SearchStats::default();
    for (i, t) in traces.iter().enumerate() {
        let start = Instant::now();
        let got = check(&t.text, specs, jobs);
        if let Some((lat, round)) = lat.as_mut() {
            lat.push(*round, start.elapsed().as_nanos() as u64);
        }
        match &got {
            Ok((opaque, stats)) => {
                add(&mut total, stats);
                o.check(*opaque == t.opaque, || {
                    format!(
                        "trace {i} at {jobs} workers: opaque={opaque}, reference {}",
                        t.opaque
                    )
                });
            }
            Err(e) => o.check(false, || format!("trace {i}: {e}")),
        }
    }
    total
}

fn add(total: &mut SearchStats, s: &SearchStats) {
    total.nodes += s.nodes;
    total.memo_hits += s.memo_hits;
    total.illegal_placements += s.illegal_placements;
    total.state_clones += s.state_clones;
    total.steals += s.steals;
    total.donated_tasks += s.donated_tasks;
    total.cancelled_tasks += s.cancelled_tasks;
}

/// The wall time of `f`, in seconds.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

pub fn run(ctx: &Ctx, o: &mut Outcome) {
    // The check path's set-up: the specification registry every check
    // resolves object types against.
    let setup = || {
        median_secs(SETUP_REPS, || {
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(SpecRegistry::registers());
            }
        }) / f64::from(SETUP_BATCH)
    };
    let specs = SpecRegistry::registers();
    let inputs = inputs(ctx.seed, &specs);
    o.input_digest = inputs.digest;
    o.config("knots", "search_knot(3,4) search_knot(5,2) rt_chain_knot(5,4) sequential_knot(15,3) monitor_workload(192)");
    o.config("small_traces", SMALL);
    o.config("small_txs", SMALL_TXS);
    if ctx.trace {
        return traced(ctx, &inputs, &specs, o);
    }
    // A round checks the knot set at 1 worker, the small traces
    // `SMALL_SAMPLES` times at 1 worker, then the knot set at 2 workers.
    // Every round checks the same mix, so a round is the latency window:
    // the knots take most of a round's time, and a one-second window would
    // hold a different mix depending on where it fell. Small traces are
    // not checked at 2 workers: there the second worker's start-up decides
    // their time, and their tail, which `op_p99_us` would sit on, follows
    // how soon the host schedules it rather than the search.
    let mut lat = Samples::new(Instant::now(), (ctx.seconds * 4_000.0) as usize);
    let mem = MemProbe::start();
    let start = Instant::now();
    let mut rounds = 0;
    let mut setups = Vec::new();
    // Per round, in seconds: the knot set at 1 worker, the small passes,
    // and the knot set at 2 workers.
    let (mut knots, mut small, mut par2) = (Vec::new(), Vec::new(), Vec::new());
    while rounds < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        // Set-ups are timed in every round, so their median spans the run.
        setups.push(setup());
        knots.push(timed(|| {
            pass(&inputs.knots, &specs, 1, Some((&mut lat, rounds)), o);
        }));
        small.push(timed(|| {
            for _ in 0..SMALL_SAMPLES {
                pass(&inputs.small, &specs, 1, Some((&mut lat, rounds)), o);
            }
        }));
        par2.push(timed(|| {
            pass(&inputs.knots, &specs, 2, Some((&mut lat, rounds)), o);
        }));
        rounds += 1;
    }
    let growth = mem.growth_mb();
    o.note("mem_hwm_reset", mem.reset);
    o.config("rounds", rounds);
    let round_s: Vec<f64> = (0..rounds).map(|r| knots[r] + small[r] + par2[r]).collect();
    let rates: Vec<f64> = round_s
        .iter()
        .zip(lat.per_window())
        .map(|(s, &n)| f64::from(n) / s)
        .collect();
    o.note("round_rates", format!("{rates:.1?}"));
    // The three figures the check path was first sized by, kept on the
    // provenance line: each is one part of every round.
    let small_rate = (SMALL * SMALL_SAMPLES * rounds) as f64 / small.iter().sum::<f64>();
    o.note("knots_check_s", median(&mut knots));
    o.note("small_checks_per_s", small_rate);
    o.note("knots_par2_check_s", median(&mut par2));
    o.metric("setup_s", median(&mut setups), "s");
    o.metric("mem_peak_mb", growth, "MB");
    o.metric(
        "ops_per_s",
        lat.len() as f64 / round_s.iter().sum::<f64>(),
        "1/s",
    );
    latency_metrics(o, &[&lat]);
}

fn traced(ctx: &Ctx, inputs: &Inputs, specs: &SpecRegistry, o: &mut Outcome) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 1 << 16);
    let mut plain: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                pass(&inputs.knots, specs, 1, None, o);
            })
        })
        .collect();
    let plain = median(&mut plain);

    // Knot set at 1 worker, one span tree per history.
    let mut one = SearchStats::default();
    let traced_knots = timed(|| traced_pass(&inputs.knots, specs, 1, 0, &mut tr, &mut one, o));
    let search_ns: u64 = tr.durations("search.check").iter().sum();
    o.count("search.nodes", one.nodes as f64, "count", Kind::Exact);
    o.metric(
        "search.nodes_per_s",
        one.nodes as f64 / (search_ns as f64 / 1e9),
        "1/s",
    );
    o.count(
        "search.memo_hit_ratio",
        one.memo_hits as f64 / (one.memo_hits + one.nodes).max(1) as f64,
        "ratio",
        Kind::Exact,
    );
    o.count(
        "search.illegal_per_node",
        one.illegal_placements as f64 / one.nodes.max(1) as f64,
        "ratio",
        Kind::Exact,
    );
    o.count(
        "search.state_clones",
        one.state_clones as f64,
        "count",
        Kind::Exact,
    );
    o.metric("overhead.knots_s", traced_knots - plain, "s");

    // Small traces at 1 worker: fixed per-check cost, per layer.
    let before = tr.spans.len();
    let mut small = SearchStats::default();
    for p in 0..4 {
        traced_pass(
            &inputs.small,
            specs,
            1,
            (p + 1) << 20,
            &mut tr,
            &mut small,
            o,
        );
    }
    let layer = |name: &str| -> Vec<u64> {
        let mut d: Vec<u64> = tr.spans[before..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur())
            .collect();
        d.sort_unstable();
        d
    };
    let checks = layer("search.check");
    o.metric("search.check_us", mean(&checks) / 1e3, "us");
    o.metric(
        "search.check_us_p99",
        percentile(&checks, 99.0) as f64 / 1e3,
        "us",
    );
    o.samples.push(("search.check_us_p99".into(), checks.len()));
    o.metric("trace.parse_us", mean(&layer("trace.parse")) / 1e3, "us");
    o.metric(
        "model.wellformed_us",
        mean(&layer("model.wellformed")) / 1e3,
        "us",
    );

    // Knot set at 2 workers: what parallelism adds and spends.
    let mut two = SearchStats::default();
    traced_pass(&inputs.knots, specs, 2, 9 << 20, &mut tr, &mut two, o);
    o.count(
        "search.2w.node_inflation",
        two.nodes as f64 / one.nodes.max(1) as f64,
        "ratio",
        Kind::Sched,
    );
    o.count("search.2w.steals", two.steals as f64, "count", Kind::Sched);
    o.count(
        "search.2w.donated_tasks",
        two.donated_tasks as f64,
        "count",
        Kind::Sched,
    );
    o.count(
        "search.2w.cancelled_tasks",
        two.cancelled_tasks as f64,
        "count",
        Kind::Sched,
    );
    o.note("small_nodes_per_pass", small.nodes / 4);
    o.note(
        "overhead",
        format!("knot set {traced_knots:.4} s traced vs {plain:.4} s untraced"),
    );
    let path = ctx.run_dir.join(format!("trace-{}.tsv", ctx.workload));
    match crate::spans::write_all(&path, &[&tr]) {
        Ok(()) => o.note("trace_file", path.display()),
        Err(e) => o.note("trace_file_error", e),
    }
}

/// One pass with a span per layer: `check.trace` (request id = history
/// index plus `base`) over `trace.parse`, `model.wellformed`, `search.check`.
fn traced_pass(
    traces: &[Trace],
    specs: &SpecRegistry,
    jobs: usize,
    base: u64,
    tr: &mut Tracer,
    total: &mut SearchStats,
    o: &mut Outcome,
) {
    for (i, t) in traces.iter().enumerate() {
        let req = base + i as u64;
        let root = tr.open("check.trace", ROOT, req);
        let h = tr.time("trace.parse", root, req, || tm_trace::from_text(&t.text));
        let verdict = h.map_err(|e| e.message).and_then(|h| {
            let wf = tr.time("model.wellformed", root, req, || {
                tm_model::check_well_formed(&h)
            });
            wf.map_err(|e| format!("{e:?}"))?;
            let r = tr.time("search.check", root, req, || {
                tm_opacity::is_opaque_with(&h, specs, config(jobs))
            });
            r.map_err(|e| e.to_string())
        });
        tr.close(root);
        match verdict {
            Ok(r) => {
                add(total, &r.stats);
                o.check(r.opaque == t.opaque, || {
                    format!("trace {i}: opaque={}", r.opaque)
                });
            }
            Err(e) => o.check(false, || format!("trace {i}: {e}")),
        }
    }
}

/// Exact counts of the check path for the self-test: 1-worker search nodes
/// over the knot set and over the small traces.
pub fn exact_counts(seed: u64) -> Vec<(String, u64)> {
    let specs = SpecRegistry::registers();
    let inputs = inputs(seed, &specs);
    let mut o = Outcome::default();
    let knots = pass(&inputs.knots, &specs, 1, None, &mut o);
    let small = pass(&inputs.small, &specs, 1, None, &mut o);
    [
        ("check-mix.input_digest", inputs.digest),
        ("check-mix.knots.nodes", knots.nodes as u64),
        ("check-mix.knots.memo_hits", knots.memo_hits as u64),
        (
            "check-mix.knots.illegal_placements",
            knots.illegal_placements as u64,
        ),
        ("check-mix.knots.state_clones", knots.state_clones as u64),
        ("check-mix.small.nodes", small.nodes as u64),
        ("check-mix.failed", o.failed),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec()
}
