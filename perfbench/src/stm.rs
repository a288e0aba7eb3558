//! `stm-bank`: two threads of bank transfers and read-only audits on
//! `tl2` (single-version, invisible reads) and on `mvstm` (snapshot reads
//! from kept versions), with history recording off.

use std::time::Instant;

use tm_stm::{try_run_tx, MvStm, Stm, StmConfig, Tl2Stm, Tx, TxResult};

use crate::report::{
    latency_metrics, mean, median, percentile, Digest, Kind, MemProbe, Outcome, Samples, SplitMix,
};
use crate::spans::{Tracer, ROOT};
use crate::Ctx;

/// Accounts; an audit reads every one.
pub const ACCOUNTS: usize = 32;
const THREADS: usize = 2;
/// Transactions per thread per round.
const TXS: usize = 300_000;
/// Transactions per thread in the traced rounds.
const TRACED_TXS: usize = 40_000;
/// One transaction in `AUDIT_EVERY` is an audit, the rest transfers.
const AUDIT_EVERY: u64 = 8;
const BALANCE: i64 = 1_000;
const TOTAL: i64 = BALANCE * ACCOUNTS as i64;
/// Extra builds per round for a steadier `setup_s` median.
const SETUP_REPS: usize = 5;
/// One transaction in `SAMPLE_EVERY` (by index) has its latency recorded.
const SAMPLE_EVERY: usize = 16;
/// Transactions per second per thread the latency buffers have room for
/// (about three times what `tl2` reaches on a 2-vCPU host), so that the
/// buffers never grow inside the memory probe.
const MAX_RATE: f64 = 4e6;

#[derive(Clone, Copy)]
enum Op {
    Transfer { from: usize, to: usize, amount: i64 },
    Audit,
}

/// One operation list per thread.
fn plan(seed: u64, txs: usize) -> (Vec<Vec<Op>>, u64) {
    let mut rng = SplitMix::new(seed);
    let mut d = Digest::new();
    let plans = (0..THREADS)
        .map(|_| {
            (0..txs)
                .map(|_| {
                    let op = if rng.below(AUDIT_EVERY) == 0 {
                        Op::Audit
                    } else {
                        let from = rng.below(ACCOUNTS as u64) as usize;
                        let to = (from + 1 + rng.below(ACCOUNTS as u64 - 1) as usize) % ACCOUNTS;
                        Op::Transfer {
                            from,
                            to,
                            amount: 1 + rng.below(50) as i64,
                        }
                    };
                    match op {
                        Op::Audit => d.u64(u64::MAX),
                        Op::Transfer { from, to, amount } => {
                            d.u64(from as u64);
                            d.u64(to as u64);
                            d.u64(amount as u64);
                        }
                    }
                    op
                })
                .collect()
        })
        .collect();
    (plans, d.finish())
}

#[derive(Clone, Copy, PartialEq)]
pub enum Tm {
    Tl2,
    Mvstm,
}

impl Tm {
    fn name(self) -> &'static str {
        match self {
            Tm::Tl2 => "tl2",
            Tm::Mvstm => "mvstm",
        }
    }

    /// Builds the TM with every account funded.
    fn build(self) -> Box<dyn Stm> {
        let cfg = StmConfig::new(ACCOUNTS)
            .recording(false)
            .initial_values(vec![BALANCE; ACCOUNTS]);
        match self {
            Tm::Tl2 => Box::new(Tl2Stm::with_config(&cfg)),
            Tm::Mvstm => Box::new(MvStm::with_config(&cfg)),
        }
    }
}

fn body(op: Op, tx: &mut dyn Tx) -> TxResult<Option<i64>> {
    match op {
        Op::Transfer { from, to, amount } => {
            let a = tx.read(from)?;
            let b = tx.read(to)?;
            tx.write(from, a - amount)?;
            tx.write(to, b + amount)?;
            Ok(None)
        }
        Op::Audit => {
            let mut sum = 0;
            for i in 0..ACCOUNTS {
                sum += tx.read(i)?;
            }
            Ok(Some(sum))
        }
    }
}

/// Failures seen by one thread: bad audit totals and livelocks.
#[derive(Default)]
struct ThreadResult {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
}

fn record(r: &mut ThreadResult, ok: bool, what: impl FnOnce() -> String) {
    r.attempted += 1;
    if !ok {
        r.failed += 1;
        if r.failures.len() < 4 {
            r.failures.push(what());
        }
    }
}

fn run_thread(
    stm: &dyn Stm,
    thread: usize,
    ops: &[Op],
    mut lat: Option<&mut Samples>,
) -> ThreadResult {
    let mut r = ThreadResult::default();
    for (i, &op) in ops.iter().enumerate() {
        let start = Instant::now();
        let out = try_run_tx(stm, thread, |tx| body(op, tx));
        if i % SAMPLE_EVERY == 0 {
            if let Some(lat) = lat.as_deref_mut() {
                lat.record(start);
            }
        }
        match out {
            Ok((Some(sum), _)) => record(&mut r, sum == TOTAL, || {
                format!("thread {thread} audit {i} saw total {sum}, expected {TOTAL}")
            }),
            Ok((None, _)) => record(&mut r, true, String::new),
            Err(e) => record(&mut r, false, || format!("thread {thread} tx {i}: {e}")),
        }
    }
    r
}

/// Runs every thread's plan on a fresh TM, recording sampled transaction
/// latencies into `lats` (one set per thread) when given; returns its wall
/// time in seconds. Conservation must hold afterwards.
fn round(tm: Tm, plans: &[Vec<Op>], lats: Option<&mut [Samples]>, o: &mut Outcome) -> f64 {
    let stm = tm.build();
    let stm: &dyn Stm = stm.as_ref();
    let mut lats: Vec<Option<&mut Samples>> = match lats {
        Some(l) => l.iter_mut().map(Some).collect(),
        None => plans.iter().map(|_| None).collect(),
    };
    let start = Instant::now();
    let results: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .zip(lats.iter_mut())
            .enumerate()
            .map(|(t, (ops, lat))| {
                let lat = lat.take();
                s.spawn(move || run_thread(stm, t, ops, lat))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bank thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    for r in results {
        o.attempted += r.attempted;
        for f in r.failures {
            o.fail(f);
        }
        for _ in 0..r.failed.saturating_sub(4) {
            o.fail(String::new());
        }
    }
    conserved(tm, stm, o);
    secs
}

fn commits(plans: &[Vec<Op>]) -> f64 {
    plans.iter().map(Vec::len).sum::<usize>() as f64
}

fn conserved(tm: Tm, stm: &dyn Stm, o: &mut Outcome) {
    let end = try_run_tx(stm, 0, |tx| body(Op::Audit, tx));
    let ok = matches!(end, Ok((Some(TOTAL), _)));
    o.check(ok, || {
        format!("{}: final total {end:?}, expected {TOTAL}", tm.name())
    });
}

pub fn run(ctx: &Ctx, o: &mut Outcome) {
    let (plans, digest) = plan(ctx.seed, TXS);
    o.input_digest = digest;
    o.config("accounts", ACCOUNTS);
    o.config("threads", THREADS);
    o.config("txs_per_thread_per_round", TXS);
    o.config("audit_every", AUDIT_EVERY);
    if ctx.trace {
        return traced(ctx, o);
    }
    // Rounds alternate the two TMs so both see the same stretch of the
    // run. Throughput is commits over time summed across rounds: two
    // threads contending for one lock make single rounds bimodal.
    let mut setups = Vec::new();
    let mut times = [Vec::new(), Vec::new()];
    // The last round may run past the window.
    let capacity = ((ctx.seconds + 5.0) * MAX_RATE) as usize / SAMPLE_EVERY;
    let mut lats: Vec<Samples> = (0..THREADS)
        .map(|_| Samples::new(Instant::now(), capacity))
        .collect();
    let mem = MemProbe::start();
    let start = Instant::now();
    for l in &mut lats {
        l.epoch = start;
    }
    while times[1].len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        // Set-up: build and fund both TMs (the last pair is discarded).
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box((Tm::Tl2.build(), Tm::Mvstm.build()));
            setups.push(t.elapsed().as_secs_f64());
        }
        // tl2 commits about twice as fast: two rounds give it a similar
        // share of the run.
        times[0].push(round(Tm::Tl2, &plans, Some(&mut lats), o));
        times[0].push(round(Tm::Tl2, &plans, Some(&mut lats), o));
        times[1].push(round(Tm::Mvstm, &plans, Some(&mut lats), o));
    }
    let growth = mem.growth_mb();
    o.note("mem_hwm_reset", mem.reset);
    o.config(
        "rounds",
        format!("tl2 {} mvstm {}", times[0].len(), times[1].len()),
    );
    let per_round = commits(&plans);
    for (tm, t) in [(Tm::Tl2, &times[0]), (Tm::Mvstm, &times[1])] {
        let rates: Vec<f64> = t.iter().map(|s| per_round / s).collect();
        o.note(
            &format!("{}_round_rates", tm.name()),
            format!("{rates:.0?}"),
        );
        let total = per_round * t.len() as f64 / t.iter().sum::<f64>();
        o.note(&format!("{}_commits_per_s", tm.name()), total);
    }
    let rounds = (times[0].len() + times[1].len()) as f64;
    let busy: f64 = times.iter().flatten().sum();
    o.metric("setup_s", median(&mut setups), "s");
    o.metric("mem_peak_mb", growth, "MB");
    o.metric("ops_per_s", per_round * rounds / busy, "1/s");
    let parts: Vec<&Samples> = lats.iter().collect();
    latency_metrics(o, &parts);
}

/// Per-thread traced execution: the retry loop of `try_run_tx` written
/// out, so `Tx::read` and `Tx::commit` can be timed individually.
fn traced_thread(stm: &dyn Stm, thread: usize, ops: &[Op], tr: &mut Tracer) -> (ThreadResult, u64) {
    let mut r = ThreadResult::default();
    let mut aborts = 0u64;
    let policy = stm.retry_policy();
    for (i, &op) in ops.iter().enumerate() {
        let req = ((thread as u64) << 40) | i as u64;
        let name = match op {
            Op::Transfer { .. } => "stm.transfer",
            Op::Audit => "stm.audit",
        };
        let root = tr.open(name, ROOT, req);
        let mut result = None;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                if let Some(b) = policy.backoff {
                    b.wait(attempt - 1);
                }
            }
            let mut tx = stm.begin(thread);
            let out = traced_body(op, tx.as_mut(), tr, root, req);
            let Ok(value) = out else {
                aborts += 1;
                continue;
            };
            let c = tr.open("stm.commit", root, req);
            let committed = tx.commit();
            tr.close(c);
            if committed.is_ok() {
                result = Some(value);
                break;
            }
            aborts += 1;
        }
        tr.close(root);
        match result {
            Some(Some(sum)) => record(&mut r, sum == TOTAL, || format!("audit {i} saw {sum}")),
            Some(None) => record(&mut r, true, String::new),
            None => record(&mut r, false, || {
                format!("thread {thread} tx {i}: livelock")
            }),
        }
    }
    (r, aborts)
}

fn traced_body(
    op: Op,
    tx: &mut dyn Tx,
    tr: &mut Tracer,
    root: u32,
    req: u64,
) -> TxResult<Option<i64>> {
    let mut read = |tx: &mut dyn Tx, i: usize| tr.time("stm.read", root, req, || tx.read(i));
    match op {
        Op::Transfer { from, to, amount } => {
            let a = read(tx, from)?;
            let b = read(tx, to)?;
            tx.write(from, a - amount)?;
            tx.write(to, b + amount)?;
            Ok(None)
        }
        Op::Audit => {
            let mut sum = 0;
            for i in 0..ACCOUNTS {
                sum += read(tx, i)?;
            }
            Ok(Some(sum))
        }
    }
}

fn traced(ctx: &Ctx, o: &mut Outcome) {
    let (plans, _) = plan(ctx.seed, TRACED_TXS);
    let epoch = Instant::now();
    let mut all: Vec<Tracer> = Vec::new();
    for tm in [Tm::Tl2, Tm::Mvstm] {
        let plain_s: f64 = (0..3).map(|_| round(tm, &plans, None, o)).sum();
        let plain = 3.0 * commits(&plans) / plain_s;
        let stm = tm.build();
        let stm: &dyn Stm = stm.as_ref();
        let start = Instant::now();
        let outs: Vec<(ThreadResult, u64, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    s.spawn(move || {
                        let mut tr = Tracer::new(epoch, ops.len() * 12);
                        let (r, aborts) = traced_thread(stm, t, ops, &mut tr);
                        (r, aborts, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bank thread panicked"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        conserved(tm, stm, o);
        let commits = commits(&plans);
        let traced_rate = commits / secs;
        let mut aborts = 0;
        let mut tracers = Vec::new();
        for (r, a, tr) in outs {
            o.attempted += r.attempted;
            for f in r.failures {
                o.fail(f);
            }
            aborts += a;
            tracers.push(tr);
        }
        let durs = |name: &str| {
            let mut d: Vec<u64> = tracers.iter().flat_map(|t| t.durations(name)).collect();
            d.sort_unstable();
            d
        };
        let p = |m: &str| format!("stm.{}.{m}", tm.name());
        let transfer = durs("stm.transfer");
        let audit = durs("stm.audit");
        o.metric(&p("transfer_us"), mean(&transfer) / 1e3, "us");
        o.metric(
            &p("transfer_us_p99"),
            percentile(&transfer, 99.0) as f64 / 1e3,
            "us",
        );
        o.samples.push((p("transfer_us_p99"), transfer.len()));
        o.metric(&p("audit_us"), mean(&audit) / 1e3, "us");
        o.metric(
            &p("audit_us_p99"),
            percentile(&audit, 99.0) as f64 / 1e3,
            "us",
        );
        o.samples.push((p("audit_us_p99"), audit.len()));
        o.metric(&p("read_us"), mean(&durs("stm.read")) / 1e3, "us");
        o.metric(&p("commit_us"), mean(&durs("stm.commit")) / 1e3, "us");
        o.count(
            &p("aborts_per_commit"),
            aborts as f64 / commits,
            "ratio",
            Kind::Sched,
        );
        o.metric(
            &format!("overhead.{}.commit_us", tm.name()),
            1e6 / traced_rate - 1e6 / plain,
            "us",
        );
        all.extend(tracers);
    }
    let path = ctx.run_dir.join(format!("trace-{}.tsv", ctx.workload));
    let refs: Vec<&Tracer> = all.iter().collect();
    match crate::spans::write_all(&path, &refs) {
        Ok(()) => o.note("trace_file", path.display()),
        Err(e) => o.note("trace_file_error", e),
    }
}

/// Exact counts of the bank for the self-test: the plan and the commits a
/// round makes (aborts depend on scheduling and are left out).
pub fn exact_counts(seed: u64) -> Vec<(String, u64)> {
    let (plans, digest) = plan(seed, TRACED_TXS);
    let mut o = Outcome::default();
    round(Tm::Tl2, &plans, None, &mut o);
    [
        ("stm-bank.input_digest", digest),
        ("stm-bank.attempted", o.attempted),
        ("stm-bank.failed", o.failed),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec()
}
