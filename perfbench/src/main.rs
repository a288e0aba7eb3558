//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-light --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. Each run builds its inputs from the seed,
//! measures one workload, checks every output against a reference, and
//! prints a provenance line followed by the result line (the last line of
//! standard output). `--trace 1` runs the traced variant, which reports the
//! per-layer metrics instead of the end-to-end ones. `--selftest` checks
//! that the exact counts repeat across two runs of one seed.
//! `perfbench/README.md` describes the workloads and metrics.

mod check;
mod report;
mod serve;
mod spans;
mod stm;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, Provenance, StealProbe};

const USAGE: &str = "usage: perfbench --workload serve-light|serve-durable|check-mix|stm-bank \
                     --seed N --seconds N --trace 0|1\n       perfbench --selftest [--seed N]";

/// The end-to-end metrics, as (name, unit): every workload reports all of
/// them with `--trace 0`, an operation being a verdict (serve), a check
/// (check-mix) or a committed transaction (stm-bank).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// The per-layer metrics, as (name, unit). With `--trace 1` a workload
/// measures the layers it loads and reports 0 for the ones it bypasses.
const PER_LAYER: &[(&str, &str)] = &[
    ("frame.decode_us", "us"),
    ("frame.render_us", "us"),
    ("frame.bytes_per_verdict", "B"),
    ("table.feed_us", "us"),
    ("table.turn_self_us", "us"),
    ("table.turn_us_p99", "us"),
    ("table.turns_per_verdict", "count"),
    ("table.busy_frac", "ratio"),
    ("journal.append_us", "us"),
    ("journal.append_us_p99", "us"),
    ("journal.sync_us", "us"),
    ("journal.records_per_verdict", "count"),
    ("journal.bytes_per_verdict", "B"),
    ("transport.us_per_verdict", "us"),
    ("client.busy_frac", "ratio"),
    ("monitor.feed_us", "us"),
    ("monitor.feed_us_p99", "us"),
    ("monitor.nodes_per_event", "count"),
    ("monitor.skip_frac", "ratio"),
    ("overhead.verdict_us", "us"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.illegal_per_node", "ratio"),
    ("search.state_clones", "count"),
    ("search.check_us", "us"),
    ("search.check_us_p99", "us"),
    ("trace.parse_us", "us"),
    ("model.wellformed_us", "us"),
    ("search.2w.node_inflation", "ratio"),
    ("search.2w.steals", "count"),
    ("search.2w.donated_tasks", "count"),
    ("search.2w.cancelled_tasks", "count"),
    ("overhead.knots_s", "s"),
    ("stm.tl2.transfer_us", "us"),
    ("stm.tl2.transfer_us_p99", "us"),
    ("stm.tl2.audit_us", "us"),
    ("stm.tl2.audit_us_p99", "us"),
    ("stm.tl2.read_us", "us"),
    ("stm.tl2.commit_us", "us"),
    ("stm.tl2.aborts_per_commit", "ratio"),
    ("overhead.tl2.commit_us", "us"),
    ("stm.mvstm.transfer_us", "us"),
    ("stm.mvstm.transfer_us_p99", "us"),
    ("stm.mvstm.audit_us", "us"),
    ("stm.mvstm.audit_us_p99", "us"),
    ("stm.mvstm.read_us", "us"),
    ("stm.mvstm.commit_us", "us"),
    ("stm.mvstm.aborts_per_commit", "ratio"),
    ("overhead.mvstm.commit_us", "us"),
];

/// What every workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space inside the checkout: sockets, journals, span logs.
    pub run_dir: PathBuf,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
    exact_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
        exact_counts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{name} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--selftest" => args.selftest = true,
            "--exact-counts" => args.exact_counts = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The scratch directory: inside the build directory when the build
/// directory is set (it is ignored by git), else under the benchmark's own.
/// Relative to the checkout root, which keeps socket paths short.
fn run_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let cwd = std::env::current_dir().unwrap_or_default();
    let base = base.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(base);
    base.join("perfbench-run")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_default();
    // The benchmark runs from the repository root: refuse anywhere else.
    if !root.join("crates/serve/src/lib.rs").is_file() {
        eprintln!("perfbench: run from the repository root (crates/ not found)");
        return ExitCode::from(2);
    }
    let run_dir = run_dir();
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    if args.selftest {
        return selftest(args.seed);
    }
    if args.exact_counts {
        for (name, v) in exact_counts(args.seed, &run_dir) {
            println!("{name} {v}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        workload: workload.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        run_dir,
    };
    let steal = StealProbe::start();
    let mut o = Outcome::default();
    match workload.as_str() {
        "serve-light" => serve::run(&ctx, false, &mut o),
        "serve-durable" => serve::run(&ctx, true, &mut o),
        "check-mix" => check::run(&ctx, &mut o),
        "stm-bank" => stm::run(&ctx, &mut o),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    complete(&mut o, args.trace);
    let prov = Provenance {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        git_rev: report::git_rev(&root),
        source_digest: report::source_digest(&root),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        steal_share: steal.share(),
    };
    println!("{}", report::provenance_json(&prov, &o));
    println!("{}", report::result_json(&o));
    if o.failed == 0 && o.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Holds the result to the metric lists: every end-to-end metric (or, when
/// traced, every per-layer metric) in its unit and no other. A per-layer
/// metric the workload did not report is a bypassed layer and reads 0.
fn complete(o: &mut Outcome, trace: bool) {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let stray: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !list.contains(&(m.name.as_str(), m.unit)))
        .map(|m| format!("{} ({})", m.name, m.unit))
        .collect();
    for m in stray {
        o.fail(format!("metric {m} is not in the list"));
    }
    let mut bypassed = Vec::new();
    for &(name, unit) in list {
        if o.metrics.iter().any(|m| m.name == name) {
            continue;
        }
        if trace {
            o.metric(name, 0.0, unit);
            bypassed.push(name);
        } else if o.failed == 0 {
            o.fail(format!("metric {name} was not measured"));
        }
    }
    if !bypassed.is_empty() {
        o.note("bypassed_layers", bypassed.join(" "));
    }
}

/// Every count the traced run labels exact, recomputed for one seed.
fn exact_counts(seed: u64, run_dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut all = serve::exact_counts(seed, run_dir);
    all.extend(check::exact_counts(seed));
    all.extend(stm::exact_counts(seed));
    all
}

/// Runs `--exact-counts` in two separate processes with one seed and
/// compares every count: the exact labels must hold across runs.
fn selftest(seed: u64) -> ExitCode {
    let run = || -> Result<String, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .args(["--exact-counts", "--seed", &seed.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("exact-count run failed: {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (a, b) = match (run(), run()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = a.lines().count() == b.lines().count();
    for (x, y) in a.lines().zip(b.lines()) {
        let same = x == y;
        ok &= same;
        println!("{x:<52} {}", if same { "same" } else { "DIFFERS" });
    }
    println!(
        "selftest: {}",
        if ok { "exact counts repeat" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
