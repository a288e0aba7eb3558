//! Measurement plumbing shared by every workload: order statistics, the
//! memory and CPU-steal probes, input digests, provenance, and the JSON
//! the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Whether a per-layer count repeats bit-for-bit across same-seed runs.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A pure function of the seed: repeats exactly.
    Exact,
    /// Depends on thread scheduling or timing.
    Sched,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output differed from the reference (or never came).
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Per-layer counts labelled exact or scheduling-dependent.
    pub kinds: Vec<(String, Kind)>,
    /// Sample count behind each reported percentile.
    pub samples: Vec<(String, usize)>,
    /// The workload's configuration, as `key=value` strings.
    pub config: Vec<(String, String)>,
    /// Free-form notes (trace file, accounting) printed with provenance.
    pub notes: Vec<(String, String)>,
    pub input_digest: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A per-layer count together with its determinism label.
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind) {
        self.metric(name, value, unit);
        self.kinds.push((name.to_string(), kind));
    }

    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The interquartile mean of `values` (which it sorts): the mean of what
/// is left after dropping the lowest and the highest quarter.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let mid = &values[cut..values.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Operation latencies of one measurement, bucketed by window: the whole
/// second of the run in which each operation ended, or (for a workload
/// that repeats one mix in rounds) the round. Samples are pushed in time
/// order, so each window's samples are contiguous.
pub struct Samples {
    /// Where second 0 starts, for `record`.
    pub epoch: Instant,
    lat: Vec<u32>,
    per_window: Vec<u32>,
}

impl Samples {
    /// Room for `capacity` samples, its pages touched so that filling it
    /// does not count as the measured program's memory growth.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        let mut lat = vec![1u32; capacity + 1024];
        lat.clear();
        Samples {
            epoch,
            lat,
            per_window: Vec::new(),
        }
    }

    /// One latency of `ns` that ended in `window`.
    pub fn push(&mut self, window: usize, ns: u64) {
        if self.per_window.len() <= window {
            self.per_window.resize(window + 1, 0);
        }
        self.per_window[window] += 1;
        self.lat.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    /// One operation that ran from `start` until now.
    pub fn record(&mut self, start: Instant) {
        let end = Instant::now();
        let second = end.duration_since(self.epoch).as_secs() as usize;
        self.push(second, end.duration_since(start).as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.lat.len()
    }

    /// Samples per window.
    pub fn per_window(&self) -> &[u32] {
        &self.per_window
    }
}

/// Latency percentile `p` in µs over sample sets with the same windows
/// (one set per thread): computed per window over every set's samples of
/// that window, then the interquartile mean over the windows. Dropping
/// the outer quarters keeps a few seconds of host stalls (stolen CPU, a
/// slow fsync) from deciding the figure; averaging the middle half, where
/// a median would jump between them, follows smoothly a host that
/// switches between a fast and a slow speed during the run. `None` when
/// no window holds a sample.
pub fn windowed_percentile(parts: &[&Samples], p: f64) -> Option<f64> {
    let mut per_window = window_percentiles(parts, p);
    (!per_window.is_empty()).then(|| interquartile_mean(&mut per_window))
}

/// Latency percentile `p` in µs of each window that holds a sample.
pub fn window_percentiles(parts: &[&Samples], p: f64) -> Vec<f64> {
    let windows = parts.iter().map(|s| s.per_window.len()).max().unwrap_or(0);
    let mut at = vec![0usize; parts.len()];
    let mut per_window: Vec<f64> = Vec::with_capacity(windows);
    let mut window: Vec<u64> = Vec::new();
    for w in 0..windows {
        window.clear();
        for (s, at) in parts.iter().zip(at.iter_mut()) {
            let n = s.per_window.get(w).copied().unwrap_or(0) as usize;
            window.extend(s.lat[*at..*at + n].iter().map(|&v| u64::from(v)));
            *at += n;
        }
        if !window.is_empty() {
            window.sort_unstable();
            per_window.push(percentile(&window, p) as f64 / 1e3);
        }
    }
    per_window
}

/// Reports the shared end-to-end latency metrics, `op_p50_us` and
/// `op_p99_us`, from `parts`, with the sample counts behind them.
pub fn latency_metrics(o: &mut Outcome, parts: &[&Samples]) {
    let total: usize = parts.iter().map(|s| s.len()).sum();
    o.samples.push(("op_latency".into(), total));
    for p in [50.0, 99.0] {
        let w = window_percentiles(parts, p);
        o.note(&format!("window_p{p}_us"), format!("{w:.2?}"));
    }
    match (
        windowed_percentile(parts, 50.0),
        windowed_percentile(parts, 99.0),
    ) {
        (Some(p50), Some(p99)) => {
            o.metric("op_p50_us", p50, "us");
            o.metric("op_p99_us", p99, "us");
        }
        _ => o.fail("no operation latency was sampled".into()),
    }
}

/// Calls `f` `reps` times and returns the median duration in seconds —
/// how every workload reports `setup_s`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut v)
}

/// 64-bit FNV-1a, the input and source digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives every seeded choice the benchmark makes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident-set growth over a phase: resets the kernel's high-water
/// mark (`VmHWM`) when the phase starts and subtracts the resident set at
/// that point from the mark when it ends.
pub struct MemProbe {
    base_kb: u64,
    pub reset: bool,
}

impl MemProbe {
    pub fn start() -> Self {
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        MemProbe {
            base_kb: status_kb("VmRSS:").unwrap_or(0),
            reset,
        }
    }

    pub fn growth_mb(&self) -> f64 {
        let hwm = status_kb("VmHWM:").unwrap_or(0);
        hwm.saturating_sub(self.base_kb) as f64 / 1024.0
    }
}

fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so the total stops at steal.
    let total = ticks.iter().take(8).sum();
    Some((ticks.get(7).copied().unwrap_or(0), total))
}

/// The host's CPU-steal share over an interval, from `/proc/stat`.
pub struct StealProbe(Option<(u64, u64)>);

impl StealProbe {
    pub fn start() -> Self {
        StealProbe(cpu_ticks())
    }

    /// Stolen ticks over all ticks since `start`; `None` when unreadable.
    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.0?;
        let (s1, t1) = cpu_ticks()?;
        Some((s1 - s0) as f64 / (t1 - t0).max(1) as f64)
    }
}

/// The checked-out revision: `.git/HEAD` resolved by hand, so provenance
/// needs no `git` binary. A checkout exported without `.git` has none.
pub fn git_rev(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(name) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// A digest of the sources the benchmark builds (`crates/`, `vendor/`,
/// `src/`, the manifests): identifies the measured code even where the
/// checkout carries no git metadata.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "src", "perfbench"] {
        walk(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut d = Digest::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            d.bytes(&bytes);
        }
    }
    d.finish()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_obj<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs.map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// The provenance line printed before the result.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub git_rev: String,
    pub source_digest: u64,
    pub nproc: usize,
    pub steal_share: Option<f64>,
}

pub fn provenance_json(p: &Provenance, o: &Outcome) -> String {
    let strs = |v: &[(String, String)]| json_obj(v.iter().map(|(k, v)| (k.as_str(), json_str(v))));
    let kinds = json_obj(o.kinds.iter().map(|(k, kind)| {
        let label = match kind {
            Kind::Exact => "exact",
            Kind::Sched => "scheduling-dependent",
        };
        (k.as_str(), json_str(label))
    }));
    let samples = json_obj(o.samples.iter().map(|(k, n)| (k.as_str(), n.to_string())));
    let failures: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(&p.workload)),
        ("seed", p.seed.to_string()),
        ("seconds", p.seconds.to_string()),
        ("trace", p.trace.to_string()),
        (
            "input_digest",
            json_str(&format!("{:016x}", o.input_digest)),
        ),
        ("git_rev", json_str(&p.git_rev)),
        (
            "source_digest",
            json_str(&format!("{:016x}", p.source_digest)),
        ),
        ("nproc", p.nproc.to_string()),
        ("steal_share", p.steal_share.map_or("null".into(), json_num)),
        ("error_rate", json_num(o.error_rate())),
        ("config", strs(&o.config)),
        ("percentile_samples", samples),
        ("count_kinds", kinds),
        ("notes", strs(&o.notes)),
        ("failures", format!("[{}]", failures.join(","))),
    ];
    format!("{{\"provenance\":{}}}", json_obj(fields.into_iter()))
}

/// The result line: the last line of standard output.
pub fn result_json(o: &Outcome) -> String {
    let metrics = json_obj(o.metrics.iter().map(|m| {
        (
            m.name.as_str(),
            format!(
                "{{\"value\":{},\"unit\":{}}}",
                json_num(m.value),
                json_str(m.unit)
            ),
        )
    }));
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed
    )
}
