//! Global version clocks — the commit-timestamp authority shared by
//! TL2-style and multi-version TMs, now a *pluggable* component.
//!
//! Every timestamp-based TM in this crate ([`crate::tl2`], [`crate::mvstm`],
//! [`crate::sistm`]) serializes its commits through a logical clock. The
//! classic implementation — TL2's `GV1`, one `fetch_add` on one atomic — is
//! correct but turns that atomic into the single most contended cache line
//! of the whole system once more than a few threads commit concurrently.
//! The [`GlobalClock`] trait abstracts the clock so the contention strategy
//! becomes a configuration axis ([`ClockScheme`] on
//! [`crate::config::StmConfig`]) instead of a hardwired design decision:
//!
//! | scheme | provenance | tick cost | contention behaviour |
//! |--------|-----------|-----------|----------------------|
//! | [`ClockScheme::Single`] | TL2's GV1 (Dice, Shalev & Shavit, DISC 2006) | 1 `fetch_add` | every committer bounces one cache line |
//! | [`ClockScheme::Sharded`] | GV5-style clock arrays (Felber et al.; TLC-style thread residues) | scan of `N` padded shards + 1 CAS on the *home* shard | committers on distinct home shards never write the same line |
//! | [`ClockScheme::Deferred`] | GV4 "pass on failure" (Felber, Fetzer & Riegel, TinySTM) | 1 CAS, **never retried** | a losing committer adopts the winner's advance instead of re-fighting for the line |
//!
//! # The invariants every scheme guarantees
//!
//! Writing `→` for "completes before" (real time on one clock instance):
//!
//! 1. **Strict monotonicity.** If `a = tick(..)` → `b = tick(..)` then
//!    `a < b`; if `s = sample(..)` → `b = tick(..)` then `s < b`; and
//!    `tick(..) → sample(..)` implies `sample ≥ tick`. Timestamps never
//!    move backwards.
//! 2. **Uniqueness.** Any two `tick` calls return distinct timestamps —
//!    including the GV4-style [`ClockScheme::Deferred`] scheme, which
//!    classically allows concurrent committers to *share* the adopted
//!    timestamp: here every timestamp carries the ticking thread's residue
//!    in its low [`DeferredClock::HOME_BITS`] bits, so two adopters of the
//!    same global advance still differ. (The residue trick is TLC-style;
//!    uniqueness holds for up to 2^8 = 256 distinct thread ids.)
//! 3. **Initial-state dominance.** All committed initial values carry
//!    timestamp 0 and every `sample`/`tick` result is `≥ 0`.
//!
//! The monotonicity argument for the sharded scheme: `tick` first scans all
//! shards for the maximum `M` (every earlier-completed tick stored its
//! timestamp into its home shard *before* returning, so `M` dominates
//! everything that happened before the scan), then CASes its home shard
//! from `cur` to the smallest value `> max(M, cur)` congruent to the home
//! index — strictly above everything observed, and unique because each
//! shard's sequence is strictly increasing and distinct shards produce
//! distinct residues modulo the shard count. See `DESIGN.md` for the long
//! form.
//!
//! # Two-phase commit timestamps (`reserve` / `publish`)
//!
//! The multi-version TMs must install new versions *before* the new
//! timestamp becomes observable, otherwise a transaction beginning between
//! the clock advance and the version append adopts a snapshot timestamp
//! whose versions are not yet visible — a lost update (the regression note
//! in `versions.rs`, the multi-version TMs' shared version store).
//! [`GlobalClock::reserve`] hands out the next
//! timestamp without making it sampleable; [`GlobalClock::publish`] makes
//! it (and everything below it) visible. **Contract:** a `reserve` …
//! `publish` pair must be mutually exclusive with every other `reserve`,
//! `publish`, or `tick` on the same clock instance — the multi-version TMs
//! guarantee this by holding their global commit lock across the pair.
//! `sample`/`peek` may run concurrently with anything.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::base::Meter;
use crate::trace_cells::CellId;

/// A monotonically increasing global version clock.
///
/// All methods except [`GlobalClock::peek`] are metered: every access to a
/// base shared object counts as one step (Section 6.1 of the paper), so the
/// step-count experiments see the true cost of each scheme *inside
/// operations*. `peek` is deliberately unmetered — it is the begin-time
/// snapshot read, which happens outside any metered operation (exactly as
/// the pre-trait TL2 sampled its GV1 counter at begin for free). Note that
/// for the sharded scheme a `peek` really costs one load per shard, so
/// begin-time work is O(shards); that cost is visible to wall-clock
/// benchmarks (`clocks/*`) but, like all begin-time work, outside the
/// per-operation step accounting of Theorem 3.
pub trait GlobalClock: std::fmt::Debug + Send + Sync {
    /// The current time: every timestamp published so far is `≤ sample()`.
    fn sample(&self, m: &mut Meter) -> u64;

    /// Advances the clock on behalf of `thread` and returns a fresh
    /// timestamp, strictly greater than every timestamp previously returned
    /// by `tick`/`publish` and every previously completed `sample`.
    fn tick(&self, thread: usize, m: &mut Meter) -> u64;

    /// Reserves the next commit timestamp for `thread` *without* making it
    /// observable: `sample` keeps returning values below it until the
    /// matching [`GlobalClock::publish`]. Requires external mutual
    /// exclusion against all other clock writers (see the module docs).
    fn reserve(&self, thread: usize, m: &mut Meter) -> u64;

    /// Makes a timestamp previously handed out by [`GlobalClock::reserve`]
    /// observable: afterwards `sample() ≥ ts`. Same exclusion contract as
    /// `reserve`.
    fn publish(&self, ts: u64, m: &mut Meter);

    /// Unmetered read of the current time, for begin-time snapshots (like
    /// TL2's `rv` sample, which precedes every metered operation) and
    /// assertions. O(1) for `single`/`deferred`, O(shards) for `sharded`
    /// — see the trait docs for why begin-time work is outside the step
    /// accounting.
    fn peek(&self) -> u64;

    /// True iff a `tick` returning exactly `sample + 1` *proves* that no
    /// other committer advanced the clock in between — the premise of
    /// TL2's "`wv == rv + 1` skips read-set validation" fast path. Only
    /// the single GV1 counter has this property (its `fetch_add` is the
    /// sole way time advances); for the sharded and deferred schemes a
    /// concurrent committer can obtain a timestamp without being visible
    /// in the caller's tick arithmetic, so the fast path must not fire
    /// (the classical reason GV4/GV5 give this optimization up).
    fn tick_is_exclusive(&self) -> bool {
        false
    }
}

/// The `single` scheme: one atomic counter, TL2's `GV1`.
///
/// The strongest and simplest clock — timestamps are exactly the naturals —
/// and the default of every [`crate::config::StmConfig`]. Its `fetch_add`
/// serializes all committers on one cache line, which is precisely the
/// bottleneck the other schemes attack.
#[derive(Debug, Default)]
pub struct VersionClock {
    now: AtomicU64,
}

impl VersionClock {
    /// A clock starting at 0 (the timestamp of all initial values).
    pub fn new() -> Self {
        VersionClock::default()
    }

    /// Samples the clock (one step).
    pub fn sample(&self, m: &mut Meter) -> u64 {
        m.load_u64(CellId::Clock(0), &self.now)
    }

    /// Advances the clock and returns the new unique timestamp (one step).
    pub fn tick(&self, m: &mut Meter) -> u64 {
        let t = m.fetch_add_u64(CellId::Clock(0), &self.now, 1);
        m.note_stamp(t);
        t
    }

    /// Unmetered read for assertions/tests.
    pub fn peek(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }
}

impl GlobalClock for VersionClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        VersionClock::sample(self, m)
    }

    fn tick(&self, _thread: usize, m: &mut Meter) -> u64 {
        VersionClock::tick(self, m)
    }

    fn reserve(&self, _thread: usize, m: &mut Meter) -> u64 {
        let ts = m.load_u64(CellId::Clock(0), &self.now) + 1;
        m.note_stamp(ts);
        ts
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        m.fetch_max_u64(CellId::Clock(0), &self.now, ts);
    }

    fn peek(&self) -> u64 {
        VersionClock::peek(self)
    }

    fn tick_is_exclusive(&self) -> bool {
        true
    }
}

/// One shard on its own cache line, so committers with distinct home shards
/// never write-share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedShard(AtomicU64);

/// The `sharded:N` scheme: a cache-padded clock array with per-thread home
/// shards (GV5-style).
///
/// `sample` = max over all shards; `tick` bumps the caller's home shard
/// (`thread % N`) to the smallest value above the observed maximum that is
/// congruent to the home index modulo `N`. Distinct shards therefore issue
/// timestamps from disjoint residue classes — globally unique without any
/// cross-shard write — and the pre-scan makes every tick dominate all
/// previously completed ticks.
#[derive(Debug)]
pub struct ShardedClock {
    shards: Vec<PaddedShard>,
}

impl ShardedClock {
    /// A sharded clock with `n ≥ 1` shards, all starting at 0.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a sharded clock needs at least one shard");
        ShardedClock {
            shards: (0..n).map(|_| PaddedShard::default()).collect(),
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Metered max-scan over all shards (one step per shard).
    fn scan_max(&self, m: &mut Meter) -> u64 {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| m.load_u64(CellId::Clock(i as u32), &s.0))
            .max()
            .expect("at least one shard")
    }

    /// The smallest value `> floor` congruent to `home` modulo the shard
    /// count.
    fn next_congruent(&self, floor: u64, home: usize) -> u64 {
        let n = self.shards.len() as u64;
        let aligned = floor - floor % n + home as u64;
        if aligned > floor {
            aligned
        } else {
            aligned + n
        }
    }

    fn home(&self, thread: usize) -> usize {
        thread % self.shards.len()
    }
}

impl GlobalClock for ShardedClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        self.scan_max(m)
    }

    fn tick(&self, thread: usize, m: &mut Meter) -> u64 {
        let home = self.home(thread);
        // One scan yields both the global max and the home shard's value —
        // no second metered load of the home shard needed before the CAS.
        let mut base = 0;
        let mut cur = 0;
        for (i, s) in self.shards.iter().enumerate() {
            let v = m.load_u64(CellId::Clock(i as u32), &s.0);
            if i == home {
                cur = v;
            }
            base = base.max(v);
        }
        loop {
            let cand = self.next_congruent(base.max(cur), home);
            // The CAS can only lose to another committer homed on the SAME
            // shard; distinct home shards never contend here.
            if m.cas_u64(CellId::Clock(home as u32), &self.shards[home].0, cur, cand) {
                m.note_stamp(cand);
                return cand;
            }
            cur = m.load_u64(CellId::Clock(home as u32), &self.shards[home].0);
        }
    }

    fn reserve(&self, thread: usize, m: &mut Meter) -> u64 {
        let home = self.home(thread);
        let ts = self.next_congruent(self.scan_max(m), home);
        m.note_stamp(ts);
        ts
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        let shard = (ts % self.shards.len() as u64) as usize;
        m.fetch_max_u64(CellId::Clock(shard as u32), &self.shards[shard].0, ts);
    }

    fn peek(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .max()
            .expect("at least one shard")
    }
}

/// The `deferred` scheme: GV4 pass-on-failure (TinySTM's `GV4`), made
/// uniqueness-preserving.
///
/// A committer attempts **one** CAS to advance the global counter; on
/// failure it does not retry — it adopts the winner's advance (the freshly
/// observed counter value) as its own commit time. Classic GV4 lets both
/// committers share the timestamp (sound for TL2-style validation, but it
/// breaks the uniqueness invariant this crate's checkers lean on), so each
/// timestamp here is `count << HOME_BITS | thread-residue`: adopters of the
/// same advance still differ in their low bits. `sample` returns
/// `count << HOME_BITS | HOME_MASK`, which dominates every timestamp issued
/// at or below `count`.
#[derive(Debug, Default)]
pub struct DeferredClock {
    /// The global advance counter (timestamps are `count << HOME_BITS`).
    now: AtomicU64,
}

impl DeferredClock {
    /// Low bits carrying the ticking thread's residue.
    pub const HOME_BITS: u32 = 8;
    /// Mask of the residue bits.
    pub const HOME_MASK: u64 = (1 << Self::HOME_BITS) - 1;

    /// A deferred clock starting at 0.
    pub fn new() -> Self {
        DeferredClock::default()
    }

    fn stamp(count: u64, thread: usize) -> u64 {
        (count << Self::HOME_BITS) | (thread as u64 & Self::HOME_MASK)
    }
}

impl GlobalClock for DeferredClock {
    fn sample(&self, m: &mut Meter) -> u64 {
        (m.load_u64(CellId::Clock(0), &self.now) << Self::HOME_BITS) | Self::HOME_MASK
    }

    fn tick(&self, thread: usize, m: &mut Meter) -> u64 {
        let cur = m.load_u64(CellId::Clock(0), &self.now);
        let ts = if m.cas_u64(CellId::Clock(0), &self.now, cur, cur + 1) {
            Self::stamp(cur + 1, thread)
        } else {
            // Pass on failure: adopt the winner's advance instead of
            // re-contending for the line. The reload is strictly greater
            // than `cur`, so the adopted stamp stays strictly monotone for
            // this thread; the residue keeps it unique against the winner.
            Self::stamp(m.load_u64(CellId::Clock(0), &self.now), thread)
        };
        m.note_stamp(ts);
        ts
    }

    fn reserve(&self, thread: usize, m: &mut Meter) -> u64 {
        let ts = Self::stamp(m.load_u64(CellId::Clock(0), &self.now) + 1, thread);
        m.note_stamp(ts);
        ts
    }

    fn publish(&self, ts: u64, m: &mut Meter) {
        m.fetch_max_u64(CellId::Clock(0), &self.now, ts >> Self::HOME_BITS);
    }

    fn peek(&self) -> u64 {
        (self.now.load(Ordering::Acquire) << Self::HOME_BITS) | Self::HOME_MASK
    }
}

/// A clock scheme selector — the parse/display form used by
/// [`crate::config::StmConfig`], `tmcheck conformance --clock`, and TM
/// specs like `"tl2+sharded:16"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockScheme {
    /// One atomic counter (TL2's GV1) — the default.
    #[default]
    Single,
    /// A cache-padded array of that many shards with per-thread homes
    /// (GV5-style).
    Sharded(usize),
    /// GV4 pass-on-failure with thread residues.
    Deferred,
}

impl ClockScheme {
    /// The default shard count when `"sharded"` is given without `:N`.
    pub const DEFAULT_SHARDS: usize = 8;

    /// A representative of every scheme family, for sweeping tests and
    /// benchmarks.
    pub const SWEEP: [ClockScheme; 3] = [
        ClockScheme::Single,
        ClockScheme::Sharded(4),
        ClockScheme::Deferred,
    ];

    /// Parses `"single"`, `"sharded"`, `"sharded:N"`, or `"deferred"`.
    pub fn parse(s: &str) -> Result<ClockScheme, String> {
        match s.trim() {
            "single" => Ok(ClockScheme::Single),
            "deferred" => Ok(ClockScheme::Deferred),
            "sharded" => Ok(ClockScheme::Sharded(Self::DEFAULT_SHARDS)),
            other => {
                if let Some(n) = other.strip_prefix("sharded:") {
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("bad shard count in clock scheme '{other}'"))?;
                    if n == 0 || n > 1024 {
                        return Err(format!(
                            "clock scheme '{other}': shard count must be in 1..=1024"
                        ));
                    }
                    Ok(ClockScheme::Sharded(n))
                } else {
                    Err(format!(
                        "unknown clock scheme '{other}' \
                         (valid: single, sharded[:N], deferred)"
                    ))
                }
            }
        }
    }

    /// Constructs the clock this scheme names.
    pub fn build(self) -> Box<dyn GlobalClock> {
        match self {
            ClockScheme::Single => Box::new(VersionClock::new()),
            ClockScheme::Sharded(n) => Box::new(ShardedClock::new(n)),
            ClockScheme::Deferred => Box::new(DeferredClock::new()),
        }
    }

    /// True for the default single-counter scheme.
    pub fn is_single(self) -> bool {
        self == ClockScheme::Single
    }
}

impl std::fmt::Display for ClockScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockScheme::Single => write!(f, "single"),
            ClockScheme::Sharded(n) => write!(f, "sharded:{n}"),
            ClockScheme::Deferred => write!(f, "deferred"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::OpKind;

    #[test]
    fn ticks_are_unique_and_monotone() {
        let c = VersionClock::new();
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        let a = c.tick(&mut m);
        let b = c.tick(&mut m);
        let s = c.sample(&mut m);
        m.end_op();
        assert!(a < b);
        assert_eq!(s, b);
        assert_eq!(c.peek(), 2);
        // Three clock accesses = three steps.
        assert_eq!(m.report().per_op, vec![(OpKind::Commit, 3)]);
    }

    /// Sequential monotonicity/uniqueness across every scheme, through the
    /// trait (the multi-threaded versions live in `tests/clocks.rs`).
    #[test]
    fn every_scheme_is_sequentially_monotone_through_the_trait() {
        for scheme in ClockScheme::SWEEP {
            let clock = scheme.build();
            let mut m = Meter::new();
            m.begin_op(OpKind::Commit);
            let mut last_seen = clock.sample(&mut m);
            let mut issued = Vec::new();
            for thread in 0..6 {
                let t = clock.tick(thread, &mut m);
                assert!(t > last_seen, "{scheme}: tick {t} ≤ sample {last_seen}");
                let s = clock.sample(&mut m);
                assert!(s >= t, "{scheme}: sample {s} < tick {t}");
                assert_eq!(clock.peek(), s, "{scheme}: peek diverged from sample");
                last_seen = s;
                issued.push(t);
            }
            m.end_op();
            let mut dedup = issued.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), issued.len(), "{scheme}: duplicate ticks");
        }
    }

    #[test]
    fn reserve_publish_two_phase_contract() {
        for scheme in ClockScheme::SWEEP {
            let clock = scheme.build();
            let mut m = Meter::new();
            m.begin_op(OpKind::Commit);
            let before = clock.sample(&mut m);
            let wv = clock.reserve(3, &mut m);
            assert!(wv > before, "{scheme}: reserve {wv} ≤ sample {before}");
            // Not yet observable.
            assert!(
                clock.sample(&mut m) < wv,
                "{scheme}: reserved ts leaked into sample"
            );
            clock.publish(wv, &mut m);
            assert!(
                clock.sample(&mut m) >= wv,
                "{scheme}: publish did not surface the ts"
            );
            // The next reservation climbs past it.
            assert!(clock.reserve(3, &mut m) > wv, "{scheme}");
            m.end_op();
        }
    }

    #[test]
    fn sharded_residues_partition_timestamps() {
        let c = ShardedClock::new(4);
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        for thread in 0..8 {
            let t = GlobalClock::tick(&c, thread, &mut m);
            assert_eq!(t % 4, (thread % 4) as u64, "home residue violated");
        }
        m.end_op();
    }

    #[test]
    fn deferred_stamps_carry_the_thread_residue() {
        let c = DeferredClock::new();
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        let t = GlobalClock::tick(&c, 5, &mut m);
        assert_eq!(t & DeferredClock::HOME_MASK, 5);
        assert_eq!(t >> DeferredClock::HOME_BITS, 1);
        m.end_op();
    }

    #[test]
    fn scheme_parse_display_roundtrip() {
        for (text, scheme) in [
            ("single", ClockScheme::Single),
            ("deferred", ClockScheme::Deferred),
            ("sharded:16", ClockScheme::Sharded(16)),
            ("sharded:1", ClockScheme::Sharded(1)),
        ] {
            assert_eq!(ClockScheme::parse(text), Ok(scheme));
            assert_eq!(scheme.to_string(), text);
        }
        assert_eq!(
            ClockScheme::parse("sharded"),
            Ok(ClockScheme::Sharded(ClockScheme::DEFAULT_SHARDS))
        );
        assert!(ClockScheme::parse("sharded:0").is_err());
        assert!(ClockScheme::parse("sharded:x").is_err());
        assert!(ClockScheme::parse("gv9").is_err());
        assert!(ClockScheme::parse("").is_err());
        assert!(ClockScheme::Single.is_single());
        assert!(!ClockScheme::Deferred.is_single());
        assert_eq!(ClockScheme::default(), ClockScheme::Single);
    }

    #[test]
    fn sharded_one_shard_degenerates_to_a_serial_counter() {
        let c = ShardedClock::new(1);
        let mut m = Meter::new();
        m.begin_op(OpKind::Commit);
        assert_eq!(GlobalClock::tick(&c, 0, &mut m), 1);
        assert_eq!(GlobalClock::tick(&c, 7, &mut m), 2);
        assert_eq!(GlobalClock::sample(&c, &mut m), 2);
        m.end_op();
    }
}
