//! `serve-light` and `serve-durable`: the `tm-serve` daemon as live
//! clients see it, driven over its Unix socket by one closed-loop client.
//!
//! The client keeps [`SESSIONS`] sessions open on one connection, each with
//! at most [`WINDOW`] unanswered feeds (the send window `tm_serve::Client`
//! uses), and opens the next session as soon as one closes. Every verdict
//! is compared with a standalone `OpacityMonitor` fed the same events.
//!
//! The whole run is pinned to one CPU: client, daemon reader and daemon
//! main thread are three busy threads, and on a 2-vCPU shared host their
//! cross-CPU wake-ups made throughput swing two- to threefold with the
//! host's CPU steal, while on one CPU they hand off locally.
//!
//! The traced run adds an in-process replay of the same closed loop
//! through the public `SessionTable` calls, timing each layer, plus
//! standalone monitor and journal replays that split the scheduler's time
//! into search and journal shares.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_model::Event;
use tm_opacity::incremental::{MonitorVerdict, OpacityMonitor};
use tm_serve::{
    parse_client_frame, parse_server_frame, render_client_frame, ClientFrame, FrameLink,
    JournalWriter, Routed, ServeConfig, ServerFrame, SessionTable, SocketLink, Transport,
};

use crate::report::{
    latency_metrics, mean, median, percentile, Digest, Kind, MemProbe, Outcome, Samples, SplitMix,
};
use crate::spans::{Tracer, ROOT};
use crate::Ctx;

/// Sessions the client keeps open at once.
pub const SESSIONS: usize = 16;
/// Unanswered feeds per session (the send window of `tm_serve::Client`).
pub const WINDOW: usize = 8;
/// Distinct session inputs; session `i` streams input `i % POOL`.
const POOL: usize = 512;
/// Every `KNOT_EVERY`-th session streams contention knots.
const KNOT_EVERY: usize = 16;
const KNOT_EVENTS: usize = 192;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Sessions replayed in-process by the traced run (a count, so the
/// traced run's exact counts repeat for a seed).
pub const TRACED_SESSIONS: u64 = 1024;
/// Consecutive idle receives (20 ms each) before the daemon counts as gone.
const IDLE_LIMIT: u32 = 250;

/// One session's input and its reference verdicts.
pub struct SessionInput {
    events: Vec<Event>,
    /// Each event's wire form (the `event` field of its feed frame).
    wire: Vec<String>,
    /// The standalone monitor's `(verdict, at)` per event.
    expect: Vec<(&'static str, Option<usize>)>,
    /// The same verdicts as rendered frames of session `s00`.
    verdict_lines: Vec<String>,
    checks: usize,
    violated_at: Option<usize>,
}

pub struct Inputs {
    pool: Vec<SessionInput>,
    pub digest: u64,
}

fn verdict_of(v: MonitorVerdict) -> (&'static str, Option<usize>) {
    match v {
        MonitorVerdict::OpaqueChecked => ("opaque", None),
        MonitorVerdict::OpaqueBySkip => ("opaque_skip", None),
        MonitorVerdict::Violated { at } => ("violated", Some(at)),
    }
}

fn monitor() -> OpacityMonitor<'static> {
    OpacityMonitor::new(tm_serve::specs()).with_config(ServeConfig::default().search)
}

/// Builds the session pool for `seed`: short random histories, with every
/// [`KNOT_EVERY`]-th session streaming contention knots instead.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed);
    let mut digest = Digest::new();
    let knots = tm_bench::monitor_workload(KNOT_EVENTS);
    let pool: Vec<SessionInput> = (0..POOL)
        .map(|i| {
            let h = if i % KNOT_EVERY == KNOT_EVERY - 1 {
                knots.clone()
            } else {
                let config = tm_harness::randhist::GenConfig::default();
                tm_harness::randhist::random_history(&config, rng.next())
            };
            let events = h.events().to_vec();
            let wire: Vec<String> = events
                .iter()
                .map(|e| tm_trace::event_to_doc(e).to_compact_string())
                .collect();
            let mut m = monitor();
            let expect: Vec<(&'static str, Option<usize>)> = events
                .iter()
                .map(|e| {
                    verdict_of(
                        m.feed(e.clone())
                            .expect("generated histories are well-formed"),
                    )
                })
                .collect();
            let verdict_lines = expect
                .iter()
                .enumerate()
                .map(|(i, &(verdict, at))| {
                    ServerFrame::Verdict {
                        session: slot_id(0),
                        seq: i + 1,
                        verdict,
                        at,
                    }
                    .render()
                })
                .collect();
            for w in &wire {
                digest.str(w);
            }
            digest.str("/session");
            SessionInput {
                events,
                wire,
                expect,
                verdict_lines,
                checks: m.check_counts().0,
                violated_at: m.violated_at(),
            }
        })
        .collect();
    // The client formats feed frames by hand; they must be the protocol's.
    let line = feed_line(0, &pool[0], 1);
    let want = render_client_frame(&ClientFrame::Feed {
        session: slot_id(0),
        event: pool[0].events[0].clone(),
        seq: Some(1),
    });
    assert_eq!(
        line, want,
        "hand-formatted feed frame drifted from the protocol"
    );
    Inputs {
        pool,
        digest: digest.finish(),
    }
}

fn slot_id(slot: usize) -> String {
    format!("s{slot:02}")
}

fn slot_of(id: &str) -> Option<usize> {
    id.strip_prefix('s')?.parse().ok().filter(|s| *s < SESSIONS)
}

fn feed_line(slot: usize, input: &SessionInput, seq: usize) -> String {
    format!(
        "{{\"frame\":\"feed\",\"session\":\"s{slot:02}\",\"event\":{},\"seq\":{seq}}}",
        input.wire[seq - 1]
    )
}

fn request(inst: u64, seq: usize) -> u64 {
    (inst << 20) | seq as u64
}

/// One client-side session slot.
#[derive(Default)]
struct Slot {
    active: bool,
    inst: u64,
    pool: usize,
    sent: usize,
    answered: usize,
    close_sent: bool,
    /// Send time (ns since the epoch) per seq.
    sent_at: Vec<u64>,
}

/// The closed-loop client's session bookkeeping, shared by the socket
/// client and the in-process replay.
struct Sessions<'a> {
    pool: &'a [SessionInput],
    slots: Vec<Slot>,
    next_inst: u64,
    /// No session starts once this many have.
    max_sessions: u64,
    open_lines: Vec<String>,
    close_lines: Vec<String>,
    /// Feeds and closes put on the wire.
    sent_ops: u64,
    /// Feeds and closes answered as the reference says, or otherwise.
    correct: u64,
    mismatched: u64,
    /// `busy` frames received (each also ends the drive as a failure).
    busy: u64,
}

impl<'a> Sessions<'a> {
    fn new(pool: &'a [SessionInput], max_sessions: u64) -> Self {
        let longest = pool.iter().map(|s| s.events.len()).max().unwrap_or(0);
        Sessions {
            pool,
            slots: (0..SESSIONS)
                .map(|_| Slot {
                    sent_at: vec![0; longest],
                    ..Slot::default()
                })
                .collect(),
            next_inst: 0,
            max_sessions,
            open_lines: (0..SESSIONS)
                .map(|s| {
                    render_client_frame(&ClientFrame::Open {
                        session: slot_id(s),
                    })
                })
                .collect(),
            close_lines: (0..SESSIONS)
                .map(|s| {
                    render_client_frame(&ClientFrame::Close {
                        session: slot_id(s),
                    })
                })
                .collect(),
            sent_ops: 0,
            correct: 0,
            mismatched: 0,
            busy: 0,
        }
    }

    fn any_active(&self) -> bool {
        self.slots.iter().any(|s| s.active)
    }

    /// Starts the next session in `slot`, if any remain; pushes its lines.
    fn start(&mut self, slot: usize, now: u64, out: &mut Vec<String>) {
        if self.next_inst >= self.max_sessions {
            self.slots[slot].active = false;
            return;
        }
        let inst = self.next_inst;
        self.next_inst += 1;
        let s = &mut self.slots[slot];
        *s = Slot {
            active: true,
            inst,
            pool: inst as usize % self.pool.len(),
            sent_at: std::mem::take(&mut s.sent_at),
            ..Slot::default()
        };
        out.push(self.open_lines[slot].clone());
        self.top_up(slot, now, out);
    }

    /// Pushes the feeds the window allows, then the close once all are answered.
    fn top_up(&mut self, slot: usize, now: u64, out: &mut Vec<String>) {
        let s = &mut self.slots[slot];
        let input = &self.pool[s.pool];
        let n = input.events.len();
        while s.sent < n && s.sent < s.answered + WINDOW {
            s.sent += 1;
            s.sent_at[s.sent - 1] = now;
            out.push(feed_line(slot, input, s.sent));
            self.sent_ops += 1;
        }
        if s.answered == n && !s.close_sent {
            s.close_sent = true;
            out.push(self.close_lines[slot].clone());
            self.sent_ops += 1;
        }
    }

    /// The fast path for the common frame: the byte-exact expected verdict
    /// of an active session. Returns `None` for anything else, which then
    /// goes through the parser and [`Sessions::on_frame`].
    fn expected_verdict(
        &mut self,
        line: &str,
        now: u64,
        out: &mut Vec<String>,
    ) -> Option<(u64, u64, usize)> {
        let at = line.find("\"session\":\"s")? + 12;
        let slot: usize = line.get(at..at + 2)?.parse().ok()?;
        let s = self
            .slots
            .get_mut(slot)
            .filter(|s| s.active && s.answered < s.sent)?;
        let want = self.pool[s.pool].verdict_lines.get(s.answered)?.as_bytes();
        let got = line.as_bytes();
        if got.len() != want.len() || got[..at] != want[..at] || got[at + 2..] != want[at + 2..] {
            return None;
        }
        s.answered += 1;
        self.correct += 1;
        let answered = (s.sent_at[s.answered - 1], s.inst, s.answered);
        self.top_up(slot, now, out);
        Some(answered)
    }

    /// Handles one server frame at `now`; returns the answered feed's
    /// `(send time, inst, seq)` for a verdict. Protocol surprises are errors.
    fn on_frame(
        &mut self,
        frame: &ServerFrame,
        now: u64,
        restart: bool,
        out: &mut Vec<String>,
        o: &mut Outcome,
    ) -> Result<Option<(u64, u64, usize)>, String> {
        match frame {
            ServerFrame::Opened { .. } => Ok(None),
            ServerFrame::Verdict {
                session,
                seq,
                verdict,
                at,
            } => {
                let slot = self.active_slot(session)?;
                let s = &mut self.slots[slot];
                if *seq != s.answered + 1 || *seq > s.sent {
                    return Err(format!("{session}: verdict for seq {seq} out of order"));
                }
                s.answered += 1;
                let input = &self.pool[s.pool];
                let want = input.expect[seq - 1];
                if (*verdict, *at) == want {
                    self.correct += 1;
                } else {
                    self.mismatched += 1;
                    o.fail(format!(
                        "session {} seq {seq}: got {verdict}/{at:?}, reference {}/{:?}",
                        s.inst, want.0, want.1
                    ));
                }
                let answered = (s.sent_at[seq - 1], s.inst, *seq);
                self.top_up(slot, now, out);
                Ok(Some(answered))
            }
            ServerFrame::Closed {
                session,
                events,
                checks,
                violated_at,
                poisoned,
                reaped,
            } => {
                let slot = self.active_slot(session)?;
                let s = &self.slots[slot];
                let input = &self.pool[s.pool];
                let ok = s.close_sent
                    && *events == input.events.len()
                    && *checks == input.checks
                    && *violated_at == input.violated_at
                    && !poisoned
                    && !reaped;
                if ok {
                    self.correct += 1;
                } else {
                    self.mismatched += 1;
                    o.fail(format!("session {}: summary {frame:?} differs", s.inst));
                }
                if restart {
                    self.start(slot, now, out);
                } else {
                    self.slots[slot].active = false;
                }
                Ok(None)
            }
            ServerFrame::Busy { .. } => {
                self.busy += 1;
                Err(format!("feed refused: {frame:?}"))
            }
            other => Err(format!("unexpected frame {other:?}")),
        }
    }

    fn active_slot(&self, session: &str) -> Result<usize, String> {
        slot_of(session)
            .filter(|&s| self.slots[s].active)
            .ok_or_else(|| format!("frame for unknown session `{session}`"))
    }

    /// Counts every feed and close sent as attempted, and every one not
    /// answered as the reference says as failed.
    fn settle(&self, o: &mut Outcome) {
        o.attempted += self.sent_ops;
        let missing = self.sent_ops.saturating_sub(self.correct + self.mismatched);
        for _ in 0..missing {
            o.fail("feed or close never answered".into());
        }
    }
}

/// What one socket drive measured.
struct DriveStats {
    /// Verdict latencies received inside the measurement window.
    lat: Samples,
    window_s: f64,
    /// Wall time of the whole drive and the part spent inside `recv`.
    wall_ns: u64,
    recv_ns: u64,
    feeds: u64,
    busy: u64,
}

impl DriveStats {
    fn verdicts_per_s(&self) -> f64 {
        self.lat.len() as f64 / self.window_s
    }
}

/// The in-process daemon thread plus the client's connection to it.
struct Daemon {
    handle: JoinHandle<i32>,
    link: SocketLink,
    journal: Option<PathBuf>,
}

/// Signals the first banner write: the daemon is bound and listening.
struct Banner(mpsc::Sender<()>);

impl std::io::Write for Banner {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _ = self.0.send(());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn start_daemon(ctx: &Ctx, k: usize, durable: bool) -> Result<Daemon, String> {
    let pid = std::process::id();
    let path = ctx.run_dir.join(format!("s{pid}-{k}.sock"));
    let journal = durable.then(|| ctx.run_dir.join(format!("j{pid}-{k}")));
    let config = ServeConfig {
        journal_dir: journal.clone(),
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let sock = path.clone();
    let handle = std::thread::Builder::new()
        .name("tm-serve".into())
        .spawn(move || tm_serve::run(Transport::Socket(sock), config, &mut Banner(tx)))
        .map_err(|e| format!("spawn daemon: {e}"))?;
    if rx.recv_timeout(Duration::from_secs(10)).is_err() {
        let code = handle.join().unwrap_or(-1);
        return Err(format!("daemon did not start (exit {code})"));
    }
    let mut link = SocketLink::new(path);
    link.reconnect().map_err(|e| format!("connect: {e}"))?;
    Ok(Daemon {
        handle,
        link,
        journal,
    })
}

impl Daemon {
    /// Sends `shutdown`, waits for the daemon to drain and exit, and
    /// removes its journal.
    fn stop(mut self) -> Result<(), String> {
        let line = render_client_frame(&ClientFrame::Shutdown);
        self.link
            .send(&line)
            .map_err(|e| format!("send shutdown: {e}"))?;
        let code = self
            .handle
            .join()
            .map_err(|_| "daemon panicked".to_string())?;
        if let Some(dir) = &self.journal {
            let _ = std::fs::remove_dir_all(dir);
        }
        if code != 0 {
            return Err(format!("daemon exited {code}"));
        }
        Ok(())
    }
}

/// A latency buffer for a `window`-second drive (its epoch is unused: the
/// drive buckets by its own clock).
fn sample_buffer(window: f64) -> Samples {
    Samples::new(Instant::now(), (window * 200_000.0) as usize)
}

/// Runs the closed loop over the socket: `warmup` seconds unmeasured, then
/// a `window`-second measurement, then every open session runs to its end.
fn drive(
    link: &mut SocketLink,
    pool: &[SessionInput],
    warmup: f64,
    window: f64,
    lat: Samples,
    mut tracer: Option<&mut Tracer>,
    o: &mut Outcome,
) -> DriveStats {
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let from = (warmup * 1e9) as u64;
    let to = from + (window * 1e9) as u64;
    let mut stats = DriveStats {
        lat,
        window_s: window,
        wall_ns: 0,
        recv_ns: 0,
        feeds: 0,
        busy: 0,
    };
    let mut sessions = Sessions::new(pool, u64::MAX);
    let mut out = Vec::new();
    for slot in 0..SESSIONS {
        sessions.start(slot, 0, &mut out);
    }
    let mut idle = 0u32;
    let result = (|| -> Result<(), String> {
        loop {
            for line in out.drain(..) {
                let t = tracer.as_ref().map(|t| t.now());
                link.send(&line).map_err(|e| format!("send: {e}"))?;
                if let (Some(tr), Some(t0)) = (tracer.as_deref_mut(), t) {
                    let t1 = tr.now();
                    tr.push("client.send", t0, t1, ROOT, 0);
                }
            }
            if !sessions.any_active() {
                return Ok(());
            }
            let t0 = Instant::now();
            let got = link.recv();
            let t1 = Instant::now();
            stats.recv_ns += (t1 - t0).as_nanos() as u64;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.push("client.recv", ns(t0), ns(t1), ROOT, 0);
            }
            let line = match got {
                Ok(Some(line)) => line,
                Ok(None) => {
                    idle += 1;
                    if idle > IDLE_LIMIT {
                        return Err("daemon stopped answering".into());
                    }
                    continue;
                }
                Err(e) => return Err(format!("recv: {e}")),
            };
            idle = 0;
            let now = ns(t1);
            let answered = match sessions.expected_verdict(&line, now, &mut out) {
                Some(a) => Some(a),
                None => {
                    let frame = parse_server_frame(&line)
                        .map_err(|e| format!("bad frame: {}", e.message))?;
                    sessions.on_frame(&frame, now, now < to, &mut out, o)?
                }
            };
            if let Some((sent, inst, seq)) = answered {
                if (from..to).contains(&now) {
                    let second = ((now - from) / 1_000_000_000) as usize;
                    stats.lat.push(second, now - sent);
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.push("client.feed", sent, now, ROOT, request(inst, seq));
                }
            }
        }
    })();
    if let Err(e) = result {
        o.fail(e);
    }
    stats.wall_ns = ns(Instant::now());
    stats.feeds = sessions.sent_ops;
    stats.busy = sessions.busy;
    sessions.settle(o);
    stats
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns from now on, to the
/// highest-numbered CPU it may run on; returns that CPU, or `None` when
/// the affinity calls fail (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the call writes at most `size` bytes, the size of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the call reads at most `size` bytes, the size of `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Starts and stops a daemon for each index in `ks`, pushing each start-up
/// time onto `setups`; false (with the failure recorded) if one fails.
fn time_setups(
    ctx: &Ctx,
    durable: bool,
    ks: std::ops::Range<usize>,
    setups: &mut Vec<f64>,
    o: &mut Outcome,
) -> bool {
    for k in ks {
        let t = Instant::now();
        match start_daemon(ctx, k, durable) {
            Ok(d) => {
                setups.push(t.elapsed().as_secs_f64());
                if let Err(e) = d.stop() {
                    o.fail(e);
                }
            }
            Err(e) => {
                o.fail(e);
                return false;
            }
        }
    }
    true
}

pub fn run(ctx: &Ctx, durable: bool, o: &mut Outcome) {
    let cpu = pin_to_one_cpu();
    o.config("pinned_cpu", cpu.map_or("none".into(), |c| c.to_string()));
    let inputs = inputs(ctx.seed);
    o.input_digest = inputs.digest;
    o.config("sessions_open", SESSIONS);
    o.config("window", WINDOW);
    o.config("pool", POOL);
    o.config("knot_every", KNOT_EVERY);
    o.config(
        "journal",
        if durable { "on, fsync_every 32" } else { "off" },
    );
    if ctx.trace {
        return traced(ctx, &inputs, durable, o);
    }
    // Start-ups are timed half before and half after the drive, so that
    // `setup_s` does not rest on one short stretch of the host's time.
    let mut setups = Vec::new();
    let half = SETUP_REPS / 2;
    if !time_setups(ctx, durable, 0..half, &mut setups, o) {
        return;
    }
    let t = Instant::now();
    let mut daemon = match start_daemon(ctx, half, durable) {
        Ok(d) => d,
        Err(e) => return o.fail(e),
    };
    setups.push(t.elapsed().as_secs_f64());
    let warmup = (ctx.seconds * 0.15).min(1.0);
    let lat = sample_buffer(ctx.seconds);
    let mem = MemProbe::start();
    let stats = drive(
        &mut daemon.link,
        &inputs.pool,
        warmup,
        ctx.seconds,
        lat,
        None,
        o,
    );
    let growth = mem.growth_mb();
    if let Err(e) = daemon.stop() {
        o.fail(e);
    }
    if !time_setups(ctx, durable, half + 1..SETUP_REPS, &mut setups, o) {
        return;
    }
    o.note("mem_hwm_reset", mem.reset);
    o.metric("setup_s", median(&mut setups), "s");
    o.metric("mem_peak_mb", growth, "MB");
    o.metric("ops_per_s", stats.verdicts_per_s(), "1/s");
    let per_second = stats.lat.per_window();
    o.note("verdicts_per_second", format!("{per_second:?}"));
    let min_window = per_second.iter().min().copied().unwrap_or(0);
    o.samples
        .push(("op_latency_fewest_per_second".into(), min_window as usize));
    if min_window == 0 || per_second.len() < ctx.seconds.ceil() as usize {
        o.fail("a second of the measurement window saw no verdict".into());
        return;
    }
    latency_metrics(o, &[&stats.lat]);
}

/// Journal records the table wrote, reconstructed from the frames each
/// call returned (a pure function of those frames, see `SessionTable`).
enum Rec {
    Open(String),
    Event(String, Event),
    Checked(String, usize),
    Close(String),
}

/// What the in-process replay produced, beyond its spans.
#[derive(Default)]
pub struct Sim {
    pub verdicts: u64,
    pub frame_bytes: u64,
    pub turns: u64,
    pub records: u64,
    pub journal_bytes: u64,
    pub monitor_nodes: u64,
    pub monitor_events: u64,
    pub monitor_skips: u64,
    /// Per-verdict in-process time (ns) per layer, filled by `breakdown`.
    pub layers: Vec<(&'static str, f64)>,
    /// Per span: the replayed monitor and journal time its call contained.
    pub outside_ns: Vec<u64>,
}

/// Replays the closed loop in-process through the public table calls, in
/// the order the socket transport uses: apply a frame, render its
/// responses, run one scheduler turn, render that turn's frames. When the
/// client has nothing to send, the daemon runs turns (as it does while its
/// socket is quiet). Verdicts are checked against the reference.
pub fn simulate(
    pool: &[SessionInput],
    sessions_total: u64,
    durable: bool,
    scratch: &Path,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Sim {
    let mut sim = Sim::default();
    let mut table = SessionTable::new(ServeConfig::default());
    if durable {
        let dir = scratch.join("table");
        match JournalWriter::create(&dir, ServeConfig::default().fsync_every) {
            Ok(w) => table.attach_journal(w),
            Err(e) => o.fail(format!("journal: {e}")),
        }
    }
    let mut sessions = Sessions::new(pool, sessions_total);
    let mut pushed = Vec::new();
    for slot in 0..SESSIONS {
        sessions.start(slot, 0, &mut pushed);
    }
    let mut outbox: VecDeque<String> = pushed.drain(..).collect();
    // (owning span, record) in write order; (turn span, inst, seq) per verdict.
    let mut records: Vec<(u32, Rec)> = Vec::new();
    let mut checked: Vec<(u32, u64, usize)> = Vec::new();
    let mut failed = false;
    let insts = |s: &Sessions, id: &str| slot_of(id).map(|k| s.slots[k].inst);
    loop {
        let (root, line) = match outbox.pop_front() {
            Some(line) => (tr.open("serve.line", ROOT, 0), Some(line)),
            None if !table.idle() => (tr.open("serve.poll", ROOT, 0), None),
            None => break,
        };
        let mut frames: Vec<Vec<Routed>> = Vec::new();
        if let Some(line) = line {
            sim.frame_bytes += line.len() as u64 + 1;
            let parsed = tr.time("frame.decode", root, 0, || parse_client_frame(&line));
            let Ok(frame) = parsed else {
                o.fail(format!("client frame does not parse: {line}"));
                break;
            };
            let out = match frame {
                ClientFrame::Open { session } => {
                    let span = tr.open("table.open", root, 0);
                    let out = table.open(&session, 0);
                    tr.close(span);
                    if out
                        .iter()
                        .any(|r| matches!(r.frame, ServerFrame::Opened { .. }))
                    {
                        records.push((span, Rec::Open(session)));
                    }
                    out
                }
                ClientFrame::Feed {
                    session,
                    event,
                    seq,
                } => {
                    let req =
                        insts(&sessions, &session).map_or(0, |i| request(i, seq.unwrap_or(0)));
                    tr.spans[root as usize].req = req;
                    let span = tr.open("table.feed", root, req);
                    let out = table.feed(&session, event.clone(), seq, 0);
                    tr.close(span);
                    if out.is_empty() {
                        records.push((span, Rec::Event(session, event)));
                    }
                    out
                }
                ClientFrame::Close { session } => {
                    let span = tr.open("table.close", root, 0);
                    let out = table.close(&session, 0);
                    tr.close(span);
                    if out
                        .iter()
                        .any(|r| matches!(r.frame, ServerFrame::Closed { .. }))
                    {
                        records.push((span, Rec::Close(session)));
                    }
                    out
                }
                ClientFrame::Shutdown => break,
            };
            frames.push(out);
        }
        let turn = tr.open("table.turn", root, 0);
        let out = table.pump_one();
        tr.close(turn);
        sim.turns += 1;
        let mut cursor: Option<(String, usize)> = None;
        for r in &out {
            match &r.frame {
                ServerFrame::Verdict { session, seq, .. } => {
                    if let Some(inst) = insts(&sessions, session) {
                        checked.push((turn, inst, *seq));
                    }
                    cursor = Some((session.clone(), *seq));
                }
                ServerFrame::Closed { session, .. } => {
                    if let Some((s, n)) = cursor.take() {
                        records.push((turn, Rec::Checked(s, n)));
                    }
                    records.push((turn, Rec::Close(session.clone())));
                }
                _ => {}
            }
        }
        if let Some((s, n)) = cursor {
            records.push((turn, Rec::Checked(s, n)));
        }
        frames.push(out);
        // Render and deliver: the client reacts at once, queueing its lines.
        for out in frames {
            for r in out {
                let text = tr.time("frame.render", root, 0, || r.frame.render());
                sim.frame_bytes += text.len() as u64 + 1;
                if matches!(r.frame, ServerFrame::Verdict { .. }) {
                    sim.verdicts += 1;
                }
                match sessions.on_frame(&r.frame, 0, true, &mut pushed, o) {
                    Ok(_) => outbox.extend(pushed.drain(..)),
                    Err(e) => {
                        o.fail(e);
                        failed = true;
                    }
                }
            }
        }
        tr.close(root);
        if failed {
            break;
        }
    }
    sessions.settle(o);
    drop(table);

    // Standalone monitor replay: each session's events, timed per feed.
    let mut mon: Vec<Vec<u64>> = Vec::new();
    for inst in 0..sessions.next_inst {
        let input = &pool[inst as usize % pool.len()];
        let mut m = monitor();
        let mut times = Vec::with_capacity(input.events.len());
        for (i, e) in input.events.iter().enumerate() {
            let span = tr.open("monitor.feed", ROOT, request(inst, i + 1));
            let v = m.feed(e.clone());
            tr.close(span);
            times.push(tr.spans[span as usize].dur());
            sim.monitor_events += 1;
            match v {
                Ok(MonitorVerdict::OpaqueBySkip) => sim.monitor_skips += 1,
                Ok(MonitorVerdict::OpaqueChecked) => {
                    sim.monitor_nodes += m.last_stats().nodes as u64
                }
                Ok(MonitorVerdict::Violated { .. }) if m.violated_at() == Some(i) => {
                    sim.monitor_nodes += m.last_stats().nodes as u64
                }
                _ => {}
            }
        }
        mon.push(times);
    }

    // Standalone journal replay of the records a journaling table writes
    // (this table's own when `durable`), syncing every `fsync_every`
    // records as the table's writer does. Its time is taken out of the
    // table's calls only when the table journaled.
    let mut journal_ns: Vec<u64> = vec![0; tr.spans.len()];
    let replay_dir = scratch.join("replay");
    match JournalWriter::create(&replay_dir, usize::MAX) {
        Ok(mut w) => {
            let every = ServeConfig::default().fsync_every;
            for (i, (owner, rec)) in records.iter().enumerate() {
                let req = tr.spans[*owner as usize].req;
                let span = tr.open("journal.append", ROOT, req);
                let res = match rec {
                    Rec::Open(s) => w.open(s),
                    Rec::Event(s, e) => w.event(s, e),
                    Rec::Checked(s, n) => w.checked(s, *n),
                    Rec::Close(s) => w.close(s, false),
                };
                tr.close(span);
                let mut cost = tr.spans[span as usize].dur();
                if (i + 1) % every == 0 {
                    let sync = tr.open("journal.sync", ROOT, req);
                    let synced = w.flush_sync();
                    tr.close(sync);
                    cost += tr.spans[sync as usize].dur();
                    if let Err(e) = synced {
                        o.fail(format!("journal sync: {e}"));
                    }
                }
                if let Err(e) = res {
                    o.fail(format!("journal append: {e}"));
                }
                if durable {
                    journal_ns[*owner as usize] += cost;
                }
            }
        }
        Err(e) => o.fail(format!("journal replay: {e}")),
    }
    sim.records = records.len() as u64;
    sim.journal_bytes = std::fs::metadata(tm_serve::journal::journal_path(&replay_dir))
        .map(|m| m.len())
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(scratch);
    journal_ns.resize(tr.spans.len(), 0);
    let mut monitor_ns: Vec<u64> = vec![0; tr.spans.len()];
    for (turn, inst, seq) in &checked {
        monitor_ns[*turn as usize] += mon[*inst as usize][seq - 1];
    }
    sim.layers = breakdown(tr, &monitor_ns, &journal_ns, sim.verdicts);
    sim.outside_ns = monitor_ns
        .iter()
        .zip(&journal_ns)
        .map(|(m, j)| m + j)
        .collect();
    sim
}

/// Splits the in-process time into layers, per verdict (ns): the table's
/// calls lose the monitor and journal time measured by the replays.
fn breakdown(
    tr: &Tracer,
    monitor_ns: &[u64],
    journal_ns: &[u64],
    verdicts: u64,
) -> Vec<(&'static str, f64)> {
    let mut sums: Vec<(&'static str, u64)> = [
        "frame.decode",
        "frame.render",
        "table.feed",
        "table.turn",
        "table.other",
        "monitor",
        "journal",
    ]
    .iter()
    .map(|n| (*n, 0))
    .collect();
    let mut add = |name: &str, v: u64| {
        if let Some(e) = sums.iter_mut().find(|(n, _)| *n == name) {
            e.1 += v;
        }
    };
    for (i, s) in tr.spans.iter().enumerate() {
        let outside = monitor_ns[i] + journal_ns[i];
        match s.name {
            "frame.decode" | "frame.render" => add(s.name, s.dur()),
            "table.feed" | "table.turn" => add(s.name, s.dur().saturating_sub(outside)),
            "table.open" | "table.close" => add("table.other", s.dur().saturating_sub(outside)),
            _ => {}
        }
        add("monitor", monitor_ns[i]);
        add("journal", journal_ns[i]);
    }
    let v = verdicts.max(1) as f64;
    sums.into_iter().map(|(n, t)| (n, t as f64 / v)).collect()
}

fn traced(ctx: &Ctx, inputs: &Inputs, durable: bool, o: &mut Outcome) {
    let epoch = Instant::now();
    let mut daemon = match start_daemon(ctx, 0, durable) {
        Ok(d) => d,
        Err(e) => return o.fail(e),
    };
    // Untraced, then traced, socket drives of equal length.
    let part = (ctx.seconds * 0.3).max(0.5);
    let warmup = (part * 0.15).min(1.0);
    let plain = drive(
        &mut daemon.link,
        &inputs.pool,
        warmup,
        part,
        sample_buffer(part),
        None,
        o,
    );
    let mut client = Tracer::new(epoch, 1 << 20);
    let lat = sample_buffer(part);
    let traced = drive(
        &mut daemon.link,
        &inputs.pool,
        warmup,
        part,
        lat,
        Some(&mut client),
        o,
    );
    if let Err(e) = daemon.stop() {
        o.fail(e);
    }
    let busy_frac = 1.0 - traced.recv_ns as f64 / traced.wall_ns.max(1) as f64;

    let mut tr = Tracer::new(epoch, 1 << 22);
    let scratch = ctx.run_dir.join(format!("sim{}", std::process::id()));
    let sim = simulate(&inputs.pool, TRACED_SESSIONS, durable, &scratch, &mut tr, o);
    let us = |v: f64| v / 1e3;
    let stat = |name: &str| {
        let mut d = tr.durations(name);
        d.sort_unstable();
        d
    };
    let verdicts = sim.verdicts.max(1) as f64;

    let decode = stat("frame.decode");
    o.metric("frame.decode_us", us(mean(&decode)), "us");
    o.metric("frame.render_us", us(mean(&stat("frame.render"))), "us");
    o.count(
        "frame.bytes_per_verdict",
        sim.frame_bytes as f64 / verdicts,
        "B",
        Kind::Exact,
    );

    // Table self time: the call minus the replayed monitor and journal time.
    let layer = |name: &str| {
        sim.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |l| l.1)
    };
    let feeds = tr.durations("table.feed").len().max(1) as f64;
    o.metric(
        "table.feed_us",
        us(layer("table.feed") * verdicts / feeds),
        "us",
    );
    let turns = sim.turns.max(1) as f64;
    o.metric(
        "table.turn_self_us",
        us(layer("table.turn") * verdicts / turns),
        "us",
    );
    let mut turn_self: Vec<u64> = tr
        .spans
        .iter()
        .zip(&sim.outside_ns)
        .filter(|(s, _)| s.name == "table.turn")
        .map(|(s, out)| s.dur().saturating_sub(*out))
        .collect();
    turn_self.sort_unstable();
    o.metric(
        "table.turn_us_p99",
        us(percentile(&turn_self, 99.0) as f64),
        "us",
    );
    o.samples
        .push(("table.turn_us_p99".into(), turn_self.len()));
    o.count(
        "table.turns_per_verdict",
        sim.turns as f64 / verdicts,
        "count",
        Kind::Exact,
    );
    o.count(
        "table.busy_frac",
        (plain.busy + traced.busy) as f64 / (plain.feeds + traced.feeds).max(1) as f64,
        "ratio",
        Kind::Sched,
    );

    // The journal replay runs for both workloads: serve-light's daemon
    // does not journal, but its sessions give the same record stream.
    let mut appends = stat("journal.append");
    let syncs = stat("journal.sync");
    o.metric("journal.append_us", us(mean(&appends)), "us");
    appends.sort_unstable();
    o.metric(
        "journal.append_us_p99",
        us(percentile(&appends, 99.0) as f64),
        "us",
    );
    o.samples
        .push(("journal.append_us_p99".into(), appends.len()));
    o.metric("journal.sync_us", us(mean(&syncs)), "us");
    o.count(
        "journal.records_per_verdict",
        sim.records as f64 / verdicts,
        "count",
        Kind::Exact,
    );
    o.count(
        "journal.bytes_per_verdict",
        sim.journal_bytes as f64 / verdicts,
        "B",
        Kind::Exact,
    );

    let mut mon = stat("monitor.feed");
    o.metric("monitor.feed_us", us(mean(&mon)), "us");
    mon.sort_unstable();
    o.metric(
        "monitor.feed_us_p99",
        us(percentile(&mon, 99.0) as f64),
        "us",
    );
    o.samples.push(("monitor.feed_us_p99".into(), mon.len()));
    let events = sim.monitor_events.max(1) as f64;
    o.count(
        "monitor.nodes_per_event",
        sim.monitor_nodes as f64 / events,
        "count",
        Kind::Exact,
    );
    o.count(
        "monitor.skip_frac",
        sim.monitor_skips as f64 / events,
        "ratio",
        Kind::Exact,
    );

    // Transport: what the socket path costs beyond the in-process layers.
    let in_process: f64 = sim.layers.iter().map(|l| l.1).sum();
    let e2e_ns = 1e9 / plain.verdicts_per_s();
    o.metric("transport.us_per_verdict", us(e2e_ns - in_process), "us");
    o.metric("client.busy_frac", busy_frac, "ratio");
    let traced_ns = 1e9 / traced.verdicts_per_s();
    o.metric("overhead.verdict_us", us(traced_ns - e2e_ns), "us");

    let parts: Vec<String> = sim
        .layers
        .iter()
        .map(|(n, v)| format!("{n} {:.3}", us(*v)))
        .collect();
    o.note(
        "accounting_us_per_verdict",
        format!(
            "{} + transport {:.3} = {:.3} = 1e6/ops_per_s ({:.0}/s untraced, {:.0}/s traced)",
            parts.join(" + "),
            us(e2e_ns - in_process),
            us(e2e_ns),
            plain.verdicts_per_s(),
            traced.verdicts_per_s()
        ),
    );
    o.note("in_process_sessions", TRACED_SESSIONS);
    let path = ctx.run_dir.join(format!("trace-{}.tsv", ctx.workload));
    match crate::spans::write_all(&path, &[&tr, &client]) {
        Ok(()) => o.note("trace_file", path.display()),
        Err(e) => o.note("trace_file_error", e),
    }
}

/// Exact counts of the in-process replay for the self-test, with and
/// without the journal.
pub fn exact_counts(seed: u64, run_dir: &Path) -> Vec<(String, u64)> {
    let inputs = inputs(seed);
    let mut out = vec![("serve.input_digest".to_string(), inputs.digest)];
    // The same session count as the traced run, so the counts match it.
    for durable in [false, true] {
        let mut tr = Tracer::new(Instant::now(), 1 << 20);
        let mut o = Outcome::default();
        let scratch = run_dir.join(format!("self{}", std::process::id()));
        let sim = simulate(
            &inputs.pool,
            TRACED_SESSIONS,
            durable,
            &scratch,
            &mut tr,
            &mut o,
        );
        let name = if durable {
            "serve-durable"
        } else {
            "serve-light"
        };
        let counts = [
            ("verdicts", sim.verdicts),
            ("frame_bytes", sim.frame_bytes),
            ("turns", sim.turns),
            ("journal_records", sim.records),
            ("journal_bytes", sim.journal_bytes),
            ("monitor_nodes", sim.monitor_nodes),
            ("monitor_skips", sim.monitor_skips),
            ("failed", o.failed),
        ];
        out.extend(counts.map(|(k, v)| (format!("{name}.{k}"), v)));
    }
    out
}
