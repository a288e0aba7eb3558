//! The serialization-search engine shared by all history-level checkers.
//!
//! Definition 1 (and its weakenings in Section 3) all have the same shape:
//! *does there exist a sequential history `S`, equivalent to (a completion
//! of / the committed projection of) `H`, that preserves (optionally) the
//! real-time order of `H` and in which every transaction is legal?*
//!
//! The engine performs a depth-first search over placements of transactions
//! into the sequential order `S`, one at a time:
//!
//! * a transaction may be placed only when all its real-time predecessors
//!   (if real-time order is enforced) are already placed;
//! * placing a transaction requires its operations to replay legally against
//!   the object states produced by the *committed* transactions placed so
//!   far (this is exactly "legal in S": an aborted transaction is validated
//!   against the committed prefix but does not contribute effects);
//! * a commit-pending transaction may be placed either as committed or as
//!   aborted — which folds the choice of a member of `Complete(H)` into the
//!   search;
//! * dead ends are memoized on `(set of placed transactions, canonical
//!   object states)`, which prunes the factorial search to the number of
//!   distinct reachable states.
//!
//! ## The resumable core
//!
//! The engine is a **[`SearchCore`]**: a persistent structure fed one event
//! at a time ([`SearchCore::extend`]) and queried for a verdict on the
//! history seen so far ([`SearchCore::check`]). Three things survive across
//! checks and make the online monitor asymptotically cheaper than
//! re-checking every prefix from scratch:
//!
//! 1. **Per-transaction metadata** (views, statuses, real-time predecessor
//!    masks) is maintained incrementally, so a check never re-scans the
//!    history;
//! 2. **The memo table of dead ends** is kept between checks and only
//!    selectively invalidated. Appending events can only *tighten* the
//!    search (ops accumulate, statuses narrow) except in two cases, which
//!    drop exactly the entries they can unsound: a completed operation or a
//!    `tryC` of transaction `t` drops the entries in which `t` was still
//!    unplaced (its new op / widened placement set could rescue those dead
//!    ends);
//! 3. **The previous witness** biases the DFS candidate order, so when the
//!    new events merely extend the old serialization — the common case — the
//!    check walks straight down the witness in `O(|H|)` replay work with no
//!    backtracking.
//!
//! Object states are mutated **in place** during the DFS via the
//! apply/undo delta API of `tm-model` ([`tm_model::StatesDelta`]) instead of
//! being cloned per placement; the only remaining clone is the one that
//! stores a dead end into the memo table, and [`SearchStats`] reports both
//! counts.
//!
//! ## The memory-bounded core
//!
//! **[`SearchConfig::memo_capacity`]** bounds the resident dead-end entries
//! with cost-ranked eviction. Evicting a dead end is always sound — the
//! entry is pure pruning, so the search can only re-pay the exploration
//! that rediscovers it — and composes with the invalidation rules above,
//! which remove entries regardless of segment. [`SearchStats::evictions`]
//! reports the per-check eviction count. Eviction priority is *recompute
//! cost* (see `crate::memo`): the entries that survive a tight budget are
//! the ones whose loss would be expensive, so bounded tables degrade
//! gracefully instead of thrashing.
//!
//! Opacity checking over arbitrary histories is NP-hard (it embeds
//! view-serializability), so the worst case is necessarily exponential; the
//! memoized search is nonetheless fast for the history sizes produced by
//! tests, the random-history cross-validation, and recorded STM executions.

use std::collections::HashMap;

use crate::memo::Memo;
use tm_model::legal::{replay_tx_mut, LegalityError};
use tm_model::wellformed::WfError;
use tm_model::{Event, History, ObjStates, SpecRegistry, StatesDelta, TxId, TxStatus, TxView};

/// How a transaction was placed in a serialization witness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Placed as a committed transaction (its effects fold into the state).
    Committed,
    /// Placed as an aborted transaction (validated, effects discarded).
    Aborted,
}

/// A successful serialization: the order in which transactions form the
/// equivalent sequential history `S`, with the decided status of each.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Witness {
    /// Transactions in serialization order with their placement decisions.
    pub order: Vec<(TxId, Placement)>,
}

impl Witness {
    /// The serialization order without placement decisions.
    pub fn tx_order(&self) -> Vec<TxId> {
        self.order.iter().map(|(t, _)| *t).collect()
    }

    /// The decision for `t`, if `t` was placed.
    pub fn placement_of(&self, t: TxId) -> Option<Placement> {
        self.order.iter().find(|(x, _)| *x == t).map(|(_, p)| *p)
    }
}

/// Hard errors that make a search impossible (as opposed to "not opaque").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The input history is not well-formed.
    NotWellFormed(tm_model::WfError),
    /// More transactions than the bitmask-based search supports.
    TooManyTransactions {
        /// Number of transactions found in the history.
        found: usize,
        /// Maximum supported by the engine.
        max: usize,
    },
    /// An operation targets an object with no sequential specification.
    NoSpec(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotWellFormed(e) => write!(f, "history not well-formed: {e}"),
            CheckError::TooManyTransactions { found, max } => {
                write!(f, "{found} transactions exceed engine limit of {max}")
            }
            CheckError::NoSpec(obj) => write!(f, "no sequential specification for {obj}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// What the search engine should look for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchMode {
    /// Include non-committed transactions (live/aborted/commit-pending) in
    /// `S` and require their legality. `true` for opacity; `false` for
    /// serializability-style criteria, which erase them.
    pub include_noncommitted: bool,
    /// Require `S` to preserve the real-time order `≺_H`.
    pub respect_real_time: bool,
}

impl SearchMode {
    /// The mode of Definition 1 (opacity).
    pub const OPACITY: SearchMode = SearchMode {
        include_noncommitted: true,
        respect_real_time: true,
    };
    /// Final-state serializability / global atomicity: committed only, any
    /// order.
    pub const SERIALIZABILITY: SearchMode = SearchMode {
        include_noncommitted: false,
        respect_real_time: false,
    };
    /// Strict serializability: committed only, real-time preserved.
    pub const STRICT_SERIALIZABILITY: SearchMode = SearchMode {
        include_noncommitted: false,
        respect_real_time: true,
    };
}

/// Statistics from a search, for the ablation benchmarks (E13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// DFS nodes expanded.
    pub nodes: usize,
    /// Dead ends pruned by the memo table.
    pub memo_hits: usize,
    /// Placements rejected by legality replay.
    pub illegal_placements: usize,
    /// `ObjStates` snapshots actually cloned (memo-table inserts — the only
    /// clones left in the engine).
    pub state_clones: usize,
    /// `ObjStates` clones *avoided* by the in-place apply/undo replay: one
    /// per placement expansion and one per memo probe, each of which the
    /// pre-resumable engine paid with a full snapshot clone.
    pub clones_saved: usize,
    /// Always 0: the search runs on the calling thread and steals nothing.
    /// Kept only so existing benchmark readers still compile.
    pub steals: usize,
    /// Always 0: the search donates no tasks. Kept only so existing
    /// benchmark readers still compile.
    pub donated_tasks: usize,
    /// Always 0: the search cancels no tasks. Kept only so existing
    /// benchmark readers still compile.
    pub cancelled_tasks: usize,
    /// Memo entries evicted by the capacity bound during this check.
    pub evictions: usize,
}

/// Number of monotone counter cells in [`SearchStats::counter_cells`].
const STAT_CELLS: usize = 9;

impl SearchStats {
    /// The counters as one flat cell array, in declaration order — the
    /// shape consumed by [`tm_obs::merge_counters`].
    fn counter_cells(&self) -> [u64; STAT_CELLS] {
        [
            self.nodes as u64,
            self.memo_hits as u64,
            self.illegal_placements as u64,
            self.state_clones as u64,
            self.clones_saved as u64,
            self.steals as u64,
            self.donated_tasks as u64,
            self.cancelled_tasks as u64,
            self.evictions as u64,
        ]
    }

    fn set_counter_cells(&mut self, cells: [u64; STAT_CELLS]) {
        self.nodes = cells[0] as usize;
        self.memo_hits = cells[1] as usize;
        self.illegal_placements = cells[2] as usize;
        self.state_clones = cells[3] as usize;
        self.clones_saved = cells[4] as usize;
        self.steals = cells[5] as usize;
        self.donated_tasks = cells[6] as usize;
        self.cancelled_tasks = cells[7] as usize;
        self.evictions = cells[8] as usize;
    }

    /// Accumulates `other` into `self` (used for lifetime totals). The
    /// counters delegate to [`tm_obs::merge_counters`] — the workspace's
    /// one telemetry-merge implementation.
    pub fn absorb(&mut self, other: &SearchStats) {
        let mut cells = self.counter_cells();
        tm_obs::merge_counters(&mut cells, &other.counter_cells());
        self.set_counter_cells(cells);
    }
}

/// The outcome of a serialization search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    /// A witness if the history satisfies the criterion.
    pub witness: Option<Witness>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// True if a witness was found.
    pub fn holds(&self) -> bool {
        self.witness.is_some()
    }
}

/// Engine configuration knobs (ablations are measured in `tm-bench`).
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Enable the `(mask, state)` memo table (on by default).
    pub memoize: bool,
    /// Hard cap on DFS nodes per check; `None` for unlimited. When hit, the
    /// search conservatively reports "no witness found" via
    /// [`SearchOutcome::witness`] `= None`.
    pub node_limit: Option<usize>,
    /// Ignored: every check runs on the calling thread. Kept only so
    /// existing benchmark configurations still compile; leave it at the
    /// default.
    pub search_jobs: usize,
    /// Bound on resident dead-end memo entries, enforced with cost-ranked
    /// eviction (see `crate::memo`); `None` — the default — keeps every
    /// entry.
    pub memo_capacity: Option<usize>,
    /// Observability handle (disabled by default — every instrumented
    /// path is then a no-op branch). When enabled, each check folds its
    /// [`SearchStats`] into the sink's counters and records the
    /// feed→verdict latency histogram and a `check` span.
    pub obs: tm_obs::ObsHandle,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            memoize: true,
            node_limit: None,
            search_jobs: 1,
            memo_capacity: None,
            obs: tm_obs::ObsHandle::disabled(),
        }
    }
}

const MAX_TXS: usize = 64;

/// Mirror of the per-transaction well-formedness automaton of
/// `tm_model::wellformed`, maintained incrementally so that
/// [`SearchCore::extend`] rejects exactly the events `check_well_formed`
/// would reject, with the same [`WfError`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum TxWf {
    Idle,
    OpPending(Event),
    CommitPending,
    AbortPending,
    Done,
}

/// Per-transaction state of the resumable core.
struct TxCell {
    id: TxId,
    view: TxView,
    wf: TxWf,
    issued_try_abort: bool,
    /// Bit index in the placement masks, assigned when the transaction
    /// becomes *selected* under the search mode (immediately for opacity;
    /// at its commit event for committed-only criteria).
    bit: Option<u32>,
    /// Real-time predecessors (bits of selected transactions completed
    /// before this transaction's first event), frozen at creation: appending
    /// events never adds real-time edges between existing transactions.
    pred_mask: u64,
}

/// The placement decisions allowed for a transaction by its status in
/// `H` (and the search mode).
fn allowed_placements(status: TxStatus) -> &'static [Placement] {
    match status {
        TxStatus::Committed => &[Placement::Committed],
        // A commit-pending transaction may appear committed or aborted
        // (the dual semantics of Section 5.2).
        TxStatus::CommitPending => &[Placement::Committed, Placement::Aborted],
        // Aborted, abort-pending, and live transactions can only be
        // aborted in a completion.
        _ => &[Placement::Aborted],
    }
}

/// One check's DFS: the context it borrows from the core (transaction
/// metadata, candidate order, the memo) plus its mutable scratch.
struct Dfs<'c> {
    specs: &'c SpecRegistry,
    txs: &'c [TxCell],
    by_bit: &'c [usize],
    order: &'c [u32],
    selected_mask: u64,
    memoize: bool,
    node_limit: Option<usize>,
    memo: &'c mut Memo,
    /// [`SearchConfig::obs`]: a disabled handle outside `--metrics-out`/
    /// `--trace-out`/`--progress` runs. The hot loop touches it only once
    /// every 1024 nodes (the live-progress counter), so the disabled cost
    /// is one masked branch per kilonode.
    obs: tm_obs::ObsHandle,
    states: ObjStates,
    delta: StatesDelta,
    stack: Vec<(TxId, Placement)>,
    stats: SearchStats,
    /// Set once the node cap cut this exploration short. From that moment
    /// every unwinding frame's subtree is only partially explored, so its
    /// "dead end" is unreliable and must NOT enter the memo table (a
    /// truncated false would otherwise poison later checks).
    truncated: bool,
}

impl Dfs<'_> {
    /// The recursive search below the frontier `placed`.
    fn dfs(&mut self, placed: u64) -> Result<bool, CheckError> {
        if placed == self.selected_mask {
            return Ok(true);
        }
        if self
            .node_limit
            .is_some_and(|limit| self.stats.nodes >= limit)
        {
            self.truncated = true;
            return Ok(false);
        }
        let nodes_at_entry = self.stats.nodes;
        self.stats.nodes += 1;
        if self.stats.nodes & 0x3FF == 0 {
            // Live-progress feed (`tmcheck check --progress`): amortized to
            // one registry touch per 1024 nodes so enabled observability
            // stays off the hot path; the exact totals are folded per check.
            self.obs.counter_add("search.nodes_live", 0x400);
        }
        if self.memoize {
            self.stats.clones_saved += 1; // memo probe without a key clone
            if self.memo.probe(placed, &self.states) {
                self.stats.memo_hits += 1;
                return Ok(false);
            }
        }
        // Copies of the borrowed slices, so a candidate's metadata stays
        // usable across the recursive `&mut self` call.
        let (txs, by_bit) = (self.txs, self.by_bit);
        for &b in self.order {
            let bit = 1u64 << b;
            let tx = &txs[by_bit[b as usize]];
            if placed & bit != 0 || tx.pred_mask & !placed != 0 {
                continue;
            }
            let mark = self.delta.mark();
            // Replay the candidate against the committed-prefix state.
            match replay_tx_mut(&tx.view, &mut self.states, self.specs, &mut self.delta) {
                Ok(()) => {}
                Err(LegalityError::NoSpec(op)) => {
                    return Err(CheckError::NoSpec(op.obj.name().to_string()));
                }
                Err(LegalityError::IllegalResponse { .. }) => {
                    self.stats.illegal_placements += 1;
                    continue;
                }
            }
            for &placement in allowed_placements(tx.view.status) {
                if placement == Placement::Aborted {
                    // Validated above; effects are discarded.
                    self.delta.rollback_to(&mut self.states, mark);
                }
                self.stats.clones_saved += 1; // placement without a clone
                self.stack.push((tx.id, placement));
                if self.dfs(placed | bit)? {
                    return Ok(true);
                }
                self.stack.pop();
            }
            self.delta.rollback_to(&mut self.states, mark);
        }
        // Frames that finished exploring before the node limit fired are
        // genuine dead ends; frames unwinding after it are not — caching
        // them would let a truncated "no" poison every later check.
        if self.memoize && !self.truncated {
            self.stats.state_clones += 1;
            // The entry's eviction priority is what it cost to establish:
            // the nodes expanded below (and including) this frontier.
            self.memo
                .insert(placed, &self.states, self.stats.nodes - nodes_at_entry);
        }
        Ok(false)
    }
}

/// The resumable serialization-search engine.
///
/// Feed events with [`SearchCore::extend`]; ask for a verdict on everything
/// fed so far with [`SearchCore::check`]. Between checks the core keeps its
/// transaction metadata, its memo table of dead ends (selectively
/// invalidated — see the module docs for the soundness argument), and the
/// last witness (which biases the next check's DFS order towards extending
/// it). One-shot callers run [`SearchCore::check_history`] on a fresh
/// core; stateful callers (the online monitor, the `tm-serve` sessions)
/// keep the core alive across a growing history.
pub struct SearchCore<'a> {
    specs: &'a SpecRegistry,
    mode: SearchMode,
    config: SearchConfig,
    txs: Vec<TxCell>,
    index: HashMap<TxId, usize>,
    /// Cell index per assigned bit.
    by_bit: Vec<usize>,
    events_seen: usize,
    selected_mask: u64,
    /// Bits of selected transactions that are completed (used to freeze
    /// `pred_mask` for transactions created later).
    completed_selected_mask: u64,
    /// Dead ends: placed-set mask × canonical object states from which the
    /// remaining transactions cannot be completed. Bounded per
    /// [`SearchConfig::memo_capacity`].
    memo: Memo,
    last_witness: Option<Witness>,
    stats: SearchStats,
    lifetime: SearchStats,
    checks: usize,
    /// DFS scratch: candidate bit order, biased by the last witness.
    order: Vec<u32>,
}

impl<'a> SearchCore<'a> {
    /// A core over an initially empty history.
    pub fn new(specs: &'a SpecRegistry, mode: SearchMode, config: SearchConfig) -> Self {
        SearchCore {
            specs,
            mode,
            config,
            txs: Vec::new(),
            index: HashMap::new(),
            by_bit: Vec::new(),
            events_seen: 0,
            selected_mask: 0,
            completed_selected_mask: 0,
            memo: Memo::new(config.memo_capacity),
            last_witness: None,
            stats: SearchStats::default(),
            lifetime: SearchStats::default(),
            checks: 0,
            order: Vec::new(),
        }
    }

    /// Number of events consumed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Statistics of the most recent [`SearchCore::check`].
    pub fn last_stats(&self) -> SearchStats {
        self.stats
    }

    /// Statistics accumulated over every check since creation.
    pub fn lifetime_stats(&self) -> SearchStats {
        self.lifetime
    }

    /// Number of checks run since creation.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Dead-end entries currently resident in the memo table.
    pub fn memo_resident(&self) -> usize {
        self.memo.resident()
    }

    /// Memo entries evicted by the capacity bound since creation (monotone).
    pub fn memo_evictions(&self) -> usize {
        self.memo.evictions()
    }

    /// The memo capacity enforced (the configured
    /// [`SearchConfig::memo_capacity`], raised to 1 if zero); `None` when
    /// unbounded.
    pub fn memo_capacity(&self) -> Option<usize> {
        self.memo.capacity()
    }

    /// Retunes the memo capacity of a live core (`None` = unbounded) —
    /// the hook a memory governor (the `tm-serve` session table) uses to
    /// apportion a global memo budget across many sessions. Sound in both
    /// directions: memo entries are pure pruning, so shrinking (which
    /// evicts down to the new bound) and the unbounded → bounded clear can
    /// only cost re-exploration, never change a verdict.
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.config.memo_capacity = capacity;
        self.memo.set_capacity(capacity);
    }

    /// Consumes one event, updating transaction metadata incrementally and
    /// invalidating exactly the memo entries the event can unsound.
    ///
    /// Fails — leaving the core unchanged, so the event is *not* consumed —
    /// if the event violates well-formedness or overflows the engine's
    /// transaction limit.
    pub fn extend(&mut self, e: &Event) -> Result<(), CheckError> {
        let tx = e.tx();
        let index = self.events_seen;
        let ci = match self.index.get(&tx) {
            Some(&ci) => ci,
            None => {
                // First event of a new transaction. Validate before creating
                // the cell so a failed extend leaves the core untouched.
                match e {
                    Event::Inv { .. } | Event::TryCommit(_) | Event::TryAbort(_) => {}
                    _ => {
                        return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                            tx,
                            index,
                        }))
                    }
                }
                let selected_now = self.mode.include_noncommitted;
                if selected_now && self.by_bit.len() >= MAX_TXS {
                    return Err(CheckError::TooManyTransactions {
                        found: self.by_bit.len() + 1,
                        max: MAX_TXS,
                    });
                }
                let ci = self.txs.len();
                let pred_mask = if self.mode.respect_real_time {
                    self.completed_selected_mask
                } else {
                    0
                };
                self.txs.push(TxCell {
                    id: tx,
                    view: TxView {
                        tx,
                        ops: Vec::new(),
                        pending: None,
                        status: TxStatus::Live,
                    },
                    wf: TxWf::Idle,
                    issued_try_abort: false,
                    bit: None,
                    pred_mask,
                });
                self.index.insert(tx, ci);
                if selected_now {
                    self.assign_bit(ci);
                }
                ci
            }
        };

        // Well-formedness transition (mirrors tm_model::wellformed exactly).
        let next_wf = match (&self.txs[ci].wf, e) {
            (TxWf::Done, _) => {
                return Err(CheckError::NotWellFormed(WfError::EventAfterCompletion {
                    tx,
                    index,
                }))
            }
            (TxWf::Idle, Event::Inv { .. }) => TxWf::OpPending(e.clone()),
            (TxWf::Idle, Event::TryCommit(_)) => TxWf::CommitPending,
            (TxWf::Idle, Event::TryAbort(_)) => TxWf::AbortPending,
            (TxWf::Idle, _) => {
                return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                    tx,
                    index,
                }))
            }
            (TxWf::OpPending(inv), Event::Ret { .. }) => {
                if e.matches_invocation(inv) {
                    TxWf::Idle
                } else {
                    return Err(CheckError::NotWellFormed(WfError::UnmatchedResponse {
                        tx,
                        index,
                    }));
                }
            }
            (TxWf::OpPending(_), Event::Abort(_)) => TxWf::Done,
            (TxWf::OpPending(_), Event::Commit(_)) => {
                return Err(CheckError::NotWellFormed(WfError::CommitAnswersOperation {
                    tx,
                    index,
                }))
            }
            (TxWf::OpPending(_), _) => {
                return Err(CheckError::NotWellFormed(WfError::InvocationWhilePending {
                    tx,
                    index,
                }))
            }
            (TxWf::CommitPending, Event::Commit(_)) | (TxWf::CommitPending, Event::Abort(_)) => {
                TxWf::Done
            }
            (TxWf::CommitPending, _) => {
                return Err(CheckError::NotWellFormed(WfError::BadEventAfterTryCommit {
                    tx,
                    index,
                }))
            }
            (TxWf::AbortPending, Event::Abort(_)) => TxWf::Done,
            (TxWf::AbortPending, _) => {
                return Err(CheckError::NotWellFormed(WfError::BadEventAfterTryAbort {
                    tx,
                    index,
                }))
            }
        };
        // Last fallible step, checked BEFORE committing any mutation so a
        // failed extend leaves the core exactly as it was: in committed-only
        // modes a Commit event selects the transaction, which needs a bit.
        if matches!(e, Event::Commit(_))
            && !self.mode.include_noncommitted
            && self.txs[ci].bit.is_none()
            && self.by_bit.len() >= MAX_TXS
        {
            return Err(CheckError::TooManyTransactions {
                found: self.by_bit.len() + 1,
                max: MAX_TXS,
            });
        }
        self.txs[ci].wf = next_wf;

        // Apply the event to the view/status and invalidate memo entries.
        match e {
            Event::Inv { obj, op, args, .. } => {
                // A pending invocation imposes no legality constraint: no
                // memo entry can become unsound.
                self.txs[ci].view.pending = Some((obj.clone(), op.clone(), args.clone()));
            }
            Event::Ret { val, .. } => {
                let (obj, op, args) = self.txs[ci]
                    .view
                    .pending
                    .take()
                    .expect("WF automaton guarantees a pending invocation");
                self.txs[ci].view.ops.push(tm_model::OpExec {
                    tx,
                    obj,
                    op,
                    args,
                    val: val.clone(),
                });
                // The new operation could rescue dead ends in which this
                // transaction was still unplaced (its committed placement
                // now changes the state differently). Entries that already
                // placed it remain sound: they only claim things about the
                // *other* transactions.
                self.drop_entries_not_placing(ci);
            }
            Event::TryCommit(_) => {
                self.txs[ci].view.status = TxStatus::CommitPending;
                // Widening: {Aborted} → {Committed, Aborted}. Same rule as a
                // new operation.
                self.drop_entries_not_placing(ci);
            }
            Event::TryAbort(_) => {
                self.txs[ci].issued_try_abort = true;
                self.txs[ci].view.status = TxStatus::AbortPending;
            }
            Event::Commit(_) => {
                self.txs[ci].view.status = TxStatus::Committed;
                if !self.mode.include_noncommitted {
                    // The transaction just became selected (the bit capacity
                    // was verified before any mutation above): every old
                    // entry's "remaining" set grew by it, so all bets are
                    // off.
                    self.assign_bit(ci);
                    self.memo.clear();
                }
                if let Some(b) = self.txs[ci].bit {
                    self.completed_selected_mask |= 1 << b;
                }
            }
            Event::Abort(_) => {
                // An abort answering a pending operation leaves the
                // operation without effect (tm_model::History::tx_view drops
                // the pending invocation); no completed op is added, so no
                // entry can become unsound.
                self.txs[ci].view.pending = None;
                self.txs[ci].view.status = if self.txs[ci].issued_try_abort {
                    TxStatus::Aborted
                } else {
                    TxStatus::ForcefullyAborted
                };
                if let Some(b) = self.txs[ci].bit {
                    self.completed_selected_mask |= 1 << b;
                }
            }
        }
        self.events_seen += 1;
        Ok(())
    }

    fn assign_bit(&mut self, ci: usize) {
        let b = self.by_bit.len() as u32;
        self.txs[ci].bit = Some(b);
        self.by_bit.push(ci);
        self.selected_mask |= 1 << b;
    }

    /// Drops memo entries whose placed-set does *not* contain transaction
    /// `ci` — those are the entries a change to `ci`'s ops or placement set
    /// could rescue.
    fn drop_entries_not_placing(&mut self, ci: usize) {
        if let Some(b) = self.txs[ci].bit {
            self.memo.retain_placing(1u64 << b);
        }
    }

    /// Consumes the not-yet-seen suffix of `h` and checks.
    ///
    /// `h` must be an extension of the history fed so far (the core trusts
    /// the already-consumed prefix and only reads `h`'s tail) — which is
    /// exactly the monitor's situation, and trivially true for a one-shot
    /// check on a fresh core.
    pub fn check_history(&mut self, h: &History) -> Result<SearchOutcome, CheckError> {
        for e in &h.events()[self.events_seen.min(h.len())..] {
            self.extend(e)?;
        }
        self.check()
    }

    /// Decides the criterion for the history fed so far.
    ///
    /// The DFS candidate order is biased towards the previous check's
    /// witness, so a check whose new events merely extend the old
    /// serialization runs in linear replay time with no backtracking.
    pub fn check(&mut self) -> Result<SearchOutcome, CheckError> {
        self.checks += 1;
        // Candidate order: last witness first (it remains real-time
        // compatible — appending events never orders two existing
        // transactions), then any transactions it does not cover, in
        // first-selection order.
        self.order.clear();
        let mut seen = 0u64;
        if let Some(w) = &self.last_witness {
            for (t, _) in &w.order {
                if let Some(&ci) = self.index.get(t) {
                    if let Some(b) = self.txs[ci].bit {
                        if seen & (1 << b) == 0 {
                            seen |= 1 << b;
                            self.order.push(b);
                        }
                    }
                }
            }
        }
        for b in 0..self.by_bit.len() as u32 {
            if seen & (1 << b) == 0 {
                self.order.push(b);
            }
        }
        let evictions_before = self.memo.evictions();
        let obs = self.config.obs;
        let _check_span = obs.span("check", "search");
        let started = obs.enabled().then(std::time::Instant::now);
        let mut dfs = Dfs {
            specs: self.specs,
            txs: &self.txs,
            by_bit: &self.by_bit,
            order: &self.order,
            selected_mask: self.selected_mask,
            memoize: self.config.memoize,
            node_limit: self.config.node_limit,
            memo: &mut self.memo,
            obs,
            states: ObjStates::new(),
            delta: StatesDelta::new(),
            stack: Vec::new(),
            stats: SearchStats::default(),
            truncated: false,
        };
        let found = dfs.dfs(0)?;
        let (witness_order, mut stats) = (found.then_some(dfs.stack), dfs.stats);
        stats.evictions = self.memo.evictions() - evictions_before;
        if let Some(t0) = started {
            // The feed→verdict latency: everything between the check request
            // and the verdict for the events fed so far.
            obs.observe("check.verdict_ns", t0.elapsed().as_nanos() as u64);
            self.fold_stats(&stats);
        }
        self.stats = stats;
        self.lifetime.absorb(&stats);
        let witness = witness_order.map(|order| Witness { order });
        if witness.is_some() {
            self.last_witness = witness.clone();
        }
        Ok(SearchOutcome { witness, stats })
    }

    /// Folds one check's [`SearchStats`] into the observability sink — per
    /// check, never per node, so enabled metrics stay off the DFS hot path.
    fn fold_stats(&self, stats: &SearchStats) {
        let obs = self.config.obs;
        obs.counter_add("search.checks", 1);
        obs.counter_add("search.nodes", stats.nodes as u64);
        obs.counter_add("search.illegal_placements", stats.illegal_placements as u64);
        obs.counter_add("search.clones_saved", stats.clones_saved as u64);
        // The memo lifecycle: with memoization on, every expanded node is
        // exactly one probe, and every state clone is one insert.
        if self.config.memoize {
            obs.counter_add("memo.probes", stats.nodes as u64);
        }
        obs.counter_add("memo.hits", stats.memo_hits as u64);
        obs.counter_add("memo.inserts", stats.state_clones as u64);
        obs.counter_add("memo.evictions", stats.evictions as u64);
        obs.gauge_set("memo.resident", self.memo.resident() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::builder::{paper, HistoryBuilder};

    fn regs() -> SpecRegistry {
        SpecRegistry::registers()
    }

    /// A one-shot check of `h` on a fresh core.
    fn fresh(
        h: &History,
        specs: &SpecRegistry,
        mode: SearchMode,
        config: SearchConfig,
    ) -> Result<SearchOutcome, CheckError> {
        SearchCore::new(specs, mode, config).check_history(h)
    }

    #[test]
    fn empty_history_holds_everywhere() {
        let h = History::new();
        for mode in [
            SearchMode::OPACITY,
            SearchMode::SERIALIZABILITY,
            SearchMode::STRICT_SERIALIZABILITY,
        ] {
            assert!(fresh(&h, &regs(), mode, SearchConfig::default())
                .unwrap()
                .holds());
        }
    }

    #[test]
    fn h1_serializable_but_not_opaque() {
        let h = paper::h1();
        assert!(fresh(
            &h,
            &regs(),
            SearchMode::SERIALIZABILITY,
            SearchConfig::default()
        )
        .unwrap()
        .holds());
        assert!(fresh(
            &h,
            &regs(),
            SearchMode::STRICT_SERIALIZABILITY,
            SearchConfig::default()
        )
        .unwrap()
        .holds());
        assert!(
            !fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default())
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn witness_reports_order_and_placements() {
        let h = paper::h5();
        let out = fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default()).unwrap();
        let w = out.witness.expect("H5 is opaque");
        // The paper's witness is S = T2 · T1 · T3.
        assert_eq!(w.tx_order(), vec![TxId(2), TxId(1), TxId(3)]);
        assert_eq!(w.placement_of(TxId(2)), Some(Placement::Committed));
        assert_eq!(w.placement_of(TxId(1)), Some(Placement::Aborted));
        assert_eq!(w.placement_of(TxId(3)), Some(Placement::Committed));
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = HistoryBuilder::new().commit(1).build();
        assert!(matches!(
            fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default()),
            Err(CheckError::NotWellFormed(_))
        ));
    }

    #[test]
    fn missing_spec_is_an_error() {
        let h = HistoryBuilder::new().read(1, "x", 0).commit_ok(1).build();
        let empty = SpecRegistry::new();
        assert!(matches!(
            fresh(&h, &empty, SearchMode::OPACITY, SearchConfig::default()),
            Err(CheckError::NoSpec(_))
        ));
    }

    #[test]
    fn memoization_prunes() {
        // Many concurrent committed writers: huge permutation space, small
        // state space; the memo table must keep node counts reasonable.
        let mut b = HistoryBuilder::new();
        for t in 1..=8u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=8u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let on = fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default()).unwrap();
        assert!(on.holds());
        let off = fresh(
            &h,
            &regs(),
            SearchMode::OPACITY,
            SearchConfig {
                memoize: false,
                node_limit: Some(2_000_000),
                ..SearchConfig::default()
            },
        )
        .unwrap();
        assert!(off.holds());
        assert!(on.stats.nodes <= off.stats.nodes);
    }

    #[test]
    fn node_limit_stops_search() {
        let mut b = HistoryBuilder::new();
        for t in 1..=10u32 {
            b = b.write(t, "x", t as i64);
        }
        // No commits: all live, all must be aborted; trivially opaque, but
        // with a node limit of 1 the search gives up.
        let h = b.build();
        let out = fresh(
            &h,
            &regs(),
            SearchMode::OPACITY,
            SearchConfig {
                memoize: true,
                node_limit: Some(1),
                ..SearchConfig::default()
            },
        )
        .unwrap();
        assert!(!out.holds());
        assert_eq!(out.stats.nodes, 1);
    }

    #[test]
    fn real_time_constrains_opacity_mode() {
        // T1 commits writing x=1 strictly before T2 starts; T2 reads the
        // initial 0: legal without real time, illegal with it.
        let h = HistoryBuilder::new()
            .write(1, "x", 1)
            .commit_ok(1)
            .read(2, "x", 0)
            .commit_ok(2)
            .build();
        assert!(
            !fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default())
                .unwrap()
                .holds()
        );
        assert!(!fresh(
            &h,
            &regs(),
            SearchMode::STRICT_SERIALIZABILITY,
            SearchConfig::default()
        )
        .unwrap()
        .holds());
        assert!(fresh(
            &h,
            &regs(),
            SearchMode::SERIALIZABILITY,
            SearchConfig::default()
        )
        .unwrap()
        .holds());
    }

    #[test]
    fn commit_pending_dual_semantics() {
        // H4: T3 must see T2 committed, T1 must see it aborted — the search
        // must pick Committed for T2 and order T1 before it.
        let h = paper::h4();
        let out = fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default()).unwrap();
        let w = out.witness.expect("H4 is opaque (Section 5.2)");
        assert_eq!(w.placement_of(TxId(2)), Some(Placement::Committed));
        let order = w.tx_order();
        let pos = |t: u32| order.iter().position(|&x| x == TxId(t)).unwrap();
        assert!(pos(1) < pos(2), "T1 must precede T2 in S: {order:?}");
        assert!(pos(2) < pos(3), "T2 must precede T3 in S: {order:?}");
    }

    // ---- resumable-core behavior ---------------------------------------

    /// Checks every prefix of `h` through one session and independently
    /// from scratch; verdicts must agree at every prefix.
    fn assert_session_matches_batch(h: &History) {
        let specs = regs();
        let mut session = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        for (i, e) in h.events().iter().enumerate() {
            session.extend(e).unwrap();
            let live = session.check().unwrap().holds();
            let batch = fresh(
                &h.prefix(i + 1),
                &specs,
                SearchMode::OPACITY,
                SearchConfig::default(),
            )
            .unwrap()
            .holds();
            assert_eq!(live, batch, "prefix {} of {h}", i + 1);
        }
    }

    #[test]
    fn session_verdicts_match_batch_on_paper_histories() {
        for h in [paper::h1(), paper::h3(), paper::h4(), paper::h5()] {
            assert_session_matches_batch(&h);
        }
    }

    #[test]
    fn try_commit_widening_invalidates_stale_dead_ends() {
        // With T1 live, T2's committed read of T1's write is a dead end; the
        // tryC of T1 widens its placements to {Committed, Aborted} and the
        // same session must now find the witness. A memo table kept blindly
        // across the widening would wrongly report "not opaque" forever.
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "x", 1)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds(), "dirty read while T1 is live");
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(
            s.check().unwrap().holds(),
            "commit-pending T1 may now be placed committed"
        );
    }

    #[test]
    fn new_op_invalidates_stale_dead_ends() {
        // T2 commits a read of y=7 before anyone wrote 7: not opaque. Then
        // live T1 (which started before T2 completed) finishes a write of
        // y=7: the full history becomes opaque (T1 placed committed before
        // T2). The session must not let the old dead end veto the rescue.
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "y", 7)
            .try_commit(2)
            .commit(2)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds());
        let rescue = HistoryBuilder::new().write(1, "y", 7).build();
        for e in rescue.events() {
            s.extend(e).unwrap();
        }
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds(), "T1(C) · T2(C) is a witness");
        // Cross-check against a from-scratch search on the full history.
        let mut full = prefix.clone();
        for e in rescue.events() {
            full.push(e.clone());
        }
        full.push(Event::TryCommit(TxId(1)));
        assert!(
            fresh(&full, &specs, SearchMode::OPACITY, SearchConfig::default())
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn witness_bias_makes_extension_checks_linear() {
        // A long legal chain: after the first check, every further check
        // walks straight down the previous witness — nodes per check stay
        // at (#txs placed + 1), with no backtracking.
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let mut b = HistoryBuilder::new();
        for t in 1..=12u32 {
            b = b
                .read(t, "x", (t - 1) as i64)
                .write(t, "x", t as i64)
                .commit_ok(t);
        }
        let h = b.build();
        for e in h.events() {
            s.extend(e).unwrap();
        }
        let out = s.check().unwrap();
        assert!(out.holds());
        let first_nodes = out.stats.nodes;
        // Extend by one more transaction and re-check: the incremental cost
        // must be two extra nodes (the new placement + the new root), not a
        // re-exploration.
        let ext = HistoryBuilder::new()
            .read(13, "x", 12)
            .write(13, "x", 13)
            .commit_ok(13)
            .build();
        for e in ext.events() {
            s.extend(e).unwrap();
        }
        let out2 = s.check().unwrap();
        assert!(out2.holds());
        assert!(
            out2.stats.nodes <= first_nodes + 2,
            "extension check expanded {} nodes (first: {first_nodes})",
            out2.stats.nodes
        );
        assert_eq!(out2.stats.illegal_placements, 0);
    }

    #[test]
    fn in_place_replay_reports_saved_clones() {
        let h = paper::h5();
        let out = fresh(&h, &regs(), SearchMode::OPACITY, SearchConfig::default()).unwrap();
        assert!(out.holds());
        assert!(
            out.stats.clones_saved > out.stats.state_clones,
            "the engine should avoid more clones than it performs: {:?}",
            out.stats
        );
    }

    #[test]
    fn failed_extend_leaves_the_core_usable() {
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        // A second tryC is ill-formed and must be rejected without consuming.
        assert!(matches!(
            s.extend(&Event::TryCommit(TxId(1))),
            Err(CheckError::NotWellFormed(_))
        ));
        assert_eq!(s.events_seen(), 1);
        // The valid continuation still works.
        s.extend(&Event::Commit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn truncated_checks_do_not_poison_the_memo() {
        // With a node limit, a check can give up ("no witness found") on a
        // history that IS opaque. Those truncated explorations must not be
        // cached as dead ends: a later check of the same session with more
        // budget headroom — or simply re-running after the limit reset —
        // must still be able to find the witness.
        let specs = regs();
        let config = SearchConfig {
            memoize: true,
            node_limit: Some(3),
            ..SearchConfig::default()
        };
        // H5 needs more than 3 nodes; per-check the limit resets, so the
        // second identical check must not be vetoed by entries recorded
        // while the first was truncated.
        let h = paper::h5();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, config);
        for e in h.events() {
            s.extend(e).unwrap();
        }
        let first = s.check().unwrap();
        let second = s.check().unwrap();
        let reference = fresh(&h, &specs, SearchMode::OPACITY, config).unwrap();
        assert_eq!(
            second.holds(),
            reference.holds(),
            "a repeated limited check must match a fresh limited check \
             (first: {:?})",
            first.holds()
        );
        // Cross-validate against batch semantics on every prefix of a
        // random-ish opaque chain: session verdicts under a limit must
        // equal fresh limited checks (the pre-refactor monitor contract).
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, config);
        for (i, e) in h.events().iter().enumerate() {
            s.extend(e).unwrap();
            let live = s.check().unwrap().holds();
            let batch = fresh(&h.prefix(i + 1), &specs, SearchMode::OPACITY, config)
                .unwrap()
                .holds();
            // The session may only be BETTER than fresh (its witness bias
            // finds serializations the truncated fresh search misses),
            // never worse: a stale truncated "no" must never veto a "yes".
            assert!(
                live || !batch,
                "prefix {}: session says no but fresh limited check says yes",
                i + 1
            );
        }
    }

    #[test]
    fn failed_commit_extend_is_atomic_in_committed_only_mode() {
        // Drive a committed-only session past the bit limit: the 65th
        // commit must fail with TooManyTransactions and leave the event
        // unconsumed — retrying yields the SAME error, not a WF error from
        // a half-applied transition.
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::SERIALIZABILITY, SearchConfig::default());
        for t in 1..=65u32 {
            let h = HistoryBuilder::new().write(t, "x", t as i64).build();
            for e in h.events() {
                s.extend(e).unwrap();
            }
            s.extend(&Event::TryCommit(TxId(t))).unwrap();
            if t <= 64 {
                s.extend(&Event::Commit(TxId(t))).unwrap();
            }
        }
        let seen = s.events_seen();
        for _ in 0..2 {
            assert!(matches!(
                s.extend(&Event::Commit(TxId(65))),
                Err(CheckError::TooManyTransactions { .. })
            ));
            assert_eq!(s.events_seen(), seen, "failed extend must not consume");
        }
        // The session remains usable: the 64 committed writers serialize.
        assert!(s.check().unwrap().holds());
    }

    #[test]
    fn session_tracks_lifetime_stats() {
        let specs = regs();
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, SearchConfig::default());
        let h = paper::h5();
        let mut total = 0;
        for e in h.events() {
            s.extend(e).unwrap();
            if e.is_response() {
                total += s.check().unwrap().stats.nodes;
            }
        }
        assert_eq!(s.lifetime_stats().nodes, total);
        assert!(s.checks() > 0);
    }

    #[test]
    fn truncation_never_inserts_into_the_memo() {
        // With the node budget exhausted after the first expansion, every
        // frame unwinds truncated and the table must stay EMPTY — a single
        // cached entry would be a partial exploration masquerading as a
        // dead end.
        let specs = regs();
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        let h = b.build();
        let config = SearchConfig {
            node_limit: Some(1),
            ..SearchConfig::default()
        };
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, config);
        assert!(
            !s.check_history(&h).unwrap().holds(),
            "budget 1 cannot finish"
        );
        assert_eq!(s.memo_resident(), 0, "truncated frames must not be cached");
        // And the truncation is not sticky knowledge: with the budget
        // lifted the witness is found (h IS opaque).
        assert!(
            fresh(&h, &specs, SearchMode::OPACITY, SearchConfig::default())
                .unwrap()
                .holds()
        );
    }

    // ---- bounded memo --------------------------------------------------

    #[test]
    fn memo_capacity_bounds_resident_entries_without_changing_verdicts() {
        let specs = regs();
        // A non-opaque workload big enough to overflow a tiny table: the
        // exhaustive search records many dead ends.
        let mut b = HistoryBuilder::new();
        for t in 1..=6u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=6u32 {
            b = b.commit_ok(t);
        }
        b = b.read(7, "x", -1).try_commit(7).commit(7); // impossible read
        let h = b.build();
        let unbounded = fresh(&h, &specs, SearchMode::OPACITY, SearchConfig::default()).unwrap();
        assert!(!unbounded.holds());
        for cap in [1usize, 8, 32] {
            let config = SearchConfig {
                memo_capacity: Some(cap),
                ..SearchConfig::default()
            };
            let mut s = SearchCore::new(&specs, SearchMode::OPACITY, config);
            for e in h.events() {
                s.extend(e).unwrap();
            }
            let out = s.check().unwrap();
            assert_eq!(out.holds(), unbounded.holds(), "cap={cap}");
            assert!(
                s.memo_resident() <= cap,
                "cap={cap}: resident {}",
                s.memo_resident()
            );
            if cap == 1 {
                assert!(out.stats.evictions > 0, "cap=1 must evict");
            }
            assert_eq!(s.memo_evictions(), s.lifetime_stats().evictions);
        }
    }

    #[test]
    fn eviction_composes_with_invalidation() {
        // Run the widening scenario (stale dead ends must be dropped) under
        // a tiny capacity: correctness must not depend on which entries the
        // LRU happened to keep.
        let specs = regs();
        let config = SearchConfig {
            memo_capacity: Some(2),
            ..SearchConfig::default()
        };
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, config);
        let prefix = HistoryBuilder::new()
            .write(1, "x", 1)
            .read(2, "x", 1)
            .build();
        for e in prefix.events() {
            s.extend(e).unwrap();
        }
        assert!(!s.check().unwrap().holds());
        s.extend(&Event::TryCommit(TxId(1))).unwrap();
        assert!(s.check().unwrap().holds());
    }

    // ---- search_jobs is inert ------------------------------------------

    /// The default configuration with `search_jobs` set to `jobs`. The
    /// field is ignored; these tests pin that setting it changes nothing.
    fn par(jobs: usize) -> SearchConfig {
        SearchConfig {
            search_jobs: jobs,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn parallel_verdicts_match_sequential_on_paper_histories() {
        let specs = regs();
        for h in [
            paper::h1(),
            paper::h2(),
            paper::h3(),
            paper::h4(),
            paper::h5(),
        ] {
            let seq = fresh(&h, &specs, SearchMode::OPACITY, SearchConfig::default()).unwrap();
            for jobs in [2, 4, 8] {
                let out = fresh(&h, &specs, SearchMode::OPACITY, par(jobs)).unwrap();
                assert_eq!(out, seq, "{h} under jobs={jobs}");
                if let Some(w) = &out.witness {
                    let s = crate::opacity::witness_history(&h, w);
                    assert!(
                        tm_model::all_txs_legal(&s, &specs).is_ok(),
                        "jobs={jobs} witness does not re-validate for {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_empty_and_trivial_histories() {
        let specs = regs();
        let h = History::new();
        assert!(fresh(&h, &specs, SearchMode::OPACITY, par(4))
            .unwrap()
            .holds());
        let h = HistoryBuilder::new().write(1, "x", 1).commit_ok(1).build();
        let out = fresh(&h, &specs, SearchMode::OPACITY, par(4)).unwrap();
        assert!(out.holds());
        assert_eq!(
            out,
            fresh(&h, &specs, SearchMode::OPACITY, SearchConfig::default()).unwrap()
        );
    }

    #[test]
    fn parallel_session_stays_resumable() {
        // A session configured with search_jobs > 1 keeps its memo and
        // witness across checks exactly as the default one: verdicts at
        // every prefix match fresh checks.
        let specs = regs();
        for h in [paper::h1(), paper::h4(), paper::h5()] {
            let mut s = SearchCore::new(&specs, SearchMode::OPACITY, par(3));
            for (i, e) in h.events().iter().enumerate() {
                s.extend(e).unwrap();
                let live = s.check().unwrap().holds();
                let batch = fresh(
                    &h.prefix(i + 1),
                    &specs,
                    SearchMode::OPACITY,
                    SearchConfig::default(),
                )
                .unwrap()
                .holds();
                assert_eq!(live, batch, "prefix {} of {h}", i + 1);
            }
        }
    }

    #[test]
    fn parallel_and_bounded_compose() {
        let specs = regs();
        let mut b = HistoryBuilder::new();
        for t in 1..=7u32 {
            b = b.write(t, "x", t as i64);
        }
        for t in 1..=7u32 {
            b = b.commit_ok(t);
        }
        b = b.read(8, "x", -1).try_commit(8).commit(8);
        let h = b.build();
        let bounded = |jobs| SearchConfig {
            search_jobs: jobs,
            memo_capacity: Some(16),
            ..SearchConfig::default()
        };
        let mut s = SearchCore::new(&specs, SearchMode::OPACITY, bounded(4));
        for e in h.events() {
            s.extend(e).unwrap();
        }
        let out = s.check().unwrap();
        assert!(!out.holds());
        assert!(s.memo_resident() <= 16);
        assert_eq!(
            out,
            fresh(&h, &specs, SearchMode::OPACITY, bounded(1)).unwrap()
        );
    }
}
