//! The dead-end memo table of the serialization search: an optionally
//! capacity-bounded map from `(placed-set mask, canonical object states)`
//! to "this frontier is a dead end", owned by one [`crate::SearchCore`].
//!
//! A memo entry records a *path-independent* fact: from the frontier
//! `(placed, states)` the remaining selected transactions cannot all be
//! placed legally. The one obligation the writer carries is completeness:
//! an entry may be inserted only after the subtree below the frontier was
//! explored **exhaustively**. The search enforces this by never inserting
//! once its exploration was truncated by the node cap — see `truncated`
//! in [`crate::search`].
//!
//! ## Why eviction is sound
//!
//! Entries are pure pruning: dropping one can only force the search to
//! re-explore (and re-discover) a dead end, never to change a verdict.
//! A bounded table is therefore free to evict anything at any time. The
//! *invalidation* rules are the opposite direction — an entry that became
//! unsound after new events must go — and eviction composes with them:
//! [`Memo::retain_placing`] and [`Memo::clear`] remove entries whatever
//! their segment.
//!
//! ## The eviction policy: cost segments with an aging floor
//!
//! Plain recency is the *worst* signal for a DFS memo: backtracking
//! re-probes entries in LIFO order, so by the time the search unwinds to
//! an early alternative, the entries it needs — flushed by the thousands
//! of deep inserts in between — are exactly the ones gone, and every
//! re-entry re-explores a whole subtree (measured: a quarter-capacity
//! plain-LRU table blew a phased knot search up by >100×, and pure
//! depth-priority eviction fails the same way by starving the active
//! frontier). The durable value of a dead end is what it would cost to
//! *recompute*: the number of nodes the search expanded below that
//! frontier before concluding it is dead — a quantity the DFS knows
//! exactly at insert time. Keeping expensive entries bounds the regret of
//! eviction greedily: losing an entry can only ever cost its (small)
//! recompute price per future probe, so a bounded table sheds precisely
//! the dead ends that are cheap to rediscover.
//!
//! Each entry therefore sits in a **cost segment** — ⌊log₂(subtree
//! nodes)⌋ + 1 — and is ranked `floor + segment`, ties broken by recency.
//! Eviction takes the lowest rank, so among entries touched together the
//! cheapest goes first and the flood of cost-1 leaf dead ends churns
//! under recency. The **aging floor** is the rank of the last evicted
//! entry; a probe hit or an insert re-ranks an entry against the current
//! floor (the GreedyDual scheme). An expensive entry that keeps pruning
//! keeps its lead, while one that is never touched again is eventually
//! outranked as the floor rises past it. Without the floor, stale
//! expensive entries of long-resolved phases accumulate until they crowd
//! out the live working set: on the phased knot workload
//! (`tm_bench::sequential_knot_search(15, 3)`, 301 entries unbounded) the
//! un-aged policy held 460 nodes down to a cap of 80 and then fell off a
//! cliff (1145 nodes at 75, 436127 at 37); with the floor the search
//! explored 460 nodes at every cap tried down to 20.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tm_model::ObjStates;

/// Live metadata of one memoized dead end.
struct EntryMeta {
    /// The entry's eviction rank, `(floor + bucket, recency stamp)`: its
    /// key in [`Memo::queue`] while the table is bounded.
    rank: (u64, u64),
    /// Cost segment: ⌊log₂(subtree nodes)⌋ + 1 of the exploration that
    /// established this dead end.
    bucket: u32,
}

/// The two-level entry index.
type MaskIndex = HashMap<u64, HashMap<Arc<ObjStates>, EntryMeta>>;

/// The dead-end table of one search core.
#[derive(Default)]
pub(crate) struct Memo {
    /// `placed-set mask → states → metadata`. The inner key is an `Arc` so
    /// the eviction queue can reference entries without cloning snapshots.
    by_mask: MaskIndex,
    /// Live entries (sum of inner map sizes).
    len: usize,
    /// Recency clock (the tie-break component of a rank).
    clock: u64,
    /// The aging floor: the rank of the last evicted entry.
    floor: u64,
    /// Bounded tables only: every resident entry by rank, lowest first.
    queue: BTreeMap<(u64, u64), (u64, Arc<ObjStates>)>,
    /// Entry cap; `None` = unbounded (no queue bookkeeping at all).
    cap: Option<usize>,
    /// Entries evicted by the capacity bound since creation (monotone).
    evictions: usize,
}

impl Memo {
    /// A memo bounded to at most `capacity` resident entries (`None` =
    /// unbounded; a zero capacity is raised to 1).
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        Memo {
            cap: capacity.map(|c| c.max(1)),
            ..Memo::default()
        }
    }

    /// A fresh rank for an entry of cost segment `bucket`.
    fn rank(&mut self, bucket: u32) -> (u64, u64) {
        self.clock += 1;
        (self.floor + u64::from(bucket), self.clock)
    }

    /// Evicts the lowest-ranked entry and raises the floor to its rank.
    /// Returns `false` if nothing was queued.
    fn evict_one(&mut self) -> bool {
        let Some(((rank, _), (mask, states))) = self.queue.pop_first() else {
            return false;
        };
        self.floor = rank;
        if let Some(inner) = self.by_mask.get_mut(&mask) {
            if inner.remove(states.as_ref()).is_some() {
                self.len -= 1;
                if inner.is_empty() {
                    self.by_mask.remove(&mask);
                }
            }
        }
        true
    }

    /// Evicts down to `cap` entries.
    fn evict_to(&mut self, cap: usize) {
        while self.len > cap && self.evict_one() {
            self.evictions += 1;
        }
    }

    /// Retunes the capacity bound of a live table (`None` = unbounded).
    ///
    /// Sound in both directions because entries are pure pruning (see the
    /// module docs): shrinking evicts down to the new bound through the
    /// normal policy; growing simply stops evicting. The one structural
    /// transition is unbounded → bounded: entries inserted while unbounded
    /// are not queued, so eviction cannot reach them — the table is
    /// cleared instead (a pure re-discovery cost, never a verdict change).
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        let old = self.cap;
        self.cap = capacity.map(|c| c.max(1));
        match (old, self.cap) {
            // Now unbounded: the queue is no longer maintained.
            (_, None) => self.queue.clear(),
            (None, Some(_)) => self.clear(),
            (Some(_), Some(cap)) => self.evict_to(cap),
        }
    }

    /// Is `(mask, states)` a recorded dead end? Under a capacity bound a
    /// hit re-ranks the entry against the current floor — an entry that
    /// keeps pruning stays ahead of it.
    pub(crate) fn probe(&mut self, mask: u64, states: &ObjStates) -> bool {
        let Some(meta) = self.by_mask.get(&mask).and_then(|m| m.get(states)) else {
            return false;
        };
        if self.cap.is_some() {
            let (old, bucket) = (meta.rank, meta.bucket);
            let rank = self.rank(bucket);
            let queued = self.queue.remove(&old).expect("bounded entries are queued");
            self.queue.insert(rank, queued);
            if let Some(meta) = self.by_mask.get_mut(&mask).and_then(|m| m.get_mut(states)) {
                meta.rank = rank;
            }
        }
        true
    }

    /// Records `(mask, states)` as a dead end established by exploring
    /// `cost` DFS nodes (idempotent). Evicts the lowest-ranked entries
    /// when the table is over capacity.
    pub(crate) fn insert(&mut self, mask: u64, states: &ObjStates, cost: usize) {
        if self
            .by_mask
            .get(&mask)
            .is_some_and(|m| m.contains_key(states))
        {
            return;
        }
        let bucket = usize::BITS - cost.max(1).leading_zeros(); // ⌊log₂⌋ + 1
        let arc = Arc::new(states.clone());
        let rank = self.rank(bucket);
        self.by_mask
            .entry(mask)
            .or_default()
            .insert(Arc::clone(&arc), EntryMeta { rank, bucket });
        self.len += 1;
        if let Some(cap) = self.cap {
            self.queue.insert(rank, (mask, arc));
            self.evict_to(cap);
        }
    }

    /// Drops every entry whose placed-set does **not** contain `bit` — the
    /// resumable core's invalidation rule for a new operation or a `tryC`
    /// widening of the transaction owning `bit` (entries that already
    /// placed the transaction only claim things about the others, so they
    /// stay).
    pub(crate) fn retain_placing(&mut self, bit: u64) {
        let mut removed = 0usize;
        self.by_mask.retain(|&mask, inner| {
            if mask & bit != 0 {
                true
            } else {
                removed += inner.len();
                false
            }
        });
        self.len -= removed;
        self.queue.retain(|_, (mask, _)| *mask & bit != 0);
    }

    /// Drops every entry (the committed-only re-selection rule).
    pub(crate) fn clear(&mut self) {
        self.by_mask.clear();
        self.len = 0;
        self.queue.clear();
    }

    /// Resident entries.
    pub(crate) fn resident(&self) -> usize {
        self.len
    }

    /// Total entries evicted by the capacity bound since creation
    /// (monotone; invalidation drops are not evictions).
    pub(crate) fn evictions(&self) -> usize {
        self.evictions
    }

    /// The capacity enforced; `None` when unbounded.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_model::{ObjId, Value};

    fn state(n: i64) -> ObjStates {
        let mut s = ObjStates::new();
        s.set(ObjId::new("x"), Value::Int(n));
        s
    }

    /// A mask with `d` low bits set (depth `d`).
    fn deep_mask(d: u32) -> u64 {
        if d >= 64 {
            u64::MAX
        } else {
            (1u64 << d) - 1
        }
    }

    #[test]
    fn probe_miss_then_insert_then_hit() {
        let mut memo = Memo::new(None);
        let s = state(1);
        assert!(!memo.probe(0b11, &s));
        memo.insert(0b11, &s, 1);
        assert!(memo.probe(0b11, &s));
        assert!(!memo.probe(0b01, &s), "mask is part of the key");
        assert_eq!(memo.resident(), 1);
        assert_eq!(memo.evictions(), 0);
        assert_eq!(memo.capacity(), None);
    }

    #[test]
    fn capacity_bounds_resident_entries() {
        let mut memo = Memo::new(Some(8));
        for i in 0..100 {
            memo.insert(1 << (i % 60), &state(i), 1);
        }
        assert_eq!(memo.resident(), 8);
        assert_eq!(memo.evictions(), 92);
        assert_eq!(memo.capacity(), Some(8));
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut memo = Memo::new(Some(1));
        memo.insert(1, &state(1), 1);
        memo.insert(2, &state(2), 1);
        assert_eq!(memo.resident(), 1);
        assert_eq!(memo.evictions(), 1);
    }

    #[test]
    fn expensive_entries_survive_cheap_floods() {
        // The point of cost segmentation: a dead end that took thousands
        // of nodes to establish is never displaced by a flood of cost-1
        // leaf dead ends — the failure mode that makes plain LRU (and
        // depth-priority eviction) catastrophic for DFS backtracking.
        let mut memo = Memo::new(Some(64));
        let expensive = state(-7);
        memo.insert(0b1, &expensive, 10_000);
        for i in 0..400 {
            memo.insert(deep_mask(40), &state(i), 1);
        }
        assert!(
            memo.probe(0b1, &expensive),
            "expensive entry evicted by a cheap flood"
        );
        assert!(memo.resident() <= 64);
        assert!(memo.evictions() > 0);
    }

    #[test]
    fn within_a_segment_eviction_is_lru() {
        // Recently probed entries outlive unprobed ones of the SAME cost
        // bucket: the hot entry is touched between every equal-cost cold
        // insert, so its rank is always the newest of its segment.
        let mut memo = Memo::new(Some(64));
        let hot = state(-1);
        memo.insert(deep_mask(10), &hot, 8);
        for i in 0..400 {
            memo.insert(deep_mask(9) | 1 << (10 + i % 50), &state(i), 8);
            assert!(
                memo.probe(deep_mask(10), &hot),
                "hot same-cost entry evicted after {i} inserts"
            );
        }
        assert!(memo.resident() <= 64);
    }

    #[test]
    fn untouched_expensive_entries_age_out_but_touched_ones_stay() {
        // The aging floor: under a long enough cheap flood, an expensive
        // entry nobody probes is eventually evicted, while an equally
        // expensive entry that keeps pruning survives.
        let mut memo = Memo::new(Some(16));
        let (stale, live) = (state(-1), state(-2));
        memo.insert(0b01, &stale, 1000);
        memo.insert(0b10, &live, 1000);
        for i in 0..2000 {
            memo.insert(deep_mask(40), &state(i), 1);
            if i % 16 == 0 {
                assert!(memo.probe(0b10, &live), "touched entry evicted at {i}");
            }
        }
        assert!(!memo.probe(0b01, &stale), "untouched entry never aged out");
        assert!(memo.probe(0b10, &live));
    }

    #[test]
    fn retain_placing_drops_exactly_the_unplacing_masks() {
        let mut memo = Memo::new(Some(32));
        for i in 0..16 {
            memo.insert(i, &state(i as i64), 1);
        }
        memo.retain_placing(0b100);
        for i in 0..16u64 {
            assert_eq!(
                memo.probe(i, &state(i as i64)),
                i & 0b100 != 0,
                "mask {i:#b}"
            );
        }
        // Queues were scrubbed: inserting past capacity still works.
        for i in 100..200 {
            memo.insert(0b100, &state(i), 1);
        }
        assert!(memo.resident() <= 32);
    }

    #[test]
    fn clear_empties_everything() {
        let mut memo = Memo::new(Some(16));
        for i in 0..10 {
            memo.insert(i, &state(i as i64), 1);
        }
        memo.clear();
        assert_eq!(memo.resident(), 0);
        for i in 0..10 {
            assert!(!memo.probe(i, &state(i as i64)));
        }
    }

    #[test]
    fn eviction_counter_is_monotone_and_capacity_is_exact() {
        // The enforced bound is the configured capacity, whatever its size.
        for configured in [1usize, 20, 64, 100, 1000, 2050] {
            let memo = Memo::new(Some(configured));
            assert_eq!(memo.capacity(), Some(configured));
        }
        let mut memo = Memo::new(Some(20));
        let mut last = 0;
        for i in 0..50 {
            memo.insert(1 << (i % 50), &state(i), 1);
            let now = memo.evictions();
            assert!(now >= last);
            last = now;
        }
        assert_eq!(memo.resident(), 20);
    }

    #[test]
    fn set_capacity_shrink_evicts_down_and_growth_stops_evicting() {
        let mut memo = Memo::new(Some(64));
        for i in 0..60 {
            memo.insert(1 << (i % 60), &state(i), (i as usize) % 9 + 1);
        }
        let before = memo.resident();
        assert!(before > 16, "resident {before}");
        memo.set_capacity(Some(16));
        assert_eq!(memo.resident(), 16);
        assert_eq!(memo.capacity(), Some(16));
        assert_eq!(memo.evictions(), before - 16);
        // Growing back: the survivors stay, new inserts stop evicting.
        memo.set_capacity(Some(1000));
        let survivors = memo.resident();
        for i in 100..140 {
            memo.insert(1 << (i % 60), &state(i), 1);
        }
        assert!(memo.resident() >= survivors);
        assert!(memo.resident() <= 1000);
    }

    #[test]
    fn set_capacity_from_unbounded_clears_then_bounds() {
        // Unbounded inserts carry no queue records, so the eviction queues
        // cannot reach them: the transition clears (sound — entries are
        // pure pruning) and the bound holds for everything inserted after.
        let mut memo = Memo::new(None);
        for i in 0..50 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        assert_eq!(memo.resident(), 50);
        memo.set_capacity(Some(8));
        assert_eq!(memo.resident(), 0);
        assert_eq!(memo.capacity(), Some(8));
        for i in 0..100 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        assert_eq!(memo.resident(), 8);
        // Bounded → unbounded → bounded again also re-clears.
        memo.set_capacity(None);
        assert_eq!(memo.capacity(), None);
        for i in 200..260 {
            memo.insert(1 << (i % 50), &state(i), 1);
        }
        let unbounded_resident = memo.resident();
        memo.set_capacity(Some(4));
        assert_eq!(memo.resident(), 0);
        assert!(unbounded_resident > 8);
    }

    #[test]
    fn set_capacity_races_with_inserts_without_losing_the_bound() {
        // The table is `&mut`, so the worst a caller can do is retune
        // between any two inserts: the latest cap holds after every retune
        // and after every insert that follows it.
        let mut memo = Memo::new(Some(256));
        let caps = [128usize, 64, 32, 16];
        for i in 0..500 {
            memo.insert((i as u64) % 61 + 1, &state(i), (i as usize) % 7 + 1);
            if i % 5 == 0 {
                let cap = caps[(i as usize / 5) % caps.len()];
                memo.set_capacity(Some(cap));
                assert!(memo.resident() <= cap, "resident {}", memo.resident());
            }
            let cap = memo.capacity().unwrap();
            assert!(memo.resident() <= cap, "resident {}", memo.resident());
        }
        memo.set_capacity(Some(16));
        assert!(memo.resident() <= 16, "resident {}", memo.resident());
    }

    #[test]
    fn concurrent_probes_and_inserts_keep_the_bound() {
        // Four interleaved streams of inserts and probes, as several
        // sessions' dead ends would arrive at one table in turn.
        let mut memo = Memo::new(Some(64));
        for i in 0..500 {
            for t in 0..4i64 {
                let s = state(t * 1000 + i);
                memo.insert((i as u64) % 61 + 1, &s, (i as usize) % 7 + 1);
                memo.probe((i as u64) % 61 + 1, &s);
                assert!(memo.resident() <= 64, "resident {}", memo.resident());
            }
        }
    }
}
