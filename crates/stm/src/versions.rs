//! The version store of the multi-version TMs ([`crate::mvstm`] and
//! [`crate::sistm`]): per-register lists of committed `(timestamp, value)`
//! versions, the clock and commit lock that order them, and a snapshot
//! watermark that bounds the lists.
//!
//! A transaction reads the newest version at or below its snapshot
//! timestamp. Once every snapshot that is live, or can still begin, is at
//! or above some `w`, the store needs only the newest version `≤ w` and
//! everything newer; older versions are dead. The store finds such a `w`
//! with hazard-pointer-style announcements:
//!
//! * **Announce, then validate.** [`VersionStore::begin`] claims a free
//!   cache-line-padded slot (the first free one from `thread % SLOTS`),
//!   stores the clock's time in it, and re-reads the clock until the
//!   stored value is still current.
//! * **Watermark.** A committer, under the commit lock, reads the clock
//!   first and then scans the slots; the minimum is the watermark.
//! * **Trim.** Only when a push would grow a list (so the scan is
//!   amortized like the `Vec`'s own doubling), the committer drops the
//!   dead versions and hands back most of the spare capacity.
//! * **Overflow.** With every slot taken (executors that keep many
//!   transactions open on one thread), `begin` counts itself in an
//!   overflow counter instead, and no list is trimmed while that counter
//!   is non-zero. Nothing ever waits for a slot.
//!
//! `DESIGN.md` ("Snapshot safety for the multi-version TMs") argues why a
//! version a snapshot can read is never trimmed. The bookkeeping is
//! unmetered: it touches no cell of the step accounting, and it changes no
//! value any transaction reads. A read's binary search costs
//! O(log resident versions) steps.

use parking_lot::Mutex;
use std::sync::atomic::AtomicU64;

use crate::api::{Aborted, TxResult};
use crate::base::{add_u64, claim_u64, peek_u64, poke_u64, seq_cst_fence, Meter};
use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::trace_cells::{AccessKind, CellId};

/// Announcement slots. Eight cover every thread count the benchmarks and
/// stress tests run; more live snapshots fall back to the overflow count.
const SLOTS: usize = 8;
/// The value of an unclaimed slot (neutral for the watermark's minimum).
const FREE: u64 = u64::MAX;
/// The smallest capacity a trim shrinks a list to. (Lists start at
/// capacity 1: a larger first allocation measurably slowed building a TM.)
const MIN_CAPACITY: usize = 8;

/// One announcement slot on its own cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Slot(AtomicU64);

/// Committed versions of `k` registers, shared by every transaction of one
/// multi-version TM.
#[derive(Debug)]
pub(crate) struct VersionStore {
    /// Per register, `(timestamp, value)` ascending by timestamp. The
    /// initial value has timestamp 0.
    lists: Vec<Mutex<Vec<(u64, i64)>>>,
    clock: Box<dyn GlobalClock>,
    commit_lock: Mutex<()>,
    slots: [Slot; SLOTS],
    /// Live snapshots that found no free slot.
    overflow: AtomicU64,
}

/// A live transaction's announced snapshot. Dropping it (on commit, abort,
/// or a dropped transaction handle) withdraws the announcement.
pub(crate) struct Snapshot<'a> {
    store: &'a VersionStore,
    /// The claimed slot; `None` when counted in `overflow`.
    slot: Option<usize>,
    ts: u64,
}

impl Snapshot<'_> {
    /// The snapshot timestamp: reads see the newest version at or below it.
    pub(crate) fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        match self.slot {
            Some(i) => poke_u64(&self.store.slots[i].0, FREE),
            None => add_u64(&self.store.overflow, u64::MAX),
        }
    }
}

impl VersionStore {
    /// A store over `cfg.k()` registers holding their initial values, with
    /// the configured clock.
    pub(crate) fn new(cfg: &StmConfig) -> Self {
        VersionStore {
            lists: (0..cfg.k())
                .map(|i| Mutex::new(vec![(0, cfg.initial(i))]))
                .collect(),
            clock: cfg.build_clock(),
            commit_lock: Mutex::new(()),
            slots: std::array::from_fn(|_| Slot(AtomicU64::new(FREE))),
            overflow: AtomicU64::new(0),
        }
    }

    /// The number of registers.
    pub(crate) fn k(&self) -> usize {
        self.lists.len()
    }

    /// Takes and announces a snapshot of the current time for a
    /// transaction running on `thread`.
    pub(crate) fn begin(&self, thread: usize) -> Snapshot<'_> {
        let mut ts = self.clock.peek();
        let home = thread % SLOTS;
        let slot = (0..SLOTS)
            .map(|i| (home + i) % SLOTS)
            .find(|&i| claim_u64(&self.slots[i].0, FREE, ts));
        match slot {
            Some(i) => loop {
                seq_cst_fence();
                let now = self.clock.peek();
                if now == ts {
                    break;
                }
                ts = now;
                poke_u64(&self.slots[i].0, ts);
            },
            None => {
                add_u64(&self.overflow, 1);
                seq_cst_fence();
                ts = self.clock.peek();
            }
        }
        Snapshot {
            store: self,
            slot,
            ts,
        }
    }

    /// The value of `obj` in the committed snapshot at `ts` (binary search;
    /// each probe is one step).
    pub(crate) fn value_at(&self, obj: usize, ts: u64, m: &mut Meter) -> i64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read); // version-list access
        let versions = self.lists[obj].lock();
        let mut lo = 0usize;
        let mut hi = versions.len();
        while hi - lo > 1 {
            m.step();
            let mid = (lo + hi) / 2;
            if versions[mid].0 <= ts {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        versions[lo].1
    }

    /// The newest committed timestamp of `obj`.
    fn latest_ts(&self, obj: usize, m: &mut Meter) -> u64 {
        m.touch(CellId::Record(obj as u32), AccessKind::Read);
        let versions = self.lists[obj].lock();
        versions.last().expect("version list never empty").0
    }

    /// Commits an update transaction under the global commit lock,
    /// first-committer-wins: aborts if any object of `check` has a version
    /// newer than `start_ts`, otherwise installs `writes` at a fresh
    /// timestamp reserved for `thread`.
    pub(crate) fn commit(
        &self,
        thread: usize,
        start_ts: u64,
        check: impl IntoIterator<Item = usize>,
        writes: &[(usize, i64)],
        m: &mut Meter,
    ) -> TxResult<()> {
        m.acquire(CellId::CommitLock);
        let guard = self.commit_lock.lock();
        let valid = check
            .into_iter()
            .all(|obj| self.latest_ts(obj, m) <= start_ts);
        if valid {
            // Publish-last ordering (regression: found by the
            // invariant-checked throughput bench): versions must be
            // installed BEFORE the clock advance makes the new timestamp
            // observable, otherwise a transaction beginning between advance
            // and append adopts a snapshot timestamp whose versions are not
            // yet visible, reads stale data, and still passes
            // first-committer-wins validation — a lost update. The clock's
            // reserve/publish pair expresses exactly this: `reserve` hands
            // out the timestamp without surfacing it, `publish` surfaces it
            // after the appends. We hold the commit lock, satisfying the
            // pair's mutual-exclusion contract.
            let wv = self.clock.reserve(thread, m);
            let mut watermark = None;
            for &(obj, v) in writes {
                m.touch(CellId::Record(obj as u32), AccessKind::Write);
                let mut list = self.lists[obj].lock();
                if list.len() == list.capacity() {
                    trim(
                        &mut list,
                        *watermark.get_or_insert_with(|| self.watermark()),
                    );
                }
                list.push((wv, v));
            }
            self.clock.publish(wv, m);
        }
        drop(guard);
        m.release(CellId::CommitLock);
        if valid {
            Ok(())
        } else {
            Err(Aborted)
        }
    }

    /// A timestamp at or below every snapshot that is live or can still
    /// begin: the clock, lowered to every announced snapshot; 0 while any
    /// snapshot is in the overflow count. Called under the commit lock, so
    /// the clock cannot advance during the scan.
    fn watermark(&self) -> u64 {
        let now = self.clock.peek();
        seq_cst_fence();
        if peek_u64(&self.overflow) > 0 {
            return 0;
        }
        self.slots
            .iter()
            .map(|s| peek_u64(&s.0))
            .fold(now, u64::min)
    }

    /// Committed versions currently kept across all registers.
    pub(crate) fn resident_versions(&self) -> usize {
        self.lists.iter().map(|l| l.lock().len()).sum()
    }

    /// Committed versions currently kept for `obj`.
    #[cfg(test)]
    pub(crate) fn resident(&self, obj: usize) -> usize {
        self.lists[obj].lock().len()
    }
}

/// Drops the versions no snapshot at or above `watermark` can read (all
/// older than the newest one at or below it). A list left at under a
/// quarter of its capacity shrinks to twice its length (at least
/// `MIN_CAPACITY`), so the next trim comes after as many pushes as it holds.
fn trim(list: &mut Vec<(u64, i64)>, watermark: u64) {
    let dead = list
        .partition_point(|&(ts, _)| ts <= watermark)
        .saturating_sub(1);
    list.drain(..dead);
    let floor = (2 * list.len()).max(MIN_CAPACITY);
    if list.capacity() > 2 * floor {
        list.shrink_to(floor);
    }
}

/// The store's guarantees, checked on both TMs built on it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_tx, Stm};
    use crate::{MvStm, SiStm};

    const INITIAL: [i64; 4] = [10, 20, 30, 40];

    fn cfg() -> StmConfig {
        StmConfig::new(INITIAL.len()).initial_values(INITIAL.to_vec())
    }

    /// Runs `check` on a fresh `mvstm` and a fresh `sistm`.
    fn on_both(check: impl Fn(&dyn Stm, &VersionStore)) {
        let mv = MvStm::with_config(&cfg());
        check(&mv, &mv.store);
        let si = SiStm::with_config(&cfg());
        check(&si, &si.store);
    }

    /// One transaction writing `v` to every register.
    fn write_all(stm: &dyn Stm, v: i64) {
        run_tx(stm, 1, |tx| {
            (0..INITIAL.len()).try_for_each(|i| tx.write(i, v))
        });
    }

    #[test]
    fn reader_at_ts_zero_survives_ten_thousand_commits() {
        on_both(|stm, store| {
            let mut reader = stm.begin(0);
            assert_eq!(reader.read(0).unwrap(), INITIAL[0]);
            for v in 1..=10_000 {
                write_all(stm, v);
            }
            for (i, &init) in INITIAL.iter().enumerate() {
                assert_eq!(reader.read(i).unwrap(), init, "{} r{i}", stm.name());
                assert_eq!(store.resident(i), 10_001, "{}: pinned", stm.name());
            }
            reader.commit().unwrap();
            let (now, _) = run_tx(stm, 0, |tx| tx.read(3));
            assert_eq!(now, 10_000);
        });
    }

    #[test]
    fn lists_shrink_to_a_constant_once_readers_close() {
        on_both(|stm, store| {
            let reader = stm.begin(0);
            for v in 1..=10_000 {
                write_all(stm, v);
            }
            drop(reader);
            // The next trim comes when a list would grow again: within as
            // many commits as the list already holds.
            for v in 10_001..=20_000 {
                write_all(stm, v);
            }
            for i in 0..INITIAL.len() {
                let n = store.resident(i);
                assert!(n <= 2 * MIN_CAPACITY, "{} r{i}: {n} versions", stm.name());
            }
            let (now, _) = run_tx(stm, 0, |tx| tx.read(0));
            assert_eq!(now, 20_000);
        });
    }

    #[test]
    fn more_snapshots_than_slots_on_one_thread() {
        on_both(|stm, store| {
            let mut open = Vec::new();
            for v in 1..=100 {
                write_all(stm, v);
                let mut tx = stm.begin(0);
                assert_eq!(tx.read(0).unwrap(), v);
                open.push((v, tx));
            }
            assert_eq!(peek_u64(&store.overflow), 100 - SLOTS as u64);
            // Close the oldest snapshots, the slot holders: only the
            // overflow count still protects the 92 newer ones while the
            // commits below trim.
            let rest = open.split_off(SLOTS);
            for (_, tx) in open {
                tx.commit().unwrap();
            }
            for v in 101..=400 {
                write_all(stm, v);
            }
            for (v, mut tx) in rest {
                for i in 0..INITIAL.len() {
                    assert_eq!(tx.read(i).unwrap(), v, "{} r{i}", stm.name());
                }
                tx.commit().unwrap();
            }
            assert_eq!(peek_u64(&store.overflow), 0);
            assert!(store.slots.iter().all(|s| peek_u64(&s.0) == FREE));
            for v in 401..=800 {
                write_all(stm, v);
            }
            assert!(store.resident_versions() <= INITIAL.len() * 2 * MIN_CAPACITY);
        });
    }

    #[test]
    fn trim_keeps_the_newest_version_at_or_below_the_watermark() {
        let mut list: Vec<(u64, i64)> = (0..8).map(|t| (t * 10, t as i64)).collect();
        trim(&mut list, 35);
        assert_eq!(list.first(), Some(&(30, 3)));
        assert_eq!(list.len(), 5);
        // A watermark below the oldest kept version drops nothing.
        trim(&mut list, 5);
        assert_eq!(list.len(), 5);
    }
}
