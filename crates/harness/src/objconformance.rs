//! The object-level conformance battery: rich-semantics probes for every TM.
//!
//! The register battery in [`crate::conformance`] exercises the weakest
//! slice of the theory — the paper's model is parameterized by *arbitrary*
//! sequential specifications, and some anomalies are simply invisible to
//! register probes. This module sweeps **typed transactional objects**
//! (`tm_stm::objects`) through every deterministic interleaving of a probe
//! battery and judges the recorded *object-level* histories against the
//! objects' own specifications:
//!
//! * the **set write-skew probe** (two transactions each read both
//!   membership flags and insert one element) convicts snapshot isolation:
//!   both commit under SI-STM, an outcome no serial execution of the set
//!   allows — the committed history is not even serializable;
//! * the **counter torn-get probe** (`get`/`get` against `inc`/`inc`)
//!   convicts commit-time-only validation: the live reader observes a
//!   mid-flight counter state;
//! * producer/consumer **queue, stack, and priority-queue probes** detect
//!   reordering and double/lost dequeues;
//! * commutative **counter storms** document the cost of read/write
//!   encodings (aborts without semantic conflicts — Section 3.4).
//!
//! Every `(probe, schedule)` pair drives a fresh TM instance, so the sweep
//! shards across the [`crate::parallel`] worker pool with deterministic
//! index-order merging: [`object_conformance`] output is identical for
//! every job count.

use tm_model::{OpName, Value};
use tm_opacity::criteria::is_serializable_with;
use tm_opacity::opacity::is_opaque_with;
use tm_opacity::SearchConfig;
use tm_stm::objects::encodings::{
    CasEnc, CounterEnc, LogEnc, MapEnc, PQueueEnc, QueueEnc, RegisterEnc, SetEnc, StackEnc,
};
use tm_stm::objects::{TypedSpace, TypedStm, TypedTx};
use tm_stm::Stm;

use crate::parallel::parallel_map;
use crate::sched::{all_schedules, Schedule};

/// The rich object families the battery can probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectKind {
    /// The commutative counter of Section 3.4.
    Counter,
    /// FIFO queue.
    Queue,
    /// LIFO stack.
    Stack,
    /// Integer set (the write-skew carrier).
    Set,
    /// Compare-and-swap register.
    Cas,
    /// Integer key-value map.
    Map,
    /// Min-priority queue (user-defined operation names).
    PQueue,
    /// Append-only log.
    Log,
    /// Plain register, lifted through the typed layer (baseline).
    Register,
}

impl ObjectKind {
    /// Every probe-able object kind, in battery order.
    pub const ALL: [ObjectKind; 9] = [
        ObjectKind::Counter,
        ObjectKind::Queue,
        ObjectKind::Stack,
        ObjectKind::Set,
        ObjectKind::Cas,
        ObjectKind::Map,
        ObjectKind::PQueue,
        ObjectKind::Log,
        ObjectKind::Register,
    ];

    /// The kind's canonical name (also its CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Counter => "counter",
            ObjectKind::Queue => "queue",
            ObjectKind::Stack => "stack",
            ObjectKind::Set => "set",
            ObjectKind::Cas => "cas",
            ObjectKind::Map => "map",
            ObjectKind::PQueue => "pqueue",
            ObjectKind::Log => "log",
            ObjectKind::Register => "register",
        }
    }

    /// Parses one kind name.
    pub fn parse(s: &str) -> Option<ObjectKind> {
        ObjectKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Parses a CLI object-set spec: `all` or a comma-separated list of
    /// kind names (duplicates collapse, order follows [`ObjectKind::ALL`]).
    pub fn parse_set(spec: &str) -> Result<Vec<ObjectKind>, String> {
        if spec == "all" {
            return Ok(ObjectKind::ALL.to_vec());
        }
        let mut wanted = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let kind = ObjectKind::parse(part).ok_or_else(|| {
                format!(
                    "unknown object kind '{part}' (available: all, {})",
                    ObjectKind::ALL.map(|k| k.name()).join(", ")
                )
            })?;
            if !wanted.contains(&kind) {
                wanted.push(kind);
            }
        }
        if wanted.is_empty() {
            return Err("empty object set".to_string());
        }
        wanted.sort();
        Ok(wanted)
    }

    /// A standard single-object space for this kind, sized so that
    /// `total_ops` mutating operations never exhaust an encoding bound.
    /// The object is always named `"o"`.
    pub fn standard_space(self, total_ops: usize) -> TypedSpace {
        let cap = total_ops.max(1);
        let b = TypedSpace::builder();
        match self {
            ObjectKind::Counter => b.with("o", CounterEnc),
            ObjectKind::Queue => b.with("o", QueueEnc { cap }),
            ObjectKind::Stack => b.with("o", StackEnc { cap }),
            ObjectKind::Set => b.with("o", SetEnc { domain: 8 }),
            ObjectKind::Cas => b.with("o", CasEnc),
            ObjectKind::Map => b.with("o", MapEnc { keys: 8 }),
            ObjectKind::PQueue => b.with("o", PQueueEnc { domain: 8 }),
            ObjectKind::Log => b.with("o", LogEnc { cap }),
            ObjectKind::Register => b.with("o", RegisterEnc),
        }
        .build()
    }
}

impl std::fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One scripted object-level operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjOp {
    /// The typed object's name in the probe's space.
    pub obj: &'static str,
    /// The operation.
    pub op: OpName,
    /// Its arguments.
    pub args: Vec<Value>,
}

impl ObjOp {
    fn new(obj: &'static str, op: OpName, args: Vec<Value>) -> Self {
        ObjOp { obj, op, args }
    }
}

/// One transaction script of object-level operations (ending in a commit).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjScript {
    /// The operations, executed in order.
    pub ops: Vec<ObjOp>,
}

/// A typed program: one transaction script per logical thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjProgram {
    /// Per-thread scripts.
    pub threads: Vec<ObjScript>,
}

impl ObjProgram {
    /// Per-thread scheduler action counts (operations + the final commit).
    pub fn action_counts(&self) -> Vec<usize> {
        self.threads.iter().map(|t| t.ops.len() + 1).collect()
    }
}

/// The fate and observations of one typed scripted transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjTxOutcome {
    /// Did the transaction commit?
    pub committed: bool,
    /// Return values of its completed operations, in script order.
    pub returns: Vec<Value>,
}

/// The result of executing a typed program under a schedule.
#[derive(Clone, Debug)]
pub struct ObjExecOutcome {
    /// Per-thread outcomes.
    pub txs: Vec<ObjTxOutcome>,
}

/// Executes `program` on `tm` under `schedule` — the typed twin of
/// [`crate::sched::execute`]. Schedule entries pointing at finished threads
/// are skipped.
///
/// # Panics
/// Panics if `tm` is a blocking TM and the program has more than one
/// thread; use [`execute_objects_serially`] for those.
pub fn execute_objects(tm: &TypedStm, program: &ObjProgram, schedule: &[usize]) -> ObjExecOutcome {
    assert!(
        program.threads.len() <= 1 || !tm.blocking(),
        "blocking TM '{}' cannot be interleaved on one OS thread",
        tm.name()
    );
    struct Thread<'a> {
        tx: Option<TypedTx<'a>>,
        pc: usize,
        committed: bool,
        aborted: bool,
        returns: Vec<Value>,
    }
    let mut threads: Vec<Thread<'_>> = (0..program.threads.len())
        .map(|_| Thread {
            tx: None,
            pc: 0,
            committed: false,
            aborted: false,
            returns: Vec::new(),
        })
        .collect();

    for &ti in schedule {
        let script = &program.threads[ti];
        let t = &mut threads[ti];
        if t.committed || t.aborted {
            continue;
        }
        if t.tx.is_none() {
            t.tx = Some(tm.begin(ti));
        }
        if t.pc < script.ops.len() {
            let tx = t.tx.as_mut().expect("live thread has a tx");
            let ObjOp { obj, op, args } = &script.ops[t.pc];
            let handle = tm.handle(obj);
            t.pc += 1;
            match tx.invoke(handle, op, args) {
                Ok(ret) => t.returns.push(ret),
                Err(_) => {
                    t.aborted = true;
                    t.tx = None;
                }
            }
        } else {
            let tx = t.tx.take().expect("live thread has a tx");
            match tx.commit() {
                Ok(()) => t.committed = true,
                Err(_) => t.aborted = true,
            }
        }
    }

    ObjExecOutcome {
        txs: threads
            .into_iter()
            .map(|t| ObjTxOutcome {
                committed: t.committed,
                returns: t.returns,
            })
            .collect(),
    }
}

/// Runs a typed program one whole transaction at a time, following the
/// thread order in which `schedule` first mentions each thread — the only
/// way to drive a blocking TM through a multi-thread probe on one OS
/// thread.
pub fn execute_objects_serially(
    tm: &TypedStm,
    program: &ObjProgram,
    schedule: &[usize],
) -> ObjExecOutcome {
    let mut order: Vec<usize> = Vec::new();
    for &t in schedule {
        if !order.contains(&t) {
            order.push(t);
        }
    }
    let mut outcomes: Vec<ObjTxOutcome> = program
        .threads
        .iter()
        .map(|_| ObjTxOutcome {
            committed: false,
            returns: Vec::new(),
        })
        .collect();
    for ti in order {
        let mut tx = tm.begin(ti);
        let mut dead = false;
        for ObjOp { obj, op, args } in &program.threads[ti].ops {
            match tx.invoke(tm.handle(obj), op, args) {
                Ok(ret) => outcomes[ti].returns.push(ret),
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if !dead {
            outcomes[ti].committed = tx.commit().is_ok();
        }
    }
    ObjExecOutcome { txs: outcomes }
}

/// One probe: a typed space factory plus a program over its objects.
struct ObjProbe {
    name: &'static str,
    kind: ObjectKind,
    space: fn() -> TypedSpace,
    program: ObjProgram,
}

fn op(obj: &'static str, op_name: OpName, args: Vec<Value>) -> ObjOp {
    ObjOp::new(obj, op_name, args)
}

fn script(ops: Vec<ObjOp>) -> ObjScript {
    ObjScript { ops }
}

/// The probe battery, in deterministic order.
fn probes() -> Vec<ObjProbe> {
    let i = Value::int;
    vec![
        ObjProbe {
            name: "counter-commutative-storm",
            kind: ObjectKind::Counter,
            space: || TypedSpace::builder().with("c", CounterEnc).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("c", OpName::Inc, vec![]),
                        op("c", OpName::Inc, vec![]),
                    ]),
                    script(vec![
                        op("c", OpName::Inc, vec![]),
                        op("c", OpName::Get, vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "counter-torn-get",
            kind: ObjectKind::Counter,
            space: || TypedSpace::builder().with("c", CounterEnc).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("c", OpName::Inc, vec![]),
                        op("c", OpName::Inc, vec![]),
                    ]),
                    script(vec![
                        op("c", OpName::Get, vec![]),
                        op("c", OpName::Get, vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "queue-producer-consumer",
            kind: ObjectKind::Queue,
            space: || TypedSpace::builder().with("q", QueueEnc { cap: 8 }).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("q", OpName::Enq, vec![i(1)]),
                        op("q", OpName::Enq, vec![i(2)]),
                    ]),
                    script(vec![
                        op("q", OpName::Deq, vec![]),
                        op("q", OpName::Deq, vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "stack-push-pop",
            kind: ObjectKind::Stack,
            space: || TypedSpace::builder().with("s", StackEnc { cap: 8 }).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("s", OpName::Push, vec![i(1)]),
                        op("s", OpName::Push, vec![i(2)]),
                    ]),
                    script(vec![
                        op("s", OpName::Pop, vec![]),
                        op("s", OpName::Pop, vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "set-write-skew",
            kind: ObjectKind::Set,
            space: || {
                TypedSpace::builder()
                    .with("s", SetEnc { domain: 4 })
                    .build()
            },
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("s", OpName::Contains, vec![i(1)]),
                        op("s", OpName::Contains, vec![i(2)]),
                        op("s", OpName::Insert, vec![i(1)]),
                    ]),
                    script(vec![
                        op("s", OpName::Contains, vec![i(1)]),
                        op("s", OpName::Contains, vec![i(2)]),
                        op("s", OpName::Insert, vec![i(2)]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "set-torn-read",
            kind: ObjectKind::Set,
            space: || {
                TypedSpace::builder()
                    .with("s", SetEnc { domain: 4 })
                    .build()
            },
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("s", OpName::Insert, vec![i(1)]),
                        op("s", OpName::Insert, vec![i(2)]),
                    ]),
                    script(vec![
                        op("s", OpName::Contains, vec![i(1)]),
                        op("s", OpName::Contains, vec![i(2)]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "cas-race",
            kind: ObjectKind::Cas,
            space: || TypedSpace::builder().with("x", CasEnc).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("x", OpName::Cas, vec![i(0), i(1)]),
                        op("x", OpName::Read, vec![]),
                    ]),
                    script(vec![
                        op("x", OpName::Cas, vec![i(0), i(2)]),
                        op("x", OpName::Read, vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "map-put-get-skew",
            kind: ObjectKind::Map,
            space: || TypedSpace::builder().with("m", MapEnc { keys: 2 }).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("m", OpName::Get, vec![i(1)]),
                        op("m", OpName::Insert, vec![i(0), i(5)]),
                    ]),
                    script(vec![
                        op("m", OpName::Get, vec![i(0)]),
                        op("m", OpName::Insert, vec![i(1), i(7)]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "pqueue-min-race",
            kind: ObjectKind::PQueue,
            space: || {
                TypedSpace::builder()
                    .with("p", PQueueEnc { domain: 5 })
                    .build()
            },
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("p", OpName::Insert, vec![i(1)]),
                        op("p", OpName::Insert, vec![i(3)]),
                    ]),
                    script(vec![
                        op("p", tm_model::objects::pqueue::extract_min(), vec![]),
                        op("p", tm_model::objects::pqueue::extract_min(), vec![]),
                    ]),
                ],
            },
        },
        ObjProbe {
            name: "log-append-read",
            kind: ObjectKind::Log,
            space: || TypedSpace::builder().with("l", LogEnc { cap: 4 }).build(),
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("l", OpName::Append, vec![i(1)]),
                        op("l", OpName::Append, vec![i(2)]),
                    ]),
                    script(vec![op("l", OpName::Read, vec![])]),
                ],
            },
        },
        ObjProbe {
            name: "register-inconsistent-view",
            kind: ObjectKind::Register,
            space: || {
                TypedSpace::builder()
                    .with("x", RegisterEnc)
                    .with("y", RegisterEnc)
                    .build()
            },
            program: ObjProgram {
                threads: vec![
                    script(vec![
                        op("x", OpName::Read, vec![]),
                        op("y", OpName::Read, vec![]),
                    ]),
                    script(vec![
                        op("x", OpName::Write, vec![i(7)]),
                        op("y", OpName::Write, vec![i(7)]),
                    ]),
                ],
            },
        },
    ]
}

/// The verdicts for one typed probe, aggregated over its schedule sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectProbeReport {
    /// The probe's name (e.g. `set-write-skew`).
    pub probe: &'static str,
    /// The object family it exercises.
    pub kind: ObjectKind,
    /// Every recorded history was well-formed.
    pub well_formed: bool,
    /// Every recorded object-level history was opaque w.r.t. the objects'
    /// sequential specifications.
    pub opaque: bool,
    /// Every recorded history had serializable committed transactions at
    /// the object level.
    pub serializable: bool,
    /// Histories checked across the sweep.
    pub histories_checked: usize,
    /// Human-readable descriptions of the first few violations.
    pub violations: Vec<String>,
}

impl ObjectProbeReport {
    /// One fixed-width table row (pair with [`object_header`]).
    pub fn row(&self, tm: &str) -> String {
        let yn = |b: bool| if b { "yes" } else { "NO " };
        format!(
            "{:<12} {:<28} {:<10} {:>4} {:>6} {:>6} {:>6}",
            tm,
            self.probe,
            self.kind.name(),
            yn(self.well_formed),
            yn(self.opaque),
            yn(self.serializable),
            self.histories_checked,
        )
    }
}

/// The header matching [`ObjectProbeReport::row`].
pub fn object_header() -> String {
    format!(
        "{:<12} {:<28} {:<10} {:>4} {:>6} {:>6} {:>6}",
        "tm", "probe", "object", "wf", "opaque", "ser", "hist"
    )
}

/// The outcome of the object battery for one TM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectConformanceReport {
    /// The TM's self-reported name.
    pub name: String,
    /// One report per selected probe, in battery order.
    pub probes: Vec<ObjectProbeReport>,
}

impl ObjectConformanceReport {
    /// The probe report with the given name, if selected.
    pub fn probe(&self, name: &str) -> Option<&ObjectProbeReport> {
        self.probes.iter().find(|p| p.probe == name)
    }

    /// True iff every probe held every contract (the bar for
    /// opaque-by-design TMs).
    pub fn all_clean(&self) -> bool {
        self.probes
            .iter()
            .all(|p| p.well_formed && p.opaque && p.serializable)
    }
}

/// The verdicts for one recorded history.
struct SweepVerdict {
    wf: bool,
    opaque: bool,
    serializable: bool,
}

/// One `(probe index, schedule)` unit of sweep work.
struct SweepItem {
    probe: usize,
    sched: Schedule,
}

/// Runs the object battery for the TM built by `make` over the probes of
/// the selected `kinds`, sharding the schedule sweep across `jobs` worker
/// threads with deterministic index-order merging (output is identical for
/// every `jobs` value). Single-threaded callers pass `jobs = 1`.
pub fn object_conformance(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    kinds: &[ObjectKind],
    jobs: usize,
) -> ObjectConformanceReport {
    object_conformance_with(make, kinds, jobs, SearchConfig::default())
}

/// [`object_conformance`] with an explicit serialization-search
/// configuration for the per-history checks: `search.memo_capacity` bounds
/// the dead-end table of each individual opacity / serializability
/// decision. Verdicts — and therefore the rendered battery — are invariant
/// under it and under `jobs`.
pub fn object_conformance_with(
    make: &(dyn Fn(usize) -> Box<dyn Stm> + Sync),
    kinds: &[ObjectKind],
    jobs: usize,
    search: SearchConfig,
) -> ObjectConformanceReport {
    let name = make(1).name().to_string();
    let blocking = make(1).blocking();
    let selected: Vec<ObjProbe> = probes()
        .into_iter()
        .filter(|p| kinds.contains(&p.kind))
        .collect();

    // Build the deterministic work list: every (probe, schedule) pair.
    let mut items = Vec::new();
    for (pi, probe) in selected.iter().enumerate() {
        let schedules = if blocking {
            let counts = probe.program.action_counts();
            let serial_01: Vec<usize> = std::iter::repeat(0)
                .take(counts[0])
                .chain(std::iter::repeat(1).take(counts[1]))
                .collect();
            let serial_10: Vec<usize> = std::iter::repeat(1)
                .take(counts[1])
                .chain(std::iter::repeat(0).take(counts[0]))
                .collect();
            vec![serial_01, serial_10]
        } else {
            all_schedules(&probe.program.action_counts(), 200)
        };
        for sched in schedules {
            items.push(SweepItem { probe: pi, sched });
        }
    }

    let verdicts = parallel_map(items.len(), jobs, |idx| {
        let item = &items[idx];
        let probe = &selected[item.probe];
        let tm = TypedStm::new((probe.space)(), |k| make(k));
        if blocking {
            execute_objects_serially(&tm, &probe.program, &item.sched);
        } else {
            execute_objects(&tm, &probe.program, &item.sched);
        }
        let h = tm.history();
        let specs = tm.registry();
        let wf = tm_model::is_well_formed(&h);
        if !wf {
            return SweepVerdict {
                wf,
                opaque: true,
                serializable: true,
            };
        }
        SweepVerdict {
            wf,
            opaque: is_opaque_with(&h, &specs, search)
                .map(|r| r.opaque)
                .unwrap_or(false),
            serializable: is_serializable_with(&h, &specs, search).unwrap_or(false),
        }
    });

    let mut reports: Vec<ObjectProbeReport> = selected
        .iter()
        .map(|p| ObjectProbeReport {
            probe: p.name,
            kind: p.kind,
            well_formed: true,
            opaque: true,
            serializable: true,
            histories_checked: 0,
            violations: Vec::new(),
        })
        .collect();
    for (item, v) in items.iter().zip(&verdicts) {
        let report = &mut reports[item.probe];
        report.histories_checked += 1;
        let flag = |field_ok: bool, what: &str, violations: &mut Vec<String>| {
            if !field_ok && violations.len() < 8 {
                violations.push(format!(
                    "{} {:?}: {what}",
                    selected[item.probe].name, item.sched
                ));
            }
            field_ok
        };
        report.well_formed &= flag(v.wf, "ill-formed history", &mut report.violations);
        if v.wf {
            report.opaque &= flag(v.opaque, "opacity violated", &mut report.violations);
            report.serializable &= flag(
                v.serializable,
                "committed txs not serializable",
                &mut report.violations,
            );
        }
    }

    ObjectConformanceReport {
        name,
        probes: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory_for(name: &'static str) -> impl Fn(usize) -> Box<dyn Stm> + Sync {
        tm_stm::TmRegistry::suite()
            .factory(name)
            .expect("suite TM name")
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(ObjectKind::parse("set"), Some(ObjectKind::Set));
        assert_eq!(ObjectKind::parse("nope"), None);
        assert_eq!(
            ObjectKind::parse_set("all").unwrap(),
            ObjectKind::ALL.to_vec()
        );
        assert_eq!(
            ObjectKind::parse_set("queue, set,queue").unwrap(),
            vec![ObjectKind::Queue, ObjectKind::Set]
        );
        assert!(ObjectKind::parse_set("set,bogus")
            .unwrap_err()
            .contains("bogus"));
        assert!(ObjectKind::parse_set("").is_err());
        assert_eq!(ObjectKind::Set.to_string(), "set");
    }

    #[test]
    fn standard_spaces_cover_every_kind() {
        for kind in ObjectKind::ALL {
            let space = kind.standard_space(16);
            assert!(space.k() >= 1, "{kind}");
            let _ = space.handle("o");
        }
    }

    /// The acceptance bar of the typed-object subsystem: the write-skew set
    /// probe convicts SI-STM at the object level while every
    /// opaque-by-design TM is acquitted on the full battery.
    #[test]
    fn write_skew_convicts_si_and_acquits_the_opaque_tms() {
        for stm in tm_stm::all_stms(2) {
            let name = stm.name();
            let props = stm.properties();
            drop(stm);
            let report = object_conformance(&factory_for(name), &ObjectKind::ALL, 1);
            assert_eq!(report.name, name);
            assert_eq!(report.probes.len(), 11, "{name}");
            for probe in &report.probes {
                assert!(
                    probe.well_formed,
                    "{name}/{}: {:?}",
                    probe.probe, probe.violations
                );
                assert!(probe.histories_checked >= 2, "{name}/{}", probe.probe);
            }
            if props.opaque_by_design {
                assert!(
                    report.all_clean(),
                    "{name} must pass the whole battery: {:?}",
                    report
                        .probes
                        .iter()
                        .flat_map(|p| p.violations.iter())
                        .collect::<Vec<_>>()
                );
            }
            if props.serializable_by_design {
                assert!(
                    report.probes.iter().all(|p| p.serializable),
                    "{name} commits must stay serializable at the object level"
                );
            }
            match name {
                "sistm" => {
                    let skew = report.probe("set-write-skew").unwrap();
                    assert!(
                        !skew.serializable,
                        "SI-STM must be convicted of write skew at the object level"
                    );
                    assert!(
                        !skew.opaque,
                        "write skew is an opacity violation a fortiori"
                    );
                    // The same anomaly shape reappears on the kv-map probe…
                    let map_skew = report.probe("map-put-get-skew").unwrap();
                    assert!(!map_skew.serializable && !map_skew.opaque);
                    // …while snapshot reads keep every torn-read probe clean.
                    let torn = report.probe("set-torn-read").unwrap();
                    assert!(torn.opaque && torn.serializable);
                }
                "nonopaque" => {
                    assert!(
                        report.probes.iter().any(|p| !p.opaque),
                        "commit-time-only validation must fail opacity on some probe"
                    );
                }
                _ => {}
            }
        }
    }

    /// Satellite of the configurable-TM redesign: the *typed-object*
    /// battery's verdicts are invariant under the clock scheme — the
    /// opaque clocked TMs pass the full 11-probe battery on sharded and
    /// deferred clocks, and SI-STM's object-level write-skew conviction is
    /// unchanged.
    #[test]
    fn full_object_battery_verdicts_survive_every_clock_scheme() {
        use tm_stm::{ClockScheme, TmRegistry};
        let reg = TmRegistry::suite();
        for base in ["tl2", "mvstm", "sistm"] {
            for scheme in ClockScheme::SWEEP {
                if scheme.is_single() {
                    continue; // the default scheme is pinned above
                }
                let spec = format!("{base}+{scheme}");
                let factory = reg.factory(&spec).expect("clocked TMs accept every scheme");
                let report = object_conformance(&factory, &ObjectKind::ALL, 2);
                assert_eq!(report.probes.len(), 11, "{spec}");
                for probe in &report.probes {
                    assert!(
                        probe.well_formed,
                        "{spec}/{}: {:?}",
                        probe.probe, probe.violations
                    );
                }
                if base == "sistm" {
                    let skew = report.probe("set-write-skew").unwrap();
                    assert!(
                        !skew.serializable && !skew.opaque,
                        "{spec}: the write-skew conviction must survive the scheme"
                    );
                    let torn = report.probe("set-torn-read").unwrap();
                    assert!(torn.opaque && torn.serializable, "{spec}");
                } else {
                    assert!(
                        report.all_clean(),
                        "{spec} must pass the whole battery: {:?}",
                        report
                            .probes
                            .iter()
                            .flat_map(|p| p.violations.iter())
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn object_battery_is_deterministic_across_job_counts() {
        for name in ["sistm", "tl2"] {
            let sequential = object_conformance(
                &factory_for(name),
                &[ObjectKind::Set, ObjectKind::Counter],
                1,
            );
            for jobs in [2, 5] {
                let parallel = object_conformance(
                    &factory_for(name),
                    &[ObjectKind::Set, ObjectKind::Counter],
                    jobs,
                );
                assert_eq!(sequential, parallel, "{name} jobs={jobs}");
            }
        }
    }

    #[test]
    fn report_rendering() {
        let report = object_conformance(&factory_for("tl2"), &[ObjectKind::Set], 1);
        assert!(object_header().contains("opaque"));
        for probe in &report.probes {
            let row = probe.row(&report.name);
            assert!(row.contains("tl2"));
            assert!(row.contains(probe.probe));
        }
    }

    #[test]
    fn typed_executor_skips_finished_threads_and_reports_returns() {
        let probe_space = TypedSpace::builder().with("c", CounterEnc).build();
        let tm = TypedStm::new(probe_space, |k| Box::new(tm_stm::Tl2Stm::new(k)));
        let program = ObjProgram {
            threads: vec![ObjScript {
                ops: vec![
                    ObjOp::new("c", OpName::Inc, vec![]),
                    ObjOp::new("c", OpName::Get, vec![]),
                ],
            }],
        };
        let out = execute_objects(&tm, &program, &[0; 10]);
        assert!(out.txs[0].committed);
        assert_eq!(out.txs[0].returns, vec![Value::Ok, Value::int(1)]);
    }

    #[test]
    fn serial_executor_drives_the_blocking_tm() {
        let report = object_conformance(&factory_for("glock"), &[ObjectKind::Queue], 1);
        let probe = report.probe("queue-producer-consumer").unwrap();
        assert!(probe.well_formed && probe.opaque && probe.serializable);
        assert_eq!(probe.histories_checked, 2, "two serial orders");
    }
}
