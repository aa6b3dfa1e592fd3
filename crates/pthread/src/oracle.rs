//! The chooser: the one source of every nondeterministic choice a run
//! makes.
//!
//! The virtual-SMP engine is deterministic except at six *decision
//! points* (see [`DecisionKind`]) and three *fault sites*: a preemption at
//! a sync-operation boundary, a delayed wake delivery, and a spurious
//! condvar wakeup. Every site asks the run's [`Chooser`], once:
//!
//! * [`Chooser::Natural`] takes index 0 — the front-of-queue /
//!   lowest-index choice — and injects no fault;
//! * [`Chooser::Scripted`] follows a [`ScheduleOracle`]'s *decision
//!   prefix*, then index 0, and injects no fault. Replaying a prefix
//!   re-executes its schedule bit-exactly: the substrate of the DPOR
//!   explorer ([`fn@crate::explore`]);
//! * [`Chooser::Seeded`] draws tie-breaks, wake orders and cancel
//!   deliveries from a perturbation stream (index 0 at grants and timeout
//!   order) and faults from its perturbation and chaos streams, so a
//!   `(policy, perturb seed, chaos seed)` triple replays bit-exactly too.
//!
//! Scripted and seeded choosers log decisions in the same [`Decision`]
//! encoding, so `ptdf-trace diff` can compare the traces of either.

use std::cell::RefCell;
use std::rc::Rc;

use ptdf_smp::{Prng, VirtTime};

/// Which decision point a [`Decision`] was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum DecisionKind {
    /// Dispatch tie-break: several idle processors share the minimum
    /// virtual clock; one must run the next ready thread.
    DispatchTie,
    /// Unpark tie-break: a wake must choose among equally-idle parked
    /// processors.
    UnparkTie,
    /// Delivery order of a multi-thread wake batch (condvar broadcast,
    /// barrier release, reader-batch admission). Encoded as a sequence of
    /// selection decisions: first pick among `n`, then among `n-1`, …
    WakeOrder,
    /// Grant order of a sync-object wait queue (mutex unlock, semaphore
    /// release, condvar signal, rwlock admission).
    Grant,
    /// Firing order among timed waits that are simultaneously due at the
    /// same wake floor.
    TimeoutOrder,
    /// Delivery timing of a cancellation request against a *blocked*
    /// target whose wait is deadline-bounded: index 0 delivers now (evict
    /// and wake the waiter immediately — the natural choice), index 1
    /// defers delivery to the wait's own resolution (its deadline or a
    /// grant), modelling the cancel losing the race. Only deadline-bounded
    /// waits offer the deferred branch: an unbounded wait has no other
    /// guaranteed wake, so deferral could stall the target forever.
    CancelDelivery,
}

impl DecisionKind {
    /// Stable short name used in traces, JSON, and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::DispatchTie => "dispatch-tie",
            DecisionKind::UnparkTie => "unpark-tie",
            DecisionKind::WakeOrder => "wake-order",
            DecisionKind::Grant => "grant",
            DecisionKind::TimeoutOrder => "timeout-order",
            DecisionKind::CancelDelivery => "cancel-delivery",
        }
    }

    /// Inverse of [`DecisionKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "dispatch-tie" => DecisionKind::DispatchTie,
            "unpark-tie" => DecisionKind::UnparkTie,
            "wake-order" => DecisionKind::WakeOrder,
            "grant" => DecisionKind::Grant,
            "timeout-order" => DecisionKind::TimeoutOrder,
            "cancel-delivery" => DecisionKind::CancelDelivery,
            _ => return None,
        })
    }
}

/// One resolved scheduling decision, as recorded in a [`crate::Trace`].
///
/// Only genuine choices are recorded: a decision point with a single
/// candidate is not a decision and produces no record, so the decision
/// log is exactly the branching structure of the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Decision {
    /// The decision point.
    pub kind: DecisionKind,
    /// Virtual time at which the decision was taken.
    pub at: VirtTime,
    /// Number of candidates (always ≥ 2).
    pub n: u32,
    /// Index chosen, in `0..n`. Index 0 is the natural choice.
    pub chosen: u32,
    /// Per-run sync-object id for object-scoped decisions
    /// ([`DecisionKind::WakeOrder`], [`DecisionKind::Grant`]).
    pub obj: Option<u32>,
}

/// A [`Decision`] plus the candidate identities the explorer needs for
/// independence analysis (processor ids for the tie kinds; empty for
/// object-scoped kinds, where candidates contend on the same object and
/// are never independent).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The resolved decision.
    pub decision: Decision,
    /// Candidate ids, parallel to the decision's index space (may be
    /// empty when identities are not needed).
    pub cands: Vec<u32>,
}

/// Scripted driver for the engine's scheduling decision points.
///
/// Constructed with a decision prefix ([`ScheduleOracle::scripted`]) and
/// installed on a [`crate::Config`]; consumed by one run. Every decision
/// taken — scripted or defaulted — is appended to the log, so after the
/// run the full decision vector of the executed schedule can be read
/// back from [`ScheduleOracle::log`].
#[derive(Debug, Default)]
pub struct ScheduleOracle {
    script: Vec<u32>,
    /// One record per decision taken; its length is the script cursor.
    log: Vec<DecisionRecord>,
}

/// Shared handle to a [`ScheduleOracle`]; the form [`crate::Config`]
/// carries so the caller keeps access to the log after the run.
pub type SharedOracle = Rc<RefCell<ScheduleOracle>>;

impl ScheduleOracle {
    /// An oracle that follows `prefix` for its first `prefix.len()`
    /// decisions, then takes the natural choice (index 0) everywhere.
    pub fn scripted(prefix: Vec<u32>) -> Self {
        ScheduleOracle {
            script: prefix,
            log: Vec::new(),
        }
    }

    /// Wraps an oracle in the shared handle [`crate::Config`] expects.
    pub fn shared(self) -> SharedOracle {
        Rc::new(RefCell::new(self))
    }

    /// Resolves one decision among `n ≥ 2` candidates and logs it.
    ///
    /// Scripted values are clamped to `n - 1`: a prefix recorded on one
    /// schedule may meet a narrower candidate set when an earlier flip
    /// changed the execution, and clamping keeps every prefix executable.
    pub fn choose(
        &mut self,
        kind: DecisionKind,
        at: VirtTime,
        n: usize,
        obj: Option<u32>,
        cands: &[u32],
    ) -> usize {
        debug_assert!(n >= 2, "single-candidate points are not decisions");
        let scripted = self.script.get(self.log.len());
        let chosen = scripted.map_or(0, |&v| (v as usize).min(n - 1));
        self.log.push(DecisionRecord {
            decision: Decision {
                kind,
                at,
                n: n as u32,
                chosen: chosen as u32,
                obj,
            },
            cands: cands.to_vec(),
        });
        chosen
    }

    /// Full decision log of the run, in engine order.
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    /// The compact decision list, as attached to traces.
    pub fn decisions(&self) -> Vec<Decision> {
        self.log.iter().map(|r| r.decision).collect()
    }
}

/// The one decision source of a run, carried by [`crate::Config::chooser`].
/// Each run works on its own clone, so a config replays from its seeds.
#[derive(Debug, Clone)]
pub enum Chooser {
    /// Index 0 everywhere and no faults: the one natural schedule.
    Natural,
    /// A scripted prefix, then index 0; no faults. Shared, so the caller
    /// reads the oracle's log after the run.
    Scripted(SharedOracle),
    /// Seeded perturbation and/or chaos streams.
    Seeded(Seeded),
}

/// The seeded chooser's streams, each kept with the seed that armed it.
#[derive(Debug, Clone)]
pub struct Seeded {
    perturb: Option<(u64, Prng)>,
    chaos: Option<(u64, Prng)>,
    /// Drawn decisions; armed only for traced perturbed runs.
    log: Option<Vec<Decision>>,
}

impl Chooser {
    /// A seeded chooser. Each stream xors its own constant into its seed,
    /// decorrelating it from the other and from the machine's cost jitter
    /// (also keyed by the perturbation seed).
    pub fn seeded(perturb_seed: Option<u64>, chaos_seed: Option<u64>) -> Self {
        Chooser::Seeded(Seeded {
            perturb: perturb_seed.map(|s| (s, Prng::new(s ^ 0x0051_CED0_5EED_F00D))),
            chaos: chaos_seed.map(|s| (s, Prng::new(s ^ 0xC4A0_5F00_D5EE_D001))),
            log: None,
        })
    }

    /// The `(perturbation, chaos)` seeds of a seeded chooser. The
    /// perturbation seed also keys the machine's cost jitter and the
    /// work-stealing victim sequence.
    pub fn seeds(&self) -> (Option<u64>, Option<u64>) {
        let Chooser::Seeded(s) = self else {
            return (None, None);
        };
        let seed = |stream: &Option<(u64, Prng)>| stream.as_ref().map(|&(seed, _)| seed);
        (seed(&s.perturb), seed(&s.chaos))
    }

    /// Arms decision logging when the run traces (an oracle always logs).
    pub(crate) fn arm_log(&mut self, trace: bool) {
        if let Chooser::Seeded(s) = self {
            s.log = (trace && s.perturb.is_some()).then(Vec::new);
        }
    }

    /// Resolves one decision among `n ≥ 2` candidates (see
    /// [`ScheduleOracle::choose`] for `obj` and `cands`).
    pub(crate) fn choose(
        &mut self,
        kind: DecisionKind,
        at: VirtTime,
        n: usize,
        obj: Option<u32>,
        cands: &[u32],
    ) -> usize {
        debug_assert!(n >= 2, "single-candidate points are not decisions");
        let s = match self {
            Chooser::Natural => return 0,
            Chooser::Scripted(oracle) => {
                return oracle.borrow_mut().choose(kind, at, n, obj, cands)
            }
            Chooser::Seeded(s) => s,
        };
        let Some((_, prng)) = s.perturb.as_mut() else {
            return 0;
        };
        let chosen = match kind {
            DecisionKind::Grant | DecisionKind::TimeoutOrder => 0,
            _ => prng.below(n as u64) as usize,
        };
        if let Some(log) = s.log.as_mut() {
            let (n, chosen) = (n as u32, chosen as u32);
            log.push(Decision {
                kind,
                at,
                n,
                chosen,
                obj,
            });
        }
        chosen
    }

    /// Orders `items` by successive selection decisions — pick among `n`,
    /// then among `n-1`, … — so each position is one replayable decision,
    /// stamped with `at` of the item it displaces.
    pub(crate) fn order<T>(
        &mut self,
        kind: DecisionKind,
        obj: Option<u32>,
        items: &mut [T],
        at: impl Fn(&T) -> VirtTime,
    ) {
        for i in 0..items.len().saturating_sub(1) {
            let c = self.choose(kind, at(&items[i]), items.len() - i, obj, &[]);
            items.swap(i, i + c);
        }
    }

    /// Fault site: preempt at a sync-operation boundary? Perturbation
    /// preempts 1 in 8 boundaries, chaos adds a 1-in-4 lock-holder
    /// preemption storm; each armed stream draws at every boundary.
    pub(crate) fn boundary_yield(&mut self) -> bool {
        let Chooser::Seeded(s) = self else {
            return false;
        };
        let perturb = s.perturb.as_mut().is_some_and(|(_, p)| p.chance(1, 8));
        let chaos = s.chaos.as_mut().is_some_and(|(_, c)| c.chance(1, 4));
        perturb || chaos
    }

    /// Fault site: nanoseconds to delay a wake's publication — up to 2 µs
    /// under chaos, like an IPI left in a pending-interrupt register.
    pub(crate) fn wake_delay(&mut self) -> u64 {
        match self {
            Chooser::Seeded(Seeded {
                chaos: Some((_, c)),
                ..
            }) => c.below(2_001),
            _ => 0,
        }
    }

    /// Fault site: the timeout of an artificial deadline that makes a
    /// condvar wait return spuriously (1 in 8 waits under chaos, after
    /// 0.5–2 µs), or `None` for a real wait.
    pub(crate) fn spurious_wake(&mut self) -> Option<VirtTime> {
        let Chooser::Seeded(Seeded {
            chaos: Some((_, c)),
            ..
        }) = self
        else {
            return None;
        };
        c.chance(1, 8)
            .then(|| VirtTime::from_ns(500 + c.below(1_500)))
    }

    /// The run's decision log, for its trace (empty when natural).
    pub(crate) fn take_decisions(&mut self) -> Vec<Decision> {
        match self {
            Chooser::Natural => Vec::new(),
            Chooser::Scripted(oracle) => oracle.borrow().decisions(),
            Chooser::Seeded(s) => s.log.take().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_prefix_then_natural_default() {
        let mut o = ScheduleOracle::scripted(vec![1, 2]);
        let t = VirtTime::from_ns(5);
        assert_eq!(o.choose(DecisionKind::Grant, t, 3, Some(7), &[]), 1);
        // Scripted value clamped into range.
        assert_eq!(o.choose(DecisionKind::DispatchTie, t, 2, None, &[0, 1]), 1);
        // Beyond the prefix: natural choice.
        assert_eq!(o.choose(DecisionKind::WakeOrder, t, 4, Some(7), &[]), 0);
        let taken: Vec<u32> = o.log().iter().map(|r| r.decision.chosen).collect();
        assert_eq!(taken, vec![1, 1, 0]);
        assert_eq!(o.log().len(), 3);
        assert_eq!(o.decisions()[0].n, 3);
    }

    #[test]
    fn only_a_seeded_chooser_draws() {
        let t = VirtTime::from_ns(9);
        let draw = |c: &mut Chooser| -> Vec<usize> {
            let mut v: Vec<_> = (2..34)
                .map(|n| c.choose(DecisionKind::WakeOrder, t, n, None, &[]))
                .collect();
            v.extend([
                c.choose(DecisionKind::Grant, t, 4, None, &[]),
                c.wake_delay() as usize,
            ]);
            v
        };
        let scripted = Chooser::Scripted(ScheduleOracle::scripted(vec![]).shared());
        for mut quiet in [Chooser::Natural, scripted] {
            assert!(draw(&mut quiet).iter().all(|&c| c == 0), "{quiet:?}");
        }
        let chaos_only = draw(&mut Chooser::seeded(None, Some(1)));
        assert!(
            chaos_only[..33].iter().all(|&c| c == 0),
            "chaos alone decides nothing"
        );
        let mut seeded = Chooser::seeded(Some(7), Some(8));
        seeded.arm_log(true);
        let drawn = draw(&mut seeded);
        assert_eq!(
            drawn,
            draw(&mut Chooser::seeded(Some(7), Some(8))),
            "replays"
        );
        assert!(drawn[..32].iter().any(|&c| c != 0) && drawn[32] == 0 && drawn[33] > 0);
        let logged: Vec<_> = seeded
            .take_decisions()
            .iter()
            .map(|d| d.chosen as usize)
            .collect();
        assert_eq!(logged, drawn[..33]);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            DecisionKind::DispatchTie,
            DecisionKind::UnparkTie,
            DecisionKind::WakeOrder,
            DecisionKind::Grant,
            DecisionKind::TimeoutOrder,
            DecisionKind::CancelDelivery,
        ] {
            assert_eq!(DecisionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(DecisionKind::from_name("nope"), None);
    }
}
