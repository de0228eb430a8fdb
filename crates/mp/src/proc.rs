//! The program-MB process state machine, backend-independent.
//!
//! [`MbCore`] is §5's refined per-process program: process `j` owns
//! `sn.j, cp.j, ph.j` plus a local copy of `sn.(j-1), cp.(j-1), ph.(j-1)`,
//! updated only from messages whose sequence number is ordinary. The same
//! core drives both executable backends:
//!
//! * the threaded backend (`mb.rs`): one `MbCore` per `std::thread`, real
//!   crossbeam channels, a [`Clock`](crate::clock::Clock) for retransmission
//!   and deadline timing;
//! * the deterministic backend (`mb_sim.rs`): all cores stepped by a
//!   discrete-event loop over the simulated network, on virtual time.
//!
//! Control-position changes are recorded as [`CpEvent`]s carrying the
//! caller-supplied virtual time plus a globally ordered sequence number, so
//! the merged event log replays through the [`BarrierOracle`]
//! (`ftbarrier_core::spec`) in an order that respects both per-process
//! program order and message causality (a state change is numbered before
//! the gossip that publishes it).

use crate::channel::Delivery;
use ftbarrier_core::cp::Cp;
use ftbarrier_core::sn::Sn;
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{CausalRecorder, EventId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The state a process gossips to its successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMsg {
    pub sn: Sn,
    pub cp: Cp,
    pub ph: u32,
}

impl StateMsg {
    /// The §5 start state: `sn = 0, cp = ready, ph = 0`.
    pub fn initial() -> StateMsg {
        StateMsg {
            sn: Sn::Val(0),
            cp: Cp::Ready,
            ph: 0,
        }
    }

    /// The §4.1 detectable-fault state: `sn = ⊥, cp = error`.
    pub fn poisoned(ph: u32) -> StateMsg {
        StateMsg {
            sn: Sn::Bot,
            cp: Cp::Error,
            ph,
        }
    }
}

/// A recorded control-position change, for the post-hoc oracle check.
#[derive(Debug, Clone, Copy)]
pub struct CpEvent {
    pub at: Time,
    /// Global commit order (shared counter): respects per-process program
    /// order and message causality, so sorting by `seq` yields a valid
    /// linearization even when many events share a coarse timestamp.
    pub seq: u64,
    pub pid: usize,
    pub ph: u32,
    pub old: Cp,
    pub new: Cp,
}

/// Outcome of one [`MbCore::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// No guard was enabled.
    Idle,
    /// A token action fired.
    Moved,
    /// The root's token action fired *and* genuinely advanced the phase
    /// counter after a completed success sweep (not a recovery jump).
    Advanced,
}

/// One MB process: §5's variables plus bookkeeping shared by both backends.
pub struct MbCore {
    pub pid: usize,
    pub n_phases: u32,
    pub sn_domain: u32,
    pub own: StateMsg,
    /// Whether the current phase body has been executed.
    pub done: bool,
    /// Local copy of the predecessor's state.
    pub copy: StateMsg,
    pub rng: SimRng,
    pub events: Vec<CpEvent>,
    /// Bumped whenever `done` is reset; lets the simulated backend discard
    /// stale phase-body-completion timers after a fault.
    pub work_token: u64,
    /// Flight recorder for happens-before events (off by default; drivers
    /// arm it before the first step, since the core caches its own last
    /// event id). Pure observer: never touches `rng` or the protocol state.
    pub recorder: CausalRecorder,
    /// Causal tags of deliveries folded into `copy` since the last recorded
    /// event; drained into that event's predecessor list.
    pending_tags: Vec<EventId>,
    /// Predecessor list of the event being recorded, reused across events.
    preds: Vec<EventId>,
    /// This process's most recent recorded event, as `recorder.record`
    /// returned it. The core is the only writer for its pid, so this equals
    /// `recorder.last(pid)` without taking the recorder's lock.
    last_event: Option<EventId>,
    seq: Arc<AtomicU64>,
}

/// The flight-recorder label of a control-position change, `cp:Old->New`
/// (the `Debug` names), for every pair without formatting.
fn cp_label(old: Cp, new: Cp) -> &'static str {
    const LABELS: [[&str; 5]; 5] = [
        [
            "cp:Ready->Ready",
            "cp:Ready->Execute",
            "cp:Ready->Success",
            "cp:Ready->Error",
            "cp:Ready->Repeat",
        ],
        [
            "cp:Execute->Ready",
            "cp:Execute->Execute",
            "cp:Execute->Success",
            "cp:Execute->Error",
            "cp:Execute->Repeat",
        ],
        [
            "cp:Success->Ready",
            "cp:Success->Execute",
            "cp:Success->Success",
            "cp:Success->Error",
            "cp:Success->Repeat",
        ],
        [
            "cp:Error->Ready",
            "cp:Error->Execute",
            "cp:Error->Success",
            "cp:Error->Error",
            "cp:Error->Repeat",
        ],
        [
            "cp:Repeat->Ready",
            "cp:Repeat->Execute",
            "cp:Repeat->Success",
            "cp:Repeat->Error",
            "cp:Repeat->Repeat",
        ],
    ];
    LABELS[old as usize][new as usize]
}

impl MbCore {
    /// `seq` is the run-global event counter shared by every process of the
    /// system (one counter per run, not per process).
    pub fn new(
        pid: usize,
        n_phases: u32,
        sn_domain: u32,
        seed: u64,
        seq: Arc<AtomicU64>,
    ) -> MbCore {
        MbCore {
            pid,
            n_phases,
            sn_domain,
            own: StateMsg::initial(),
            done: true,
            copy: StateMsg::initial(),
            rng: SimRng::seed_from_u64(seed),
            events: Vec::new(),
            work_token: 0,
            recorder: CausalRecorder::off(),
            pending_tags: Vec::new(),
            preds: Vec::new(),
            last_event: None,
            seq,
        }
    }

    fn record(&mut self, now: Time, old: Cp) {
        if old != self.own.cp {
            self.events.push(CpEvent {
                at: now,
                seq: self.seq.fetch_add(1, Ordering::AcqRel),
                pid: self.pid,
                ph: self.own.ph,
                old,
                new: self.own.cp,
            });
            self.causal(now, cp_label(old, self.own.cp));
        }
    }

    /// Record one happens-before event: predecessors are this process's own
    /// previous event plus the tags of every delivery absorbed since then.
    fn causal(&mut self, now: Time, label: &str) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.preds.clear();
        self.preds.extend(self.last_event);
        self.preds.append(&mut self.pending_tags);
        self.preds.sort_unstable();
        self.preds.dedup();
        self.last_event = self.recorder.record(
            self.pid,
            label,
            now.as_f64(),
            Some(self.own.ph),
            &self.preds,
        );
    }

    /// The causal tag for an outgoing gossip: the sender's latest event.
    pub fn causal_tag(&self) -> Option<EventId> {
        self.last_event
    }

    /// Record a retransmission heartbeat. Liveness marker: a fail-stopped
    /// process stops heartbeating, so a wedge dump's blame lands on it.
    pub fn record_heartbeat(&mut self, now: Time) {
        self.causal(now, "retransmit");
    }

    /// Record the one-time fail-stop marker: the last event a crashed or
    /// muted process ever contributes, so a wedge dump's blame names it.
    pub fn record_fail_stop(&mut self, now: Time) {
        self.causal(now, "fault:stop");
    }

    /// Record an externally driven phase-body arrival (the barrier server's
    /// clients deliver these over the wire). A connected-but-stalled client
    /// stops contributing arrivals, so its core's event stream goes stale
    /// and a wedge dump's blame lands on it.
    pub fn record_arrival(&mut self, now: Time) {
        self.causal(now, "arrive");
    }

    /// The phase body must run before the success transition can fire.
    pub fn needs_work(&self) -> bool {
        self.own.cp == Cp::Execute && !self.done
    }

    fn reset_work(&mut self) {
        self.done = false;
        self.work_token += 1;
    }

    /// Mark the phase body complete. `token` must match the value of
    /// [`MbCore::work_token`] captured when the body was scheduled; a stale
    /// token (fault in between) is ignored.
    pub fn complete_work(&mut self, token: u64) {
        if token == self.work_token && self.needs_work() {
            self.done = true;
        }
    }

    /// Fire the enabled token action, if any (T1 for the root, T2 + the
    /// superposed §5 update otherwise).
    pub fn step(&mut self, now: Time) -> Step {
        if self.pid == 0 {
            self.step_root(now)
        } else {
            self.step_nonroot(now)
        }
    }

    /// Root token action (T1 + superposed update) against the local copy of
    /// process N.
    fn step_root(&mut self, now: Time) -> Step {
        let pred = self.copy;
        let token = pred.sn.is_valid() && (self.own.sn == pred.sn || !self.own.sn.is_valid());
        if !token {
            return Step::Idle;
        }
        if self.own.cp == Cp::Execute && !self.done {
            return Step::Idle; // finish the phase body first
        }
        let old = self.own.cp;
        let mut advanced = false;
        self.own.sn = pred.sn.next(self.sn_domain);
        match self.own.cp {
            Cp::Ready => {
                if pred.cp == Cp::Ready && pred.ph == self.own.ph {
                    self.own.cp = Cp::Execute;
                    self.reset_work();
                }
            }
            Cp::Execute => self.own.cp = Cp::Success,
            Cp::Success => {
                if pred.cp == Cp::Success && pred.ph == self.own.ph {
                    // The success sweep closed the ring: every process
                    // completed this phase. This is the *genuine* advance.
                    self.own.ph = (self.own.ph + 1) % self.n_phases;
                    advanced = true;
                } else {
                    self.own.ph = pred.ph;
                }
                self.own.cp = Cp::Ready;
            }
            Cp::Error | Cp::Repeat => {
                self.own.ph = pred.ph;
                self.own.cp = Cp::Ready;
            }
        }
        self.record(now, old);
        if advanced {
            Step::Advanced
        } else {
            Step::Moved
        }
    }

    /// Non-root token action (T2 + superposed update).
    fn step_nonroot(&mut self, now: Time) -> Step {
        let pred = self.copy;
        if !pred.sn.is_valid() || self.own.sn == pred.sn {
            return Step::Idle;
        }
        if self.own.cp == Cp::Execute && !self.done && pred.cp == Cp::Success {
            return Step::Idle; // gate the success transition on the phase body
        }
        let old = self.own.cp;
        self.own.sn = pred.sn;
        self.own.ph = pred.ph;
        match (old, pred.cp) {
            (Cp::Ready, Cp::Execute) => {
                self.own.cp = Cp::Execute;
                self.reset_work();
            }
            (Cp::Execute, Cp::Success) => self.own.cp = Cp::Success,
            (cp, Cp::Ready) if cp != Cp::Execute => self.own.cp = Cp::Ready,
            (cp, pred_cp) => {
                if cp == Cp::Error || pred_cp != cp {
                    self.own.cp = Cp::Repeat;
                }
            }
        }
        self.record(now, old);
        Step::Moved
    }

    /// Inject the §4.1 detectable fault: `ph, cp, sn := ?, error, ⊥`, plus
    /// flagged local copies per §5.
    pub fn apply_poison(&mut self, now: Time) {
        let old = self.own.cp;
        let ph = self.rng.range_u64(0, self.n_phases as u64) as u32;
        self.own = StateMsg::poisoned(ph);
        self.reset_work();
        self.copy = StateMsg::poisoned(0);
        self.record(now, old);
        self.causal(now, "fault:detectable");
    }

    /// Inject an undetectable fault: every variable set to an arbitrary
    /// domain value.
    pub fn apply_scramble(&mut self, now: Time) {
        let old = self.own.cp;
        let arbitrary = |rng: &mut SimRng, n_phases: u32, l: u32| StateMsg {
            sn: Sn::arbitrary(l, rng),
            cp: *rng.choose(&Cp::RB_DOMAIN),
            ph: rng.range_u64(0, n_phases as u64) as u32,
        };
        self.own = arbitrary(&mut self.rng, self.n_phases, self.sn_domain);
        self.copy = arbitrary(&mut self.rng, self.n_phases, self.sn_domain);
        self.done = self.rng.chance(0.5);
        self.work_token += 1;
        self.record(now, old);
        self.causal(now, "fault:undetectable");
    }

    /// Inject an undetectable fault into the *local neighbor copy only*:
    /// `own` stays intact, but the cached predecessor state is replaced by an
    /// arbitrary domain value. This models a corrupted receive buffer — the
    /// §5 refinement's new failure surface relative to the shared-memory
    /// ring, where no such cache exists.
    pub fn apply_copy_scramble(&mut self, _now: Time) {
        self.copy = StateMsg {
            sn: Sn::arbitrary(self.sn_domain, &mut self.rng),
            cp: *self.rng.choose(&Cp::RB_DOMAIN),
            ph: self.rng.range_u64(0, self.n_phases as u64) as u32,
        };
    }

    /// Rejoin the barrier at a phase boundary after a graft (§4.1 reboot +
    /// membership repair): adopt the upstream neighbor's sequence number and
    /// phase with `cp = ready`, so the next token sweep picks this process up
    /// without re-executing the upstream's current phase body.
    pub fn rejoin(&mut self, now: Time, upstream: StateMsg) {
        let old = self.own.cp;
        self.own = StateMsg {
            sn: upstream.sn,
            cp: Cp::Ready,
            ph: upstream.ph,
        };
        self.done = true;
        self.work_token += 1;
        self.copy = upstream;
        self.record(now, old);
    }

    /// Fold one delivery from the predecessor into the local copy.
    ///
    /// §5: "the local copy of sn.(j-1) in j is updated only if sn.(j-1) is
    /// different from ⊥ and ⊤". Detectably corrupted deliveries are
    /// discarded — masked as loss.
    pub fn on_delivery(&mut self, d: Delivery<StateMsg>) {
        self.on_delivery_tagged(d, None);
    }

    /// [`MbCore::on_delivery`] with the sender's causal tag: when the
    /// delivery is actually folded into the local copy, the tag becomes a
    /// happens-before predecessor of this process's next recorded event —
    /// the exact message-delivery edge, not an inferred one.
    pub fn on_delivery_tagged(&mut self, d: Delivery<StateMsg>, tag: Option<EventId>) {
        if let Delivery::Ok(m) = d {
            if m.sn.is_valid() {
                self.copy = m;
                if self.recorder.is_enabled() {
                    if let Some(id) = tag {
                        self.pending_tags.push(id);
                    }
                }
            }
        }
    }
}

/// Result of draining the inbox and stepping a core to quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pumped {
    /// At least one token action fired (the process should gossip).
    pub moved: bool,
    /// Genuine root phase advances observed.
    pub advances: u64,
}

/// Drain everything pending on `ep`, then fire token actions until no guard
/// is enabled or the phase body gates progress. Both backends drive their
/// processes through this single function — the behaviour under either
/// transport is the same code path.
pub fn pump<E: crate::transport::Endpoint + ?Sized>(
    core: &mut MbCore,
    ep: &mut E,
    now: Time,
) -> Pumped {
    let mut out = Pumped::default();
    loop {
        while let Some((d, tag)) = ep.try_recv_tagged() {
            core.on_delivery_tagged(d, tag);
        }
        match core.step(now) {
            Step::Idle => break,
            Step::Moved => out.moved = true,
            Step::Advanced => {
                out.moved = true;
                out.advances += 1;
            }
        }
        if core.needs_work() {
            // The phase body gates further steps; the driver decides how the
            // body "runs" (a closure on the threaded backend, a virtual-time
            // timer on the simulated one).
            break;
        }
    }
    out
}

/// The MB sequence-number domain for `n` processes: `L > 2N+1` with headroom.
pub fn sn_domain(n: usize) -> u32 {
    4 * n as u32 + 3
}

/// Validate a caller-chosen MB sequence-number domain against the paper's
/// `L > 2N+1` precondition (§5; with `n` processes and up to one message per
/// link in flight, fewer than `2N+2` distinct values can confuse a stale
/// in-flight `sn` with a live one and duplicate the token).
pub fn try_sn_domain(n: usize, l: u32) -> Result<u32, ftbarrier_core::DomainError> {
    let min = 2 * n as u32 + 2;
    if l < min {
        return Err(ftbarrier_core::DomainError::LTooSmall { l, min });
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cp_label_matches_the_debug_rendering_for_every_pair() {
        for old in Cp::RB_DOMAIN {
            for new in Cp::RB_DOMAIN {
                assert_eq!(cp_label(old, new), format!("cp:{old:?}->{new:?}"));
            }
        }
    }

    #[test]
    fn causal_tag_tracks_the_recorder_after_every_kind_of_event() {
        let recorder = CausalRecorder::bounded(64);
        let seq = Arc::new(AtomicU64::new(0));
        let mut cores: Vec<MbCore> = (0..2)
            .map(|pid| {
                let mut core = MbCore::new(pid, 4, sn_domain(2), 7 + pid as u64, seq.clone());
                core.recorder = recorder.clone();
                core
            })
            .collect();
        let check = |core: &MbCore, what: &str| {
            assert!(core.causal_tag().is_some(), "{what}: nothing recorded");
            assert_eq!(
                core.causal_tag(),
                recorder.last(core.pid),
                "{what}: cached tag diverged from the recorder"
            );
        };
        // Both pids record into the one ring, interleaved, so a cache that
        // picked up the other pid's event would show.
        assert_eq!(cores[1].causal_tag(), None, "nothing recorded yet");
        assert_eq!(
            cores[0].step(Time::ZERO),
            Step::Moved,
            "root starts a phase"
        );
        check(&cores[0], "step");
        cores[1].record_heartbeat(Time::new(0.05));
        check(&cores[1], "heartbeat");
        let tag = cores[1].causal_tag();
        cores[0].on_delivery_tagged(Delivery::Ok(StateMsg::initial()), tag);
        cores[0].apply_poison(Time::new(0.1));
        check(&cores[0], "poison");
        cores[1].apply_scramble(Time::new(0.15));
        check(&cores[1], "scramble");
        cores[0].record_heartbeat(Time::new(0.2));
        check(&cores[0], "heartbeat");
        let upstream = cores[0].own;
        cores[1].rejoin(Time::new(0.25), upstream);
        check(&cores[1], "rejoin");
        cores[0].record_fail_stop(Time::new(0.3));
        check(&cores[0], "fail-stop");
        cores[1].record_arrival(Time::new(0.35));
        check(&cores[1], "arrival");

        // Every event names its own pid's previous event, and the delivery
        // edge rode into the next event p0 recorded (the poison's cp change).
        let graph = recorder.snapshot();
        for pid in 0..2u32 {
            let own: Vec<_> = graph.events.iter().filter(|e| e.id.pid == pid).collect();
            for pair in own.windows(2) {
                assert!(pair[1].preds.contains(&pair[0].id), "{:?}", pair[1]);
            }
        }
        let poisoned = graph
            .events
            .iter()
            .find(|e| e.id.pid == 0 && e.label == "cp:Execute->Error")
            .expect("poison recorded");
        assert!(poisoned.preds.contains(&tag.unwrap()), "{poisoned:?}");
    }
}
