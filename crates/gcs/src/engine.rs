//! Timed maximal-parallelism engine (§6 semantics).
//!
//! The paper evaluates its programs under "maximum parallel semantics, i.e.,
//! time is computed in terms of steps, where in each step every process
//! executes one of its enabled actions unless all its actions are disabled",
//! with "a real-time value associated with each action to model the time
//! required to execute that action" (the SIEFAST model).
//!
//! This engine realizes that model as a discrete-event simulation:
//!
//! * An idle process whose guard holds **commits** to that action; the commit
//!   completes `cost(pid, action)` time later.
//! * At the commit time the guard is **re-checked** against the then-current
//!   state and the statement executes atomically; if the guard no longer
//!   holds the commit is dropped (counted in [`RunStats::commits_dropped`])
//!   and the process simply reschedules. In the paper's programs guards are
//!   *locally stable* — once process j holds the token only j can give it up —
//!   so drops occur only around fault hits, exactly where re-execution is the
//!   right model.
//! * All commits that complete at the same instant form one *maximal-parallel
//!   step*: each reads the pre-step state and writes its own post-state.
//! * Fault events from a [`FaultPlan`] interleave with commits in time order.
//!   A fault that strikes a process **aborts that process's in-flight
//!   action** (its state was just perturbed), which models a fault hitting a
//!   process mid-phase.
//!
//! # Engine internals: event-incremental scheduling
//!
//! A naive implementation rescans every guard and linearly scans every
//! pending commit after every event — O(n) work per event even though the
//! paper's programs only ever change a constant-size neighborhood. This
//! engine is incremental in both dimensions:
//!
//! * **Dirty-set scheduling.** When [`Protocol::readers_of`] names each
//!   process's guard readers (every protocol in this repo does; the default
//!   [`ReaderSet::All`] falls back to full rescans), the engine re-evaluates
//!   guards only for the *dirty set*: processes whose state changed since the
//!   last scheduling pass, plus their readers. This is sound because guard
//!   truth at an untouched process cannot change when no state it reads
//!   changed — an idle, non-dirty process provably has no enabled action, so
//!   skipping it is exact, not approximate. Dirty pids are visited in
//!   ascending pid order, so the RNG consumes the identical stream the full
//!   rescan would (idle non-dirty pids never reach the nondeterministic
//!   choice), making both modes produce byte-identical runs. The set is a
//!   bitmap plus a list: a dense set (at least n/16 pids, as on a tree's
//!   wide frontier) is walked word by word in pid order, a sparse one (a
//!   ring's single token) is sorted.
//! * **Commit lanes.** Pending commits wait in one FIFO lane per distinct
//!   action cost. A commit made at `now` matures at `now + cost`; `now`
//!   never decreases and IEEE addition is monotone, so every lane stays
//!   sorted by maturity time without a heap. The next event is the minimum
//!   over the lane heads, and a maximal-parallel batch is the equal-time
//!   heads of every lane, sorted by pid. Aborting a commit (fault hit) just
//!   clears the per-process slot (*lazy invalidation*); the stale lane entry
//!   is discarded when it reaches the head. A push or pop is O(1) and
//!   finding the next event is O(distinct costs) — at most 3 for every
//!   protocol in this workspace.
//! * **No per-event snapshots.** Maximal-parallel steps read pre-step state
//!   by computing all updates *before* applying any (the statements only
//!   read `global` and write their own process), and the old state each
//!   monitor callback needs is recovered by swapping new states in — the
//!   engine never clones the global state vector. Fault observers get the
//!   victim's pre-fault state from [`FaultHit::old`], captured by the plan.
//!
//! [`EngineConfig::full_rescan`] forces the reference O(n)-per-event
//! scheduler; the differential tests run both modes and assert identical
//! traces.
//!
//! [`FaultHit::old`]: crate::fault::FaultHit

use std::collections::VecDeque;

use crate::fault::FaultPlan;
use crate::monitor::Monitor;
use crate::protocol::{ActionId, Pid, Protocol, ReaderSet};
use crate::rng::SimRng;
use crate::stats::RunStats;
use crate::time::Time;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No action enabled anywhere and no fault pending: a global fixpoint.
    Fixpoint,
    /// The configured time horizon was reached.
    MaxTime,
    /// The configured commit budget was exhausted.
    MaxCommits,
    /// A monitor requested the stop.
    MonitorStop,
}

/// Result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    pub reason: StopReason,
    pub stats: RunStats,
}

#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub seed: u64,
    /// Stop when simulation time reaches this horizon.
    pub max_time: Option<Time>,
    /// Stop after this many committed actions (guards against zero-cost
    /// livelock in buggy protocols).
    pub max_commits: Option<u64>,
    /// Force the reference scheduler that rescans every guard after every
    /// event, even when the protocol provides [`Protocol::readers_of`]
    /// hints. Produces byte-identical runs to the incremental scheduler;
    /// exists for differential tests and baseline benchmarks.
    pub full_rescan: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x051E_FA57,
            max_time: None,
            max_commits: Some(100_000_000),
            full_rescan: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    action: ActionId,
    at: Time,
}

/// Whether the lane entry `(at, pid)` is live: `pending` still holds the
/// commit it was pushed for. A fault abort leaves a stale entry behind.
fn is_live(pending: &[Option<Pending>], at: Time, pid: Pid) -> bool {
    matches!(pending[pid], Some(p) if p.at == at)
}

/// Guard readers in compressed sparse row form: the readers of `q` are
/// `flat[offsets[q]..offsets[q + 1]]`, sorted, deduped, and always
/// including `q` itself.
struct Readers {
    offsets: Vec<usize>,
    flat: Vec<Pid>,
}

impl Readers {
    fn of(&self, q: Pid) -> &[Pid] {
        &self.flat[self.offsets[q]..self.offsets[q + 1]]
    }
}

/// Pids whose guards must be re-evaluated at the next scheduling pass. The
/// bitmap (bit `pid % 64` of word `pid / 64`) makes membership O(1) and
/// lets a dense set be walked in pid order; the list makes a sparse set's
/// iteration proportional to its size.
struct DirtySet {
    words: Vec<u64>,
    list: Vec<Pid>,
}

impl DirtySet {
    fn new(n: usize) -> Self {
        DirtySet {
            words: vec![0; n.div_ceil(64)],
            list: Vec::with_capacity(n),
        }
    }

    fn insert(&mut self, pid: Pid) {
        let (word, bit) = (&mut self.words[pid / 64], 1u64 << (pid % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.list.push(pid);
        }
    }
}

/// The pending commits of one action cost, as `(matures at, pid)` in
/// maturity order (see the module docs).
struct Lane {
    cost: Time,
    queue: VecDeque<(Time, Pid)>,
}

/// The timed engine. Owns the global state between runs so that experiments
/// can inspect or perturb it.
///
/// ```
/// use ftbarrier_gcs::*;
///
/// // Any Protocol runs; here, the crate's doctest-friendly example is a
/// // trivial one-action counter protocol.
/// struct Count;
/// impl Protocol for Count {
///     type State = u32;
///     fn num_processes(&self) -> usize { 2 }
///     fn num_actions(&self, _p: Pid) -> usize { 1 }
///     fn action_name(&self, _p: Pid, _a: ActionId) -> &'static str { "tick" }
///     fn enabled(&self, g: &[u32], p: Pid, _a: ActionId) -> bool { g[p] < 5 }
///     fn execute(&self, g: &[u32], p: Pid, _a: ActionId, _r: &mut SimRng) -> u32 { g[p] + 1 }
///     fn cost(&self, _p: Pid, _a: ActionId) -> Time { Time::new(0.5) }
///     fn initial_state(&self) -> Vec<u32> { vec![0, 0] }
///     fn arbitrary_state(&self, _p: Pid, r: &mut SimRng) -> u32 { r.range_u64(0, 6) as u32 }
/// }
///
/// let protocol = Count;
/// let mut engine = Engine::new(&protocol, 1);
/// let out = engine.run(&EngineConfig::default(), &mut fault::NoFaults, &mut NullMonitor);
/// assert_eq!(out.reason, StopReason::Fixpoint);
/// assert_eq!(engine.global(), &[5, 5]);
/// assert_eq!(out.stats.elapsed, Time::new(2.5)); // 5 ticks of 0.5, in parallel
/// ```
pub struct Engine<'p, P: Protocol> {
    protocol: &'p P,
    global: Vec<P::State>,
    pending: Vec<Option<Pending>>,
    now: Time,
    rng: SimRng,
    enabled_scratch: Vec<ActionId>,
    /// The pids whose guards read each process's state. `None` when the
    /// protocol answered [`ReaderSet::All`] for some pid: every event then
    /// triggers a full guard rescan.
    readers: Option<Readers>,
    dirty: DirtySet,
    /// Commit lanes, one per distinct cost seen, with lazy invalidation
    /// (see [`is_live`]).
    lanes: Vec<Lane>,
    /// Scratch buffers reused across steps (no per-step allocation).
    batch: Vec<Pid>,
    updates: Vec<(Pid, ActionId, P::State)>,
    touched: Vec<Pid>,
    /// Dense per-(pid, action) execution counters, folded into the
    /// name-keyed histogram once per run; `action_offsets[pid] + action`
    /// indexes `action_counts`.
    action_counts: Vec<u64>,
    action_offsets: Vec<usize>,
}

impl<'p, P: Protocol> Engine<'p, P> {
    pub fn new(protocol: &'p P, seed: u64) -> Self {
        let global = protocol.initial_state();
        Self::from_state(protocol, seed, global)
    }

    pub fn from_state(protocol: &'p P, seed: u64, global: Vec<P::State>) -> Self {
        assert_eq!(global.len(), protocol.num_processes());
        let n = protocol.num_processes();

        let mut reader_table = Readers {
            offsets: Vec::with_capacity(n + 1),
            flat: Vec::new(),
        };
        reader_table.offsets.push(0);
        let mut complete = true;
        for pid in 0..n {
            match protocol.readers_of(pid) {
                ReaderSet::All => {
                    complete = false;
                    break;
                }
                ReaderSet::These(mut readers) => {
                    readers.push(pid);
                    readers.sort_unstable();
                    readers.dedup();
                    assert!(
                        readers.iter().all(|&r| r < n),
                        "readers_of({pid}) names a pid out of range (n={n})"
                    );
                    reader_table.flat.extend_from_slice(&readers);
                    reader_table.offsets.push(reader_table.flat.len());
                }
            }
        }

        let mut action_offsets = Vec::with_capacity(n);
        let mut total_actions = 0;
        for pid in 0..n {
            action_offsets.push(total_actions);
            total_actions += protocol.num_actions(pid);
        }

        let mut engine = Engine {
            protocol,
            global,
            pending: vec![None; n],
            now: Time::ZERO,
            rng: SimRng::seed_from_u64(seed),
            enabled_scratch: Vec::new(),
            readers: complete.then_some(reader_table),
            dirty: DirtySet::new(n),
            lanes: Vec::new(),
            batch: Vec::new(),
            updates: Vec::new(),
            touched: Vec::new(),
            action_counts: vec![0; total_actions],
            action_offsets,
        };
        engine.mark_all();
        engine
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn global(&self) -> &[P::State] {
        &self.global
    }

    pub fn set_state(&mut self, pid: Pid, state: P::State) {
        self.global[pid] = state;
        self.pending[pid] = None;
        self.mark_readers_of(pid);
        self.dirty.insert(pid);
    }

    /// Replace every process's state with an arbitrary domain value — used to
    /// start recovery experiments (Fig 7) from an adversarial state.
    pub fn perturb_all(&mut self) {
        for pid in 0..self.protocol.num_processes() {
            self.global[pid] = self.protocol.arbitrary_state(pid, &mut self.rng);
            self.pending[pid] = None;
        }
        self.mark_all();
    }

    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn mark_all(&mut self) {
        for pid in 0..self.pending.len() {
            self.dirty.insert(pid);
        }
    }

    /// State of `pid` changed: every process whose guard reads it may have
    /// flipped enabled-status. No-op under full rescans (`readers` absent).
    fn mark_readers_of(&mut self, pid: Pid) {
        let Some(readers) = &self.readers else {
            return;
        };
        for &r in readers.of(pid) {
            self.dirty.insert(r);
        }
    }

    /// Evaluate `pid`'s guards against the current state and commit to one
    /// enabled action, if any.
    fn try_commit(&mut self, pid: Pid) {
        self.enabled_scratch.clear();
        for a in 0..self.protocol.num_actions(pid) {
            if self.protocol.enabled(&self.global, pid, a) {
                self.enabled_scratch.push(a);
            }
        }
        let action = match self.enabled_scratch.len() {
            0 => return,
            1 => self.enabled_scratch[0],
            _ => *self.rng.choose(&self.enabled_scratch),
        };
        let cost = self.protocol.cost(pid, action);
        let at = self.now + cost;
        self.pending[pid] = Some(Pending { action, at });
        let lane = match self.lanes.iter().position(|l| l.cost == cost) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(Lane {
                    cost,
                    queue: VecDeque::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        debug_assert!(
            lane.queue.back().is_none_or(|&(last, _)| last <= at),
            "commit at {at} goes behind its lane's back"
        );
        lane.queue.push_back((at, pid));
    }

    /// Schedule commits for all idle processes with an enabled action.
    ///
    /// In incremental mode only the dirty set is examined, in ascending pid
    /// order — the same order the full rescan uses, and idle non-dirty pids
    /// cannot have an enabled action, so both modes drive the RNG
    /// identically. A dense set is walked as bitmap words, which visits it
    /// in pid order without sorting; a sparse one is sorted.
    fn schedule(&mut self, incremental: bool) {
        let n = self.pending.len();
        if !incremental {
            // Reference path: rescan every guard. Dirty bookkeeping is
            // still cleared so a later incremental run starts from the same
            // invariant (every idle process has just been checked).
            self.dirty.words.fill(0);
            for pid in 0..n {
                if self.pending[pid].is_none() {
                    self.try_commit(pid);
                }
            }
        } else if self.dirty.list.len() >= n / 16 {
            for w in 0..self.dirty.words.len() {
                let mut bits = std::mem::take(&mut self.dirty.words[w]);
                while bits != 0 {
                    let pid = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.pending[pid].is_none() {
                        self.try_commit(pid);
                    }
                }
            }
        } else {
            self.dirty.list.sort_unstable();
            for i in 0..self.dirty.list.len() {
                let pid = self.dirty.list[i];
                self.dirty.words[pid / 64] &= !(1u64 << (pid % 64));
                if self.pending[pid].is_none() {
                    self.try_commit(pid);
                }
            }
        }
        self.dirty.list.clear();
    }

    /// Time of the next maturing commit, discarding stale lane heads
    /// (lazily invalidated by fault aborts).
    fn earliest_commit(&mut self) -> Option<Time> {
        let mut earliest: Option<Time> = None;
        for lane in &mut self.lanes {
            while let Some(&(at, pid)) = lane.queue.front() {
                if is_live(&self.pending, at, pid) {
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                    break;
                }
                lane.queue.pop_front();
            }
        }
        earliest
    }

    /// Run until a stop condition. `faults` injects the fault environment;
    /// `monitor` observes every transition and fault.
    pub fn run(
        &mut self,
        config: &EngineConfig,
        faults: &mut dyn FaultPlan<P::State>,
        monitor: &mut dyn Monitor<P::State>,
    ) -> RunOutcome {
        let incremental = self.readers.is_some() && !config.full_rescan;
        let mut stats = RunStats::default();
        self.action_counts.fill(0);

        let reason = 'run: loop {
            self.schedule(incremental);

            let next_commit = self.earliest_commit();
            let next_fault = faults.peek(self.now, &mut self.rng);

            let next_event = match (next_commit, next_fault) {
                (None, None) => break 'run StopReason::Fixpoint,
                (Some(c), None) => c,
                (None, Some(f)) => f,
                (Some(c), Some(f)) => c.min(f),
            };

            if let Some(horizon) = config.max_time {
                if next_event > horizon {
                    // Never backwards: a horizon behind the clock (a later
                    // run with a shorter one) leaves the clock where it is,
                    // which keeps every lane sorted.
                    self.now = self.now.max(horizon);
                    break 'run StopReason::MaxTime;
                }
            }
            self.now = self.now.max(next_event);

            // Faults strictly before (or tying with) commits fire first: the
            // perturbation lands before the action's atomic execution.
            if let Some(f) = next_fault {
                if f <= next_event {
                    self.touched.clear();
                    let hit = faults.fire(f, &mut self.global, &mut self.rng, &mut self.touched);
                    // The fault aborts the victim's in-flight action (its
                    // lane entry goes stale and is dropped lazily).
                    self.pending[hit.pid] = None;
                    for i in 0..self.touched.len() {
                        let p = self.touched[i];
                        self.mark_readers_of(p); // includes p itself
                    }
                    self.dirty.insert(hit.pid); // must reschedule after the abort
                    stats.faults += 1;
                    monitor.on_fault(
                        self.now,
                        hit.pid,
                        hit.kind,
                        &hit.old,
                        &self.global[hit.pid],
                        &self.global,
                    );
                    if monitor.should_stop() {
                        break 'run StopReason::MonitorStop;
                    }
                    continue;
                }
            }

            // Commit batch: all pending actions maturing exactly now execute
            // as one maximal-parallel step against the pre-step state, in
            // ascending pid order. Each lane's equal-time entries are a
            // prefix of it. A pid may surface twice (abort + reschedule at
            // the same instant), which the `take()` below collapses.
            self.batch.clear();
            for lane in &mut self.lanes {
                while let Some(&(at, pid)) = lane.queue.front() {
                    if at != next_event {
                        break;
                    }
                    lane.queue.pop_front();
                    if is_live(&self.pending, at, pid) {
                        self.batch.push(pid);
                    }
                }
            }
            self.batch.sort_unstable();
            debug_assert!(!self.batch.is_empty(), "an event time with no commits");

            // Compute phase: `global` is not mutated yet, so every statement
            // reads the pre-step state — no snapshot clone needed.
            self.updates.clear();
            for i in 0..self.batch.len() {
                let pid = self.batch[i];
                let Some(p) = self.pending[pid].take() else {
                    continue; // duplicate lane entry already consumed
                };
                if self.protocol.enabled(&self.global, pid, p.action) {
                    let new = self
                        .protocol
                        .execute(&self.global, pid, p.action, &mut self.rng);
                    self.updates.push((pid, p.action, new));
                } else {
                    stats.commits_dropped += 1;
                    self.dirty.insert(pid);
                }
            }

            // Apply phase: swap each new state in; the update slot then
            // holds the *old* state for the monitor callbacks below.
            for u in self.updates.iter_mut() {
                std::mem::swap(&mut self.global[u.0], &mut u.2);
            }
            for i in 0..self.updates.len() {
                let (pid, action, ref old) = self.updates[i];
                self.action_counts[self.action_offsets[pid] + action] += 1;
                stats.actions_executed += 1;
                let name = self.protocol.action_name(pid, action);
                monitor.on_transition(
                    self.now,
                    pid,
                    action,
                    name,
                    old,
                    &self.global[pid],
                    &self.global,
                );
            }
            for i in 0..self.updates.len() {
                // Writer changed state → its readers re-check; the writer
                // itself (now idle) is in its own reader set.
                let pid = self.updates[i].0;
                self.mark_readers_of(pid);
            }

            if monitor.should_stop() {
                break 'run StopReason::MonitorStop;
            }
            if let Some(max) = config.max_commits {
                if stats.actions_executed >= max {
                    break 'run StopReason::MaxCommits;
                }
            }
        };

        stats.elapsed = self.now;
        for pid in 0..self.protocol.num_processes() {
            for a in 0..self.protocol.num_actions(pid) {
                let count = self.action_counts[self.action_offsets[pid] + a];
                if count > 0 {
                    stats.add_action_count(self.protocol.action_name(pid, a), count);
                }
            }
        }
        RunOutcome { reason, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        FaultAction, FaultKind, NoFaults, PoissonFaults, ScriptedFault, ScriptedFaults,
        VictimPolicy,
    };
    use crate::monitor::NullMonitor;
    use crate::protocol::testutil::{tokens, DijkstraRing};
    use crate::trace::Trace;

    fn ring(n: usize, cost: f64) -> DijkstraRing {
        DijkstraRing {
            n,
            k: 2 * n as u64 + 1,
            cost: Time::new(cost),
        }
    }

    #[test]
    fn timing_matches_hop_cost() {
        // One full circulation of the token over n processes = n hops of
        // cost c each.
        let n = 8;
        let c = 0.25;
        let r = ring(n, c);
        let mut engine = Engine::new(&r, 1);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_commits: Some(3 * n as u64), // three circulations
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxCommits);
        let expect = 3.0 * n as f64 * c;
        assert!(
            (out.stats.elapsed.as_f64() - expect).abs() < 1e-9,
            "elapsed {} vs expected {expect}",
            out.stats.elapsed
        );
    }

    #[test]
    fn max_time_stops_run() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 2);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_time: Some(Time::new(10.5)),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxTime);
        assert_eq!(out.stats.elapsed, Time::new(10.5));
        // 10 actions of cost 1 fit in 10.5 time units.
        assert_eq!(out.stats.actions_executed, 10);
    }

    #[test]
    fn zero_cost_actions_execute_at_same_instant() {
        let r = ring(4, 0.0);
        let mut engine = Engine::new(&r, 3);
        let mut m = NullMonitor;
        let config = EngineConfig {
            max_commits: Some(100),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MaxCommits);
        assert_eq!(out.stats.elapsed, Time::ZERO);
        assert_eq!(tokens(&r, engine.global()), 1);
    }

    struct Scramble;
    impl FaultAction<u64> for Scramble {
        fn kind(&self) -> FaultKind {
            FaultKind::Undetectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, rng: &mut SimRng) {
            *state = rng.range_u64(0, 1000);
        }
    }

    #[test]
    fn scripted_fault_interleaves_and_is_observed() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 4);
        let mut trace: Trace<u64> = Trace::unbounded();
        let plan = vec![ScriptedFault {
            at: Time::new(2.5),
            pid: 2,
            action: Box::new(Scramble) as Box<dyn FaultAction<u64>>,
        }];
        let mut faults = ScriptedFaults::new(plan);
        let config = EngineConfig {
            max_time: Some(Time::new(6.0)),
            ..Default::default()
        };
        let out = engine.run(&config, &mut faults, &mut trace);
        assert_eq!(out.stats.faults, 1);
        let fault_events: Vec<_> = trace
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Fault { .. }))
            .collect();
        assert_eq!(fault_events.len(), 1);
        assert_eq!(fault_events[0].time(), Time::new(2.5));
        assert_eq!(fault_events[0].pid(), 2);
    }

    #[test]
    fn stabilizes_under_engine_from_arbitrary_state() {
        let r = ring(6, 0.1);
        for seed in 0..10 {
            let mut engine = Engine::new(&r, seed);
            engine.perturb_all();
            let mut m = NullMonitor;
            let config = EngineConfig {
                max_time: Some(Time::new(50.0)),
                ..Default::default()
            };
            engine.run(&config, &mut NoFaults, &mut m);
            assert_eq!(tokens(&r, engine.global()), 1, "seed {seed}");
        }
    }

    #[test]
    fn monitor_stop_is_honored() {
        struct StopAfter(u64, u64);
        impl Monitor<u64> for StopAfter {
            fn on_transition(
                &mut self,
                _now: Time,
                _pid: Pid,
                _action: ActionId,
                _name: &str,
                _old: &u64,
                _new: &u64,
                _global: &[u64],
            ) {
                self.0 += 1;
            }
            fn should_stop(&mut self) -> bool {
                self.0 >= self.1
            }
        }
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 5);
        let mut m = StopAfter(0, 7);
        let out = engine.run(&EngineConfig::default(), &mut NoFaults, &mut m);
        assert_eq!(out.reason, StopReason::MonitorStop);
        assert_eq!(out.stats.actions_executed, 7);
    }

    /// Run a full faulted scenario in both scheduler modes and return
    /// everything observable: the trace, the final state, and the stats.
    fn faulted_run(
        r: &DijkstraRing,
        seed: u64,
        fault_rate: f64,
        full_rescan: bool,
    ) -> (Vec<crate::trace::TraceEvent<u64>>, Vec<u64>, RunStats) {
        let mut engine = Engine::new(r, seed);
        engine.perturb_all();
        let mut trace: Trace<u64> = Trace::unbounded();
        let config = EngineConfig {
            seed,
            max_time: Some(Time::new(40.0)),
            full_rescan,
            ..Default::default()
        };
        let out = if fault_rate > 0.0 {
            let mut faults = PoissonFaults::with_rate(fault_rate, VictimPolicy::Random, Scramble);
            engine.run(&config, &mut faults, &mut trace)
        } else {
            engine.run(&config, &mut NoFaults, &mut trace)
        };
        (
            trace.events().cloned().collect(),
            engine.global().to_vec(),
            out.stats,
        )
    }

    #[test]
    fn incremental_scheduler_matches_full_rescan_exactly() {
        // The dirty-set scheduler must be observationally identical to the
        // reference full-rescan scheduler: same trace, same final state,
        // same stats — including under faults, which exercise commit drops
        // and lazy heap invalidation.
        let r = ring(7, 0.3);
        for seed in [11, 12, 13, 14] {
            for &rate in &[0.0, 0.4] {
                let (ev_inc, g_inc, s_inc) = faulted_run(&r, seed, rate, false);
                let (ev_full, g_full, s_full) = faulted_run(&r, seed, rate, true);
                assert_eq!(ev_inc, ev_full, "trace diverged (seed {seed}, rate {rate})");
                assert_eq!(g_inc, g_full, "state diverged (seed {seed}, rate {rate})");
                assert_eq!(s_inc.actions_executed, s_full.actions_executed);
                assert_eq!(s_inc.commits_dropped, s_full.commits_dropped);
                assert_eq!(s_inc.faults, s_full.faults);
                assert_eq!(s_inc.by_action, s_full.by_action);
            }
        }
    }

    #[test]
    fn set_state_wakes_incremental_scheduler() {
        // After a quiescent run, injecting state through set_state must
        // dirty-mark enough processes for the incremental scheduler to pick
        // the change up (a stale scheduler would report a false fixpoint).
        let r = ring(5, 1.0);
        let mut engine = Engine::new(&r, 9);
        let config = EngineConfig {
            max_time: Some(Time::new(3.5)),
            ..Default::default()
        };
        engine.run(&config, &mut NoFaults, &mut NullMonitor);
        let moved_before = engine.global().to_vec();
        engine.set_state(2, engine.global()[2] + 1); // forge a second token
        let out = engine.run(
            &EngineConfig {
                max_time: Some(Time::new(40.0)),
                ..Default::default()
            },
            &mut NoFaults,
            &mut NullMonitor,
        );
        assert!(out.stats.actions_executed > 0, "injected token was ignored");
        assert_eq!(tokens(&r, engine.global()), 1);
        assert_ne!(engine.global(), &moved_before[..]);
    }

    /// Nine distinct costs, zero included; sums of the binary fractions
    /// coincide, so commits from different lanes mature together.
    const LANE_COSTS: [f64; 9] = [0.0, 0.125, 0.25, 0.3, 0.5, 0.625, 0.75, 1.0, 1.5];

    /// A Dijkstra ring whose token holder may pass by either of two
    /// actions (an RNG choice), each with its own cost per pid.
    struct CostlyRing(DijkstraRing);

    impl Protocol for CostlyRing {
        type State = u64;
        fn num_processes(&self) -> usize {
            self.0.n
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            2
        }
        fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
            ["pass", "hand"][action]
        }
        fn enabled(&self, global: &[u64], pid: Pid, _action: ActionId) -> bool {
            self.0.enabled(global, pid, 0)
        }
        fn execute(&self, global: &[u64], pid: Pid, _action: ActionId, rng: &mut SimRng) -> u64 {
            self.0.execute(global, pid, 0, rng)
        }
        fn cost(&self, pid: Pid, action: ActionId) -> Time {
            Time::new(LANE_COSTS[(pid + action) % LANE_COSTS.len()])
        }
        fn initial_state(&self) -> Vec<u64> {
            self.0.initial_state()
        }
        fn arbitrary_state(&self, pid: Pid, rng: &mut SimRng) -> u64 {
            self.0.arbitrary_state(pid, rng)
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            self.0.readers_of(pid)
        }
    }

    #[test]
    fn many_cost_lanes_match_full_rescan_under_faults() {
        // 256 pids: a perturbed start dirties most of the ring (the bitmap
        // walk); forged tokens, injected in descending pid order between
        // two runs, dirty a few pids out of order (the sort).
        let r = CostlyRing(ring(256, 0.0));
        let run = |seed: u64, full_rescan: bool| {
            let mut engine = Engine::new(&r, seed);
            engine.perturb_all();
            let mut trace: Trace<u64> = Trace::unbounded();
            let mut faults = PoissonFaults::with_rate(0.5, VictimPolicy::Random, Scramble);
            let config = |horizon: f64| EngineConfig {
                seed,
                max_time: Some(Time::new(horizon)),
                max_commits: Some(200_000),
                full_rescan,
            };
            let first = engine.run(&config(30.0), &mut faults, &mut trace);
            for pid in [200, 120, 40] {
                engine.set_state(pid, engine.global()[pid - 1] + 1);
            }
            let second = engine.run(&config(60.0), &mut faults, &mut trace);
            let lanes = engine.lanes.len();
            let events: Vec<_> = trace.events().cloned().collect();
            (events, engine.global().to_vec(), [first, second], lanes)
        };
        for seed in [21, 22, 23] {
            let (ev_inc, g_inc, out_inc, lanes) = run(seed, false);
            let (ev_full, g_full, out_full, _) = run(seed, true);
            assert!(lanes >= 8, "only {lanes} lanes (seed {seed})");
            for out in &out_inc {
                assert_eq!(out.reason, StopReason::MaxTime, "seed {seed}");
                assert!(out.stats.faults > 0 && out.stats.commits_dropped > 0);
            }
            assert_eq!(ev_inc, ev_full, "trace diverged (seed {seed})");
            assert_eq!(g_inc, g_full, "state diverged (seed {seed})");
            assert_eq!(out_inc, out_full, "outcome diverged (seed {seed})");
        }
    }

    /// Three one-shot processes, each stepping once from 0 to 1: pid 0
    /// and pid 1 start enabled, pid 2 waits for pid 0.
    struct Chain;

    impl Protocol for Chain {
        type State = u8;
        fn num_processes(&self) -> usize {
            3
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            1
        }
        fn action_name(&self, _pid: Pid, _action: ActionId) -> &'static str {
            "step"
        }
        fn enabled(&self, g: &[u8], pid: Pid, _action: ActionId) -> bool {
            g[pid] == 0 && (pid != 2 || g[0] == 1)
        }
        fn execute(&self, _g: &[u8], _pid: Pid, _action: ActionId, _rng: &mut SimRng) -> u8 {
            1
        }
        fn cost(&self, pid: Pid, _action: ActionId) -> Time {
            Time::new([0.5, 1.0, 0.5][pid])
        }
        fn initial_state(&self) -> Vec<u8> {
            vec![0; 3]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u8 {
            rng.range_u64(0, 2) as u8
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            ReaderSet::These(if pid == 0 { vec![2] } else { vec![] })
        }
    }

    #[test]
    fn equal_time_commits_from_two_lanes_run_in_pid_order() {
        // At t = 1.0 pid 2's commit (made at 0.5, in the 0.5 lane, which
        // pid 0 opened first) and pid 1's (made at 0, in the 1.0 lane)
        // mature together: the batch runs pid 1 before pid 2.
        for full_rescan in [false, true] {
            let mut engine = Engine::new(&Chain, 1);
            let mut trace: Trace<u8> = Trace::unbounded();
            let config = EngineConfig {
                full_rescan,
                ..Default::default()
            };
            let out = engine.run(&config, &mut NoFaults, &mut trace);
            assert_eq!(out.reason, StopReason::Fixpoint);
            assert_eq!(engine.lanes[0].cost, Time::new(0.5));
            let order: Vec<(f64, Pid)> = trace
                .events()
                .map(|e| (e.time().as_f64(), e.pid()))
                .collect();
            assert_eq!(order, [(0.5, 0), (1.0, 1), (1.0, 2)]);
        }
    }

    /// One process: `slow` (cost 1.0) from state 0, `fast` (cost 0.5)
    /// from state 5; either ends in state 9.
    struct TwoSpeeds;

    impl Protocol for TwoSpeeds {
        type State = u64;
        fn num_processes(&self) -> usize {
            1
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            2
        }
        fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
            ["slow", "fast"][action]
        }
        fn enabled(&self, g: &[u64], _pid: Pid, action: ActionId) -> bool {
            g[0] == [0, 5][action]
        }
        fn execute(&self, _g: &[u64], _pid: Pid, _action: ActionId, _rng: &mut SimRng) -> u64 {
            9
        }
        fn cost(&self, _pid: Pid, action: ActionId) -> Time {
            Time::new([1.0, 0.5][action])
        }
        fn initial_state(&self) -> Vec<u64> {
            vec![0]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, 10)
        }
        fn readers_of(&self, _pid: Pid) -> ReaderSet {
            ReaderSet::These(vec![])
        }
    }

    struct SetTo(u64);
    impl FaultAction<u64> for SetTo {
        fn kind(&self) -> FaultKind {
            FaultKind::Detectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, _rng: &mut SimRng) {
            *state = self.0;
        }
    }

    #[test]
    fn aborted_commit_rescheduled_for_the_same_instant_executes_once() {
        // `slow` commits at 0 for 1.0. A fault aborts it and the process
        // commits again for 1.0: at t = 0 into the same lane (state kept),
        // or at t = 0.5 into the `fast` lane (state set to 5). The stale
        // entry then looks live too, and the step must still run once.
        for (fault_at, state, action) in [(0.0, 0, 0), (0.5, 5, 1)] {
            for full_rescan in [false, true] {
                let mut engine = Engine::new(&TwoSpeeds, 1);
                let mut trace: Trace<u64> = Trace::unbounded();
                let mut faults = ScriptedFaults::new(vec![ScriptedFault {
                    at: Time::new(fault_at),
                    pid: 0,
                    action: Box::new(SetTo(state)) as Box<dyn FaultAction<u64>>,
                }]);
                let config = EngineConfig {
                    full_rescan,
                    ..Default::default()
                };
                let out = engine.run(&config, &mut faults, &mut trace);
                assert_eq!(out.reason, StopReason::Fixpoint);
                assert_eq!(out.stats.faults, 1);
                assert_eq!(out.stats.actions_executed, 1, "fault at {fault_at}");
                assert_eq!(out.stats.commits_dropped, 0);
                assert_eq!(out.stats.elapsed, Time::new(1.0));
                let steps: Vec<_> = trace
                    .events()
                    .filter_map(|e| match e {
                        crate::trace::TraceEvent::Transition { now, action, .. } => {
                            Some((*now, *action))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(steps, [(Time::new(1.0), action)]);
            }
        }
    }

    #[test]
    fn a_horizon_behind_the_clock_does_not_rewind_it() {
        let r = ring(5, 1.0);
        let mut engine = Engine::new(&r, 8);
        let horizon = |t: f64| EngineConfig {
            max_time: Some(Time::new(t)),
            ..Default::default()
        };
        engine.run(&horizon(10.5), &mut NoFaults, &mut NullMonitor);
        let out = engine.run(&horizon(4.0), &mut NoFaults, &mut NullMonitor);
        assert_eq!(out.reason, StopReason::MaxTime);
        assert_eq!(engine.now(), Time::new(10.5));
        let out = engine.run(&horizon(20.5), &mut NoFaults, &mut NullMonitor);
        assert_eq!(out.stats.actions_executed, 10);
        assert_eq!(tokens(&r, engine.global()), 1);
    }

    #[test]
    fn histogram_matches_dense_counter_fold() {
        let r = ring(4, 1.0);
        let mut engine = Engine::new(&r, 6);
        let config = EngineConfig {
            max_commits: Some(9),
            ..Default::default()
        };
        let out = engine.run(&config, &mut NoFaults, &mut NullMonitor);
        let total: u64 = out.stats.by_action.values().sum();
        assert_eq!(total, out.stats.actions_executed);
        assert_eq!(
            out.stats.count_of("bottom") + out.stats.count_of("other"),
            9
        );
    }
}
