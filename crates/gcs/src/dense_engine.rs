//! Sharded timed engine over struct-of-arrays state.
//!
//! [`DenseEngine`] is the [`crate::engine::Engine`] rebuilt for scale: the
//! global state lives in a [`DenseState`] (typically parallel flat arrays),
//! and the pid range is partitioned into contiguous **shards**, each owning
//! its own dirty set, commit heap, and scratch buffers. One round of the
//! event loop runs four phases:
//!
//! 1. **Schedule** — every shard with dirty pids re-evaluates guards and
//!    commits single-enabled actions locally. Multi-enabled pids are *not*
//!    resolved here: their candidate sets are parked in a per-shard buffer.
//! 2. **Resolve** — the coordinator walks shards in ascending order and
//!    draws every parked nondeterministic choice from the single *control*
//!    RNG stream, in ascending pid order.
//! 3. **Commit** — the earliest maturing commit time is the min over the
//!    per-shard heaps; every shard due at that instant pops its equal-time
//!    batch and computes updates against the pre-step state.
//! 4. **Apply/merge** — the coordinator applies all writes, then fires
//!    monitor callbacks shard-by-shard in ascending order.
//!
//! # Determinism
//!
//! The committed trace is **byte-identical to the classic serial engine for
//! any worker count**, and this is what the differential test suite pins:
//!
//! * Shards are contiguous ascending pid ranges, and each shard's heap pops
//!   equal-time entries in ascending pid order, so concatenating due shards
//!   in index order reproduces the classic engine's global ascending batch.
//! * All nondeterminism the classic engine feeds from its single RNG —
//!   multi-enabled action choices, fault arrival/victim draws, and
//!   [`DenseEngine::perturb_all`] — is fed from one *control* stream seeded
//!   exactly like `Engine::new`, consumed in the classic engine's order.
//!   Deferring choice draws to the resolve phase is sound because
//!   single-enabled commits draw nothing, so the draw sequence is the
//!   ascending multi-enabled pids either way.
//! * Each shard additionally owns an *execution* RNG (seeded from the root
//!   seed plus the shard id) used only for statement draws. Every protocol
//!   in this repository has deterministic statements, so classic and dense
//!   runs match exactly; a protocol with randomized statements would still
//!   be deterministic across worker counts (the stream depends on the shard
//!   partition, not on which thread runs it).
//! * Worker threads only ever run the embarrassingly parallel phases
//!   (schedule, commit) on disjoint shards behind barriers; every
//!   cross-shard effect (choice resolution, fault injection, write
//!   application, monitor callbacks, dirty marks) happens on the
//!   coordinator between barriers. Whether a phase runs inline or on
//!   workers is a pure routing decision (`parallel_threshold`) with no
//!   observable effect.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use crate::dense::{DenseFaultPlan, DenseMonitor, DenseProtocol, DenseState};
use crate::engine::{RunOutcome, StopReason};
use crate::protocol::{ActionId, Pid, ReaderSet};
use crate::rng::SimRng;
use crate::stats::RunStats;
use crate::time::Time;
use crate::workers;

/// Configuration of a [`DenseEngine`] run. Mirrors
/// [`crate::engine::EngineConfig`] plus the sharding knobs.
#[derive(Debug, Clone)]
pub struct DenseEngineConfig {
    /// Stop when simulation time reaches this horizon.
    pub max_time: Option<Time>,
    /// Stop after this many committed actions.
    pub max_commits: Option<u64>,
    /// Force the reference scheduler that rescans every guard after every
    /// event. Byte-identical to the incremental scheduler; for tests.
    pub full_rescan: bool,
    /// Worker threads. `Some(1)` (the default) runs everything on the
    /// calling thread; `None` resolves via [`workers::worker_count`]
    /// (honoring `FTBARRIER_WORKERS`). Always clamped to the shard count.
    pub workers: Option<usize>,
    /// Minimum number of shards with work in a phase before that phase is
    /// dispatched to workers instead of run inline; purely a routing
    /// decision, results are identical either way.
    pub parallel_threshold: usize,
}

impl Default for DenseEngineConfig {
    fn default() -> Self {
        DenseEngineConfig {
            max_time: None,
            max_commits: Some(100_000_000),
            full_rescan: false,
            workers: Some(1),
            parallel_threshold: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    action: ActionId,
    at: Time,
}

/// Flat CSR form of the reader table: `dat[off[q]..off[q+1]]` are the sorted
/// pids whose guards read q's state (including q itself).
struct ReaderCsr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

/// Work-queue item broadcast to workers between barriers.
#[derive(Debug, Clone, Copy)]
enum Job {
    Idle,
    Schedule { now: Time },
    Commit { at: Time },
    Exit,
}

/// One contiguous pid range with its own scheduling state. All per-pid
/// vectors are indexed by `pid - lo`.
struct Shard<P: DenseProtocol> {
    lo: Pid,
    hi: Pid,
    pending: Vec<Option<Pending>>,
    commits: BinaryHeap<Reverse<(Time, Pid)>>,
    dirty_flag: Vec<bool>,
    dirty_list: Vec<Pid>,
    /// Statement-draw stream for this shard (root seed + shard id).
    exec_rng: SimRng,
    /// Multi-enabled pids found by the last schedule pass, with their
    /// candidate actions parked in `choice_buf[off..off+len]`, awaiting a
    /// control-stream draw by the coordinator.
    choices: Vec<(Pid, u32, u32)>,
    choice_buf: Vec<ActionId>,
    batch: Vec<Pid>,
    updates: Vec<(Pid, ActionId, P::State)>,
    dropped: Vec<Pid>,
    scratch: Vec<ActionId>,
}

impl<P: DenseProtocol> Shard<P> {
    fn new(lo: Pid, hi: Pid, exec_seed: u64) -> Self {
        let size = hi - lo;
        Shard {
            lo,
            hi,
            pending: vec![None; size],
            commits: BinaryHeap::with_capacity(size),
            dirty_flag: vec![false; size],
            dirty_list: Vec::with_capacity(size),
            exec_rng: SimRng::seed_from_u64(exec_seed),
            choices: Vec::new(),
            choice_buf: Vec::new(),
            batch: Vec::new(),
            updates: Vec::new(),
            dropped: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Dirty-mark `pid`; returns true iff the dirty list just became
    /// non-empty (the caller then registers the shard as active).
    fn mark(&mut self, pid: Pid) -> bool {
        let i = pid - self.lo;
        if self.dirty_flag[i] {
            return false;
        }
        self.dirty_flag[i] = true;
        self.dirty_list.push(pid);
        self.dirty_list.len() == 1
    }

    fn clear_pending(&mut self, pid: Pid) {
        self.pending[pid - self.lo] = None;
    }

    /// Schedule commits for idle dirty pids (or every pid when
    /// `!incremental`), in ascending pid order — same order, and hence same
    /// deferred-choice sequence, as the classic engine.
    fn schedule(&mut self, protocol: &P, dense: &P::Dense, now: Time, incremental: bool) {
        self.choices.clear();
        self.choice_buf.clear();
        if incremental {
            self.dirty_list.sort_unstable();
            let mut i = 0;
            while i < self.dirty_list.len() {
                let pid = self.dirty_list[i];
                i += 1;
                self.dirty_flag[pid - self.lo] = false;
                if self.pending[pid - self.lo].is_none() {
                    self.try_commit(protocol, dense, now, pid);
                }
            }
            self.dirty_list.clear();
        } else {
            for pid in self.lo..self.hi {
                self.dirty_flag[pid - self.lo] = false;
                if self.pending[pid - self.lo].is_none() {
                    self.try_commit(protocol, dense, now, pid);
                }
            }
            self.dirty_list.clear();
        }
    }

    fn try_commit(&mut self, protocol: &P, dense: &P::Dense, now: Time, pid: Pid) {
        protocol.dense_enabled_actions(dense, pid, &mut self.scratch);
        match self.scratch.len() {
            0 => {}
            1 => {
                let action = self.scratch[0];
                let at = now + protocol.cost(pid, action);
                self.pending[pid - self.lo] = Some(Pending { action, at });
                self.commits.push(Reverse((at, pid)));
            }
            len => {
                // Park the candidate set; the coordinator draws from the
                // control stream in global ascending pid order.
                let off = self.choice_buf.len() as u32;
                self.choice_buf.extend_from_slice(&self.scratch);
                self.choices.push((pid, off, len as u32));
            }
        }
    }

    /// Earliest live commit, discarding stale heap entries from the top.
    fn earliest(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, pid))) = self.commits.peek() {
            if matches!(self.pending[pid - self.lo], Some(p) if p.at == at) {
                return Some(at);
            }
            self.commits.pop();
        }
        None
    }

    /// Pop the equal-time batch maturing at `at`; returns its size.
    fn pop_batch(&mut self, at: Time) -> usize {
        self.batch.clear();
        while let Some(&Reverse((t, pid))) = self.commits.peek() {
            if t != at {
                break;
            }
            self.commits.pop();
            if matches!(self.pending[pid - self.lo], Some(p) if p.at == t) {
                self.batch.push(pid);
            }
        }
        self.batch.len()
    }

    /// Re-check guards and compute updates for the popped batch against the
    /// pre-step state. Guard failures land in `dropped`.
    fn compute(&mut self, protocol: &P, dense: &P::Dense) {
        self.updates.clear();
        self.dropped.clear();
        let mut i = 0;
        while i < self.batch.len() {
            let pid = self.batch[i];
            i += 1;
            let Some(p) = self.pending[pid - self.lo].take() else {
                continue; // duplicate heap entry already consumed
            };
            if protocol.dense_enabled(dense, pid, p.action) {
                let new = protocol.dense_execute(dense, pid, p.action, &mut self.exec_rng);
                self.updates.push((pid, p.action, new));
            } else {
                self.dropped.push(pid);
            }
        }
    }
}

fn shard_of(starts: &[Pid], pid: Pid) -> usize {
    starts.partition_point(|&s| s <= pid) - 1
}

fn min_opt(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.min(y)),
    }
}

fn mark_stale(stale: &mut Vec<usize>, stale_flag: &mut [bool], s: usize) {
    if !stale_flag[s] {
        stale_flag[s] = true;
        stale.push(s);
    }
}

fn mark_pid<P: DenseProtocol>(
    shards: &mut [Shard<P>],
    starts: &[Pid],
    active: &mut Vec<usize>,
    active_flag: &mut [bool],
    pid: Pid,
) {
    let s = shard_of(starts, pid);
    if shards[s].mark(pid) && !active_flag[s] {
        active_flag[s] = true;
        active.push(s);
    }
}

fn mark_readers<P: DenseProtocol>(
    readers: Option<&ReaderCsr>,
    shards: &mut [Shard<P>],
    starts: &[Pid],
    active: &mut Vec<usize>,
    active_flag: &mut [bool],
    pid: Pid,
) {
    let Some(csr) = readers else { return };
    let lo = csr.off[pid] as usize;
    let hi = csr.off[pid + 1] as usize;
    for i in lo..hi {
        let r = csr.dat[i] as usize;
        let s = shard_of(starts, r);
        if shards[s].mark(r) && !active_flag[s] {
            active_flag[s] = true;
            active.push(s);
        }
    }
}

fn mark_pid_locked<P: DenseProtocol>(
    cells: &[Mutex<&mut Shard<P>>],
    starts: &[Pid],
    active: &mut Vec<usize>,
    active_flag: &mut [bool],
    pid: Pid,
) {
    let s = shard_of(starts, pid);
    if cells[s].lock().unwrap().mark(pid) && !active_flag[s] {
        active_flag[s] = true;
        active.push(s);
    }
}

fn mark_readers_locked<P: DenseProtocol>(
    readers: Option<&ReaderCsr>,
    cells: &[Mutex<&mut Shard<P>>],
    starts: &[Pid],
    active: &mut Vec<usize>,
    active_flag: &mut [bool],
    pid: Pid,
) {
    let Some(csr) = readers else { return };
    let lo = csr.off[pid] as usize;
    let hi = csr.off[pid + 1] as usize;
    for i in lo..hi {
        mark_pid_locked(cells, starts, active, active_flag, csr.dat[i] as usize);
    }
}

/// Draw every parked choice of one shard from the control stream (ascending
/// pid within the shard; the caller walks shards in ascending order).
fn resolve_choices<P: DenseProtocol>(
    protocol: &P,
    shard: &mut Shard<P>,
    control: &mut SimRng,
    now: Time,
) {
    let mut i = 0;
    while i < shard.choices.len() {
        let (pid, off, len) = shard.choices[i];
        i += 1;
        let action = *control.choose(&shard.choice_buf[off as usize..(off + len) as usize]);
        let at = now + protocol.cost(pid, action);
        shard.pending[pid - shard.lo] = Some(Pending { action, at });
        shard.commits.push(Reverse((at, pid)));
    }
    shard.choices.clear();
    shard.choice_buf.clear();
}

/// Swap each update's new state in; the slot then holds the *old* state for
/// the monitor callbacks.
fn apply_writes<P: DenseProtocol>(dense: &mut P::Dense, updates: &mut [(Pid, ActionId, P::State)]) {
    for u in updates.iter_mut() {
        let old = dense.get(u.0);
        dense.set(u.0, u.2);
        u.2 = old;
    }
}

/// Fire monitor callbacks and count actions for one shard's applied updates.
#[allow(clippy::too_many_arguments)]
fn notify_shard<P: DenseProtocol>(
    protocol: &P,
    dense: &P::Dense,
    updates: &[(Pid, ActionId, P::State)],
    now: Time,
    action_counts: &mut [u64],
    action_offsets: &[usize],
    stats: &mut RunStats,
    monitor: &mut dyn DenseMonitor<P>,
) {
    for u in updates {
        let (pid, action) = (u.0, u.1);
        let old = &u.2;
        action_counts[action_offsets[pid] + action] += 1;
        stats.actions_executed += 1;
        let name = protocol.action_name(pid, action);
        let new = dense.get(pid);
        monitor.on_transition(now, pid, action, name, old, &new, dense);
    }
}

fn exec_seed(seed: u64, shard: u64) -> u64 {
    (seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(shard.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Default shard count: serial below 4096 pids (a single shard is exactly
/// the classic engine's bookkeeping), then roughly one shard per 16k pids,
/// capped at 64. Deterministic in `n` only — never a function of the worker
/// count, so the shard partition (and with it any statement-draw stream) is
/// machine-independent.
fn auto_shards(n: usize) -> usize {
    if n < 4096 {
        1
    } else {
        (n / 16384 + 1).min(64)
    }
}

/// The sharded struct-of-arrays engine. See the module docs for the round
/// structure and the determinism argument.
pub struct DenseEngine<'p, P: DenseProtocol> {
    protocol: &'p P,
    dense: P::Dense,
    n: usize,
    seed: u64,
    now: Time,
    /// The classic engine's RNG: choices, fault draws, perturbations.
    control: SimRng,
    shards: Vec<Shard<P>>,
    /// Shard boundaries: `shards[s]` owns `starts[s]..starts[s+1]`.
    starts: Vec<Pid>,
    readers: Option<ReaderCsr>,
    /// Shards with non-empty dirty lists (list + flag, like the dirty set).
    active: Vec<usize>,
    active_flag: Vec<bool>,
    /// Cached earliest live commit per shard, recomputed only for shards
    /// whose heap or pending slots changed since the last round.
    next_at: Vec<Option<Time>>,
    stale: Vec<usize>,
    stale_flag: Vec<bool>,
    /// Scratch: shards due at the current event time / scheduled this round.
    due: Vec<usize>,
    scheduled: Vec<usize>,
    touched: Vec<Pid>,
    action_counts: Vec<u64>,
    action_offsets: Vec<usize>,
}

impl<'p, P: DenseProtocol> DenseEngine<'p, P> {
    pub fn new(protocol: &'p P, seed: u64) -> Self {
        let states = protocol.initial_state();
        Self::from_state(protocol, seed, states)
    }

    pub fn from_state(protocol: &'p P, seed: u64, states: Vec<P::State>) -> Self {
        assert_eq!(states.len(), protocol.num_processes());
        let n = states.len();

        let mut off = Vec::with_capacity(n + 1);
        let mut dat = Vec::new();
        off.push(0u32);
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
                    dat.extend(readers.iter().map(|&r| r as u32));
                    off.push(dat.len() as u32);
                }
            }
        }

        let mut action_offsets = Vec::with_capacity(n);
        let mut total_actions = 0;
        for pid in 0..n {
            action_offsets.push(total_actions);
            total_actions += protocol.num_actions(pid);
        }

        let mut engine = DenseEngine {
            protocol,
            dense: P::Dense::from_states(&states),
            n,
            seed,
            now: Time::ZERO,
            control: SimRng::seed_from_u64(seed),
            shards: Vec::new(),
            starts: Vec::new(),
            readers: complete.then_some(ReaderCsr { off, dat }),
            active: Vec::new(),
            active_flag: Vec::new(),
            next_at: Vec::new(),
            stale: Vec::new(),
            stale_flag: Vec::new(),
            due: Vec::new(),
            scheduled: Vec::new(),
            touched: Vec::new(),
            action_counts: vec![0; total_actions],
            action_offsets,
        };
        engine.build_shards(auto_shards(n));
        engine
    }

    /// Repartition into `count` contiguous shards (clamped to `1..=n`).
    /// Resets scheduling state; call before running.
    pub fn with_shards(mut self, count: usize) -> Self {
        self.build_shards(count);
        self
    }

    fn build_shards(&mut self, count: usize) {
        let count = count.clamp(1, self.n.max(1));
        let q = self.n / count;
        let rem = self.n % count;
        self.shards.clear();
        self.starts.clear();
        self.starts.push(0);
        let mut lo = 0;
        for s in 0..count {
            let hi = lo + q + usize::from(s < rem);
            self.shards
                .push(Shard::new(lo, hi, exec_seed(self.seed, s as u64)));
            self.starts.push(hi);
            lo = hi;
        }
        debug_assert_eq!(lo, self.n);
        self.active.clear();
        self.active_flag = vec![false; count];
        self.next_at = vec![None; count];
        self.stale.clear();
        self.stale_flag = vec![false; count];
        self.due.clear();
        self.scheduled.clear();
        for s in 0..count {
            let shard = &mut self.shards[s];
            for pid in shard.lo..shard.hi {
                shard.mark(pid);
            }
            if shard.lo < shard.hi {
                self.active_flag[s] = true;
                self.active.push(s);
            }
            self.stale_flag[s] = true;
            self.stale.push(s);
        }
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn dense(&self) -> &P::Dense {
        &self.dense
    }

    /// Unpack the global state into the array-of-structs form.
    pub fn global_states(&self) -> Vec<P::State> {
        self.dense.to_states()
    }

    /// The control RNG (the classic engine's `rng()`).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.control
    }

    pub fn set_state(&mut self, pid: Pid, state: P::State) {
        self.dense.set(pid, state);
        let s = shard_of(&self.starts, pid);
        self.shards[s].clear_pending(pid);
        mark_stale(&mut self.stale, &mut self.stale_flag, s);
        mark_readers(
            self.readers.as_ref(),
            &mut self.shards,
            &self.starts,
            &mut self.active,
            &mut self.active_flag,
            pid,
        );
        mark_pid(
            &mut self.shards,
            &self.starts,
            &mut self.active,
            &mut self.active_flag,
            pid,
        );
    }

    /// Replace every process's state with an arbitrary domain value, drawing
    /// from the control stream in ascending pid order — the identical draws
    /// the classic engine's `perturb_all` makes.
    pub fn perturb_all(&mut self) {
        for pid in 0..self.n {
            let state = self.protocol.arbitrary_state(pid, &mut self.control);
            self.dense.set(pid, state);
        }
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            for slot in shard.pending.iter_mut() {
                *slot = None;
            }
            for pid in shard.lo..shard.hi {
                shard.mark(pid);
            }
            if !self.active_flag[s] && self.shards[s].lo < self.shards[s].hi {
                self.active_flag[s] = true;
                self.active.push(s);
            }
            mark_stale(&mut self.stale, &mut self.stale_flag, s);
        }
    }

    /// Run until a stop condition; the dense counterpart of
    /// [`crate::engine::Engine::run`].
    pub fn run(
        &mut self,
        config: &DenseEngineConfig,
        faults: &mut dyn DenseFaultPlan<P::Dense>,
        monitor: &mut dyn DenseMonitor<P>,
    ) -> RunOutcome {
        let requested = match config.workers {
            Some(w) => {
                assert!(w >= 1, "DenseEngineConfig.workers must be >= 1");
                w
            }
            None => workers::worker_count(),
        };
        let worker_n = requested.min(self.shards.len());
        self.action_counts.fill(0);
        let (reason, mut stats) = if worker_n <= 1 {
            self.run_serial(config, faults, monitor)
        } else {
            self.run_parallel(config, worker_n, faults, monitor)
        };
        stats.elapsed = self.now;
        for pid in 0..self.n {
            for a in 0..self.protocol.num_actions(pid) {
                let count = self.action_counts[self.action_offsets[pid] + a];
                if count > 0 {
                    stats.add_action_count(self.protocol.action_name(pid, a), count);
                }
            }
        }
        RunOutcome { reason, stats }
    }

    fn run_serial(
        &mut self,
        config: &DenseEngineConfig,
        faults: &mut dyn DenseFaultPlan<P::Dense>,
        monitor: &mut dyn DenseMonitor<P>,
    ) -> (StopReason, RunStats) {
        let incremental = self.readers.is_some() && !config.full_rescan;
        let mut stats = RunStats::default();
        let DenseEngine {
            protocol,
            dense,
            shards,
            starts,
            readers,
            active,
            active_flag,
            next_at,
            stale,
            stale_flag,
            due,
            scheduled,
            touched,
            action_counts,
            action_offsets,
            control,
            now,
            ..
        } = self;
        let protocol: &P = protocol;
        let readers = readers.as_ref();
        let s_count = shards.len();
        let mut drop_scratch: Vec<Pid> = Vec::new();
        let mut writer_scratch: Vec<Pid> = Vec::new();

        let reason = 'run: loop {
            // Phase 1: schedule. Only shards with dirty pids have work;
            // cross-shard order is irrelevant because draws are deferred.
            scheduled.clear();
            if incremental {
                std::mem::swap(active, scheduled);
                for &s in scheduled.iter() {
                    active_flag[s] = false;
                }
                for &s in scheduled.iter() {
                    shards[s].schedule(protocol, dense, *now, true);
                    mark_stale(stale, stale_flag, s);
                }
            } else {
                scheduled.extend(0..s_count);
                for &s in active.iter() {
                    active_flag[s] = false;
                }
                active.clear();
                for &s in scheduled.iter() {
                    shards[s].schedule(protocol, dense, *now, false);
                    mark_stale(stale, stale_flag, s);
                }
            }

            // Phase 2: resolve parked choices in global ascending pid order.
            scheduled.sort_unstable();
            for &s in scheduled.iter() {
                if !shards[s].choices.is_empty() {
                    resolve_choices(protocol, &mut shards[s], control, *now);
                }
            }

            // Refresh the per-shard earliest-commit cache.
            for &s in stale.iter() {
                next_at[s] = shards[s].earliest();
            }
            for &s in stale.iter() {
                stale_flag[s] = false;
            }
            stale.clear();
            let mut next_commit: Option<Time> = None;
            for &at in next_at.iter().take(s_count) {
                next_commit = min_opt(next_commit, at);
            }

            let next_fault = faults.peek(*now, control);

            let next_event = match (next_commit, next_fault) {
                (None, None) => break 'run StopReason::Fixpoint,
                (Some(c), None) => c,
                (None, Some(f)) => f,
                (Some(c), Some(f)) => c.min(f),
            };

            if let Some(horizon) = config.max_time {
                if next_event > horizon {
                    // Never backwards, as in the classic engine.
                    *now = (*now).max(horizon);
                    break 'run StopReason::MaxTime;
                }
            }
            *now = (*now).max(next_event);

            if let Some(f) = next_fault {
                if f <= next_event {
                    touched.clear();
                    let hit = faults.fire(f, dense, control, touched);
                    let vs = shard_of(starts, hit.pid);
                    shards[vs].clear_pending(hit.pid);
                    mark_stale(stale, stale_flag, vs);
                    for &p in touched.iter() {
                        mark_readers(readers, shards, starts, active, active_flag, p);
                    }
                    mark_pid(shards, starts, active, active_flag, hit.pid);
                    stats.faults += 1;
                    let new = dense.get(hit.pid);
                    monitor.on_fault(*now, hit.pid, hit.kind, &hit.old, &new, dense);
                    if monitor.should_stop() {
                        break 'run StopReason::MonitorStop;
                    }
                    continue;
                }
            }

            // Phase 3: pop and compute the equal-time batch, shard by shard.
            due.clear();
            let mut batch_total = 0;
            for s in 0..s_count {
                if next_at[s] == Some(next_event) {
                    let popped = shards[s].pop_batch(next_event);
                    mark_stale(stale, stale_flag, s);
                    if popped > 0 {
                        due.push(s);
                        batch_total += popped;
                    }
                }
            }
            debug_assert!(batch_total > 0, "an event time with no commits");
            for &s in due.iter() {
                shards[s].compute(protocol, dense);
            }

            // Phase 4: apply all writes, then fire callbacks in ascending
            // shard (= ascending pid) order, exactly like the classic apply.
            for &s in due.iter() {
                apply_writes::<P>(dense, &mut shards[s].updates);
            }
            for &s in due.iter() {
                let updates = std::mem::take(&mut shards[s].updates);
                notify_shard(
                    protocol,
                    dense,
                    &updates,
                    *now,
                    action_counts,
                    action_offsets,
                    &mut stats,
                    monitor,
                );
                shards[s].updates = updates;
            }
            drop_scratch.clear();
            writer_scratch.clear();
            for &s in due.iter() {
                drop_scratch.extend_from_slice(&shards[s].dropped);
                writer_scratch.extend(shards[s].updates.iter().map(|u| u.0));
            }
            for &pid in drop_scratch.iter() {
                stats.commits_dropped += 1;
                mark_pid(shards, starts, active, active_flag, pid);
            }
            for &pid in writer_scratch.iter() {
                mark_readers(readers, shards, starts, active, active_flag, pid);
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
        (reason, stats)
    }

    fn run_parallel(
        &mut self,
        config: &DenseEngineConfig,
        worker_n: usize,
        faults: &mut dyn DenseFaultPlan<P::Dense>,
        monitor: &mut dyn DenseMonitor<P>,
    ) -> (StopReason, RunStats) {
        let incremental = self.readers.is_some() && !config.full_rescan;
        let threshold = config.parallel_threshold.max(1);
        let mut stats = RunStats::default();
        let DenseEngine {
            protocol,
            dense,
            shards,
            starts,
            readers,
            active,
            active_flag,
            next_at,
            stale,
            stale_flag,
            due,
            scheduled,
            touched,
            action_counts,
            action_offsets,
            control,
            now,
            ..
        } = self;
        let protocol: &P = protocol;
        let readers = readers.as_ref();
        let starts: &[Pid] = starts;
        let s_count = shards.len();
        let mut drop_scratch: Vec<Pid> = Vec::new();
        let mut writer_scratch: Vec<Pid> = Vec::new();

        let cells: Vec<Mutex<&mut Shard<P>>> = shards.iter_mut().map(Mutex::new).collect();
        let dense_cell: RwLock<&mut P::Dense> = RwLock::new(dense);
        let job = Mutex::new(Job::Idle);
        let start_gate = Barrier::new(worker_n + 1);
        let done_gate = Barrier::new(worker_n + 1);
        let poisoned = AtomicBool::new(false);

        let reason = std::thread::scope(|scope| {
            for w in 0..worker_n {
                let cells = &cells;
                let dense_cell = &dense_cell;
                let job = &job;
                let start_gate = &start_gate;
                let done_gate = &done_gate;
                let poisoned = &poisoned;
                scope.spawn(move || loop {
                    start_gate.wait();
                    let j = *job.lock().unwrap();
                    if matches!(j, Job::Exit) {
                        break;
                    }
                    let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let dense_guard = dense_cell.read().unwrap();
                        let dense: &P::Dense = &dense_guard;
                        for s in (w..cells.len()).step_by(worker_n) {
                            let mut shard = cells[s].lock().unwrap();
                            match j {
                                Job::Schedule { now } => {
                                    if !incremental || !shard.dirty_list.is_empty() {
                                        shard.schedule(protocol, dense, now, incremental);
                                    }
                                }
                                Job::Commit { at } => {
                                    if shard.pop_batch(at) > 0 {
                                        shard.compute(protocol, dense);
                                    } else {
                                        shard.updates.clear();
                                        shard.dropped.clear();
                                    }
                                }
                                Job::Idle | Job::Exit => {}
                            }
                        }
                    }));
                    if res.is_err() {
                        poisoned.store(true, Ordering::SeqCst);
                    }
                    done_gate.wait();
                });
            }

            let round = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let dispatch = |j: Job| {
                    *job.lock().unwrap() = j;
                    start_gate.wait();
                    done_gate.wait();
                    if poisoned.load(Ordering::SeqCst) {
                        panic!("a worker thread panicked; aborting the run");
                    }
                };

                'run: loop {
                    // Phase 1: schedule — on workers when enough shards have
                    // work, inline otherwise (identical results either way).
                    scheduled.clear();
                    if incremental {
                        std::mem::swap(active, scheduled);
                        for &s in scheduled.iter() {
                            active_flag[s] = false;
                        }
                    } else {
                        scheduled.extend(0..s_count);
                        for &s in active.iter() {
                            active_flag[s] = false;
                        }
                        active.clear();
                    }
                    if scheduled.len() >= threshold {
                        dispatch(Job::Schedule { now: *now });
                    } else {
                        let dense_guard = dense_cell.read().unwrap();
                        for &s in scheduled.iter() {
                            cells[s].lock().unwrap().schedule(
                                protocol,
                                &dense_guard,
                                *now,
                                incremental,
                            );
                        }
                    }
                    for &s in scheduled.iter() {
                        mark_stale(stale, stale_flag, s);
                    }

                    // Phase 2: resolve choices in global ascending pid order.
                    scheduled.sort_unstable();
                    for &s in scheduled.iter() {
                        let mut shard = cells[s].lock().unwrap();
                        if !shard.choices.is_empty() {
                            resolve_choices(protocol, &mut shard, control, *now);
                        }
                    }

                    for &s in stale.iter() {
                        next_at[s] = cells[s].lock().unwrap().earliest();
                    }
                    for &s in stale.iter() {
                        stale_flag[s] = false;
                    }
                    stale.clear();
                    let mut next_commit: Option<Time> = None;
                    for &at in next_at.iter().take(s_count) {
                        next_commit = min_opt(next_commit, at);
                    }

                    let next_fault = faults.peek(*now, control);

                    let next_event = match (next_commit, next_fault) {
                        (None, None) => break 'run StopReason::Fixpoint,
                        (Some(c), None) => c,
                        (None, Some(f)) => f,
                        (Some(c), Some(f)) => c.min(f),
                    };

                    if let Some(horizon) = config.max_time {
                        if next_event > horizon {
                            *now = (*now).max(horizon);
                            break 'run StopReason::MaxTime;
                        }
                    }
                    *now = (*now).max(next_event);

                    if let Some(f) = next_fault {
                        if f <= next_event {
                            touched.clear();
                            let hit = {
                                let mut dense_guard = dense_cell.write().unwrap();
                                faults.fire(f, &mut dense_guard, control, touched)
                            };
                            let vs = shard_of(starts, hit.pid);
                            cells[vs].lock().unwrap().clear_pending(hit.pid);
                            mark_stale(stale, stale_flag, vs);
                            for &p in touched.iter() {
                                mark_readers_locked(
                                    readers,
                                    &cells,
                                    starts,
                                    active,
                                    active_flag,
                                    p,
                                );
                            }
                            mark_pid_locked(&cells, starts, active, active_flag, hit.pid);
                            stats.faults += 1;
                            {
                                let dense_guard = dense_cell.read().unwrap();
                                let new = dense_guard.get(hit.pid);
                                monitor.on_fault(
                                    *now,
                                    hit.pid,
                                    hit.kind,
                                    &hit.old,
                                    &new,
                                    &dense_guard,
                                );
                            }
                            if monitor.should_stop() {
                                break 'run StopReason::MonitorStop;
                            }
                            continue;
                        }
                    }

                    // Phase 3: pop + compute the batch. Workers visit all
                    // their shards; non-due shards pop nothing.
                    due.clear();
                    for (s, &at) in next_at.iter().enumerate().take(s_count) {
                        if at == Some(next_event) {
                            due.push(s);
                            mark_stale(stale, stale_flag, s);
                        }
                    }
                    debug_assert!(!due.is_empty(), "an event time with no commits");
                    if due.len() >= threshold {
                        dispatch(Job::Commit { at: next_event });
                    } else {
                        let dense_guard = dense_cell.read().unwrap();
                        for &s in due.iter() {
                            let mut shard = cells[s].lock().unwrap();
                            if shard.pop_batch(next_event) > 0 {
                                shard.compute(protocol, &dense_guard);
                            } else {
                                shard.updates.clear();
                                shard.dropped.clear();
                            }
                        }
                    }

                    // Phase 4: merge — apply all writes, then callbacks in
                    // ascending shard order.
                    {
                        let mut dense_guard = dense_cell.write().unwrap();
                        for &s in due.iter() {
                            let mut shard = cells[s].lock().unwrap();
                            apply_writes::<P>(&mut dense_guard, &mut shard.updates);
                        }
                    }
                    {
                        let dense_guard = dense_cell.read().unwrap();
                        for &s in due.iter() {
                            let updates = {
                                let mut shard = cells[s].lock().unwrap();
                                std::mem::take(&mut shard.updates)
                            };
                            notify_shard(
                                protocol,
                                &dense_guard,
                                &updates,
                                *now,
                                action_counts,
                                action_offsets,
                                &mut stats,
                                monitor,
                            );
                            cells[s].lock().unwrap().updates = updates;
                        }
                    }
                    drop_scratch.clear();
                    writer_scratch.clear();
                    for &s in due.iter() {
                        let shard = cells[s].lock().unwrap();
                        drop_scratch.extend_from_slice(&shard.dropped);
                        writer_scratch.extend(shard.updates.iter().map(|u| u.0));
                    }
                    for &pid in drop_scratch.iter() {
                        stats.commits_dropped += 1;
                        mark_pid_locked(&cells, starts, active, active_flag, pid);
                    }
                    for &pid in writer_scratch.iter() {
                        mark_readers_locked(readers, &cells, starts, active, active_flag, pid);
                    }

                    if monitor.should_stop() {
                        break 'run StopReason::MonitorStop;
                    }
                    if let Some(max) = config.max_commits {
                        if stats.actions_executed >= max {
                            break 'run StopReason::MaxCommits;
                        }
                    }
                }
            }));

            // Always release the workers, even when the coordinator
            // panicked (they are parked at the start gate).
            *job.lock().unwrap() = Job::Exit;
            start_gate.wait();
            match round {
                Ok(reason) => reason,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });
        (reason, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::fault::{FaultAction, FaultKind, NoFaults, PoissonFaults, VictimPolicy};
    use crate::protocol::testutil::DijkstraRing;
    use crate::protocol::{Protocol, ReaderSet};
    use crate::trace::Trace;

    impl DenseProtocol for DijkstraRing {
        type Dense = Vec<u64>;

        fn dense_enabled(&self, dense: &Vec<u64>, pid: Pid, action: ActionId) -> bool {
            self.enabled(dense, pid, action)
        }

        fn dense_execute(
            &self,
            dense: &Vec<u64>,
            pid: Pid,
            action: ActionId,
            rng: &mut SimRng,
        ) -> u64 {
            self.execute(dense, pid, action, rng)
        }
    }

    /// Undetectable scramble used to exercise the fault path; draws from the
    /// RNG so RNG-order divergence between engines would show immediately.
    struct Scramble;

    impl FaultAction<u64> for Scramble {
        fn kind(&self) -> FaultKind {
            FaultKind::Undetectable
        }
        fn apply(&self, _pid: Pid, state: &mut u64, rng: &mut SimRng) {
            *state = rng.range_u64(0, 1000);
        }
    }

    /// Two-action protocol where both actions are often enabled at once, so
    /// the engines must agree on the nondeterministic-choice draws (the dense
    /// engine defers them to a post-schedule resolve pass).
    struct TwoTick {
        n: usize,
        limit: u64,
    }

    impl Protocol for TwoTick {
        type State = u64;

        fn num_processes(&self) -> usize {
            self.n
        }
        fn num_actions(&self, _pid: Pid) -> usize {
            2
        }
        fn action_name(&self, _pid: Pid, action: ActionId) -> &'static str {
            if action == 0 {
                "tick1"
            } else {
                "tick2"
            }
        }
        fn enabled(&self, global: &[u64], pid: Pid, _action: ActionId) -> bool {
            global[pid] < self.limit
        }
        fn execute(&self, global: &[u64], pid: Pid, action: ActionId, _rng: &mut SimRng) -> u64 {
            global[pid] + if action == 0 { 1 } else { 2 }
        }
        fn cost(&self, _pid: Pid, action: ActionId) -> Time {
            if action == 0 {
                Time::new(0.5)
            } else {
                Time::new(0.75)
            }
        }
        fn initial_state(&self) -> Vec<u64> {
            vec![0; self.n]
        }
        fn arbitrary_state(&self, _pid: Pid, rng: &mut SimRng) -> u64 {
            rng.range_u64(0, self.limit + 2)
        }
        fn readers_of(&self, pid: Pid) -> ReaderSet {
            ReaderSet::These(vec![pid])
        }
    }

    impl DenseProtocol for TwoTick {
        type Dense = Vec<u64>;

        fn dense_enabled(&self, dense: &Vec<u64>, pid: Pid, action: ActionId) -> bool {
            self.enabled(dense, pid, action)
        }
        fn dense_execute(
            &self,
            dense: &Vec<u64>,
            pid: Pid,
            action: ActionId,
            rng: &mut SimRng,
        ) -> u64 {
            self.execute(dense, pid, action, rng)
        }
    }

    fn classic_run<P: DenseProtocol<State = u64>>(
        protocol: &P,
        seed: u64,
        rate: f64,
        perturb: bool,
        max_time: f64,
    ) -> (RunOutcome, Vec<u64>, Trace<u64>) {
        let mut engine = Engine::new(protocol, seed);
        if perturb {
            engine.perturb_all();
        }
        let mut trace = Trace::unbounded();
        let mut faults = PoissonFaults::with_rate(rate, VictimPolicy::Random, Scramble);
        let config = EngineConfig {
            max_time: Some(Time::new(max_time)),
            ..EngineConfig::default()
        };
        let outcome = engine.run(&config, &mut faults, &mut trace);
        (outcome, engine.global().to_vec(), trace)
    }

    fn dense_run<P: DenseProtocol<State = u64>>(
        protocol: &P,
        seed: u64,
        rate: f64,
        perturb: bool,
        max_time: f64,
        shards: usize,
        workers: usize,
    ) -> (RunOutcome, Vec<u64>, Trace<u64>) {
        let mut engine = DenseEngine::new(protocol, seed).with_shards(shards);
        if perturb {
            engine.perturb_all();
        }
        let mut trace = Trace::unbounded();
        let mut faults = PoissonFaults::with_rate(rate, VictimPolicy::Random, Scramble);
        let config = DenseEngineConfig {
            max_time: Some(Time::new(max_time)),
            workers: Some(workers),
            parallel_threshold: 1,
            ..DenseEngineConfig::default()
        };
        let outcome = engine.run(&config, &mut faults, &mut trace);
        (outcome, engine.global_states(), trace)
    }

    fn assert_matches_classic<P: DenseProtocol<State = u64>>(
        protocol: &P,
        rate: f64,
        perturb: bool,
        max_time: f64,
    ) {
        for seed in [3u64, 4] {
            let (c_out, c_state, c_trace) = classic_run(protocol, seed, rate, perturb, max_time);
            for (shards, workers) in [(1usize, 1usize), (3, 1), (3, 2), (5, 4)] {
                let (d_out, d_state, d_trace) =
                    dense_run(protocol, seed, rate, perturb, max_time, shards, workers);
                assert_eq!(
                    c_out, d_out,
                    "outcome diverged (seed {seed}, {shards} shards, {workers} workers)"
                );
                assert_eq!(
                    c_state, d_state,
                    "final state diverged (seed {seed}, {shards} shards, {workers} workers)"
                );
                let c_events: Vec<_> = c_trace.events().collect();
                let d_events: Vec<_> = d_trace.events().collect();
                assert_eq!(
                    c_events, d_events,
                    "trace diverged (seed {seed}, {shards} shards, {workers} workers)"
                );
            }
        }
    }

    #[test]
    fn ring_matches_classic_fault_free() {
        let ring = DijkstraRing {
            n: 17,
            k: 37,
            cost: Time::new(1.0),
        };
        assert_matches_classic(&ring, 0.0, true, 35.0);
    }

    #[test]
    fn ring_matches_classic_under_faults() {
        let ring = DijkstraRing {
            n: 17,
            k: 37,
            cost: Time::new(1.0),
        };
        assert_matches_classic(&ring, 0.5, true, 35.0);
    }

    #[test]
    fn two_tick_matches_classic_with_choice_draws() {
        let tt = TwoTick { n: 13, limit: 40 };
        assert_matches_classic(&tt, 0.0, false, 35.0);
        assert_matches_classic(&tt, 0.4, true, 35.0);
    }

    #[test]
    fn full_rescan_matches_incremental() {
        let ring = DijkstraRing {
            n: 11,
            k: 23,
            cost: Time::new(1.0),
        };
        let seed = 7;
        let mut base = DenseEngine::new(&ring, seed).with_shards(3);
        base.perturb_all();
        let mut base_trace = Trace::unbounded();
        let config = DenseEngineConfig {
            max_time: Some(Time::new(50.0)),
            ..DenseEngineConfig::default()
        };
        let base_out = base.run(&config, &mut NoFaults, &mut base_trace);

        let mut rescan = DenseEngine::new(&ring, seed).with_shards(3);
        rescan.perturb_all();
        let mut rescan_trace = Trace::unbounded();
        let rescan_config = DenseEngineConfig {
            full_rescan: true,
            ..config
        };
        let rescan_out = rescan.run(&rescan_config, &mut NoFaults, &mut rescan_trace);

        assert_eq!(base_out, rescan_out);
        assert_eq!(base.global_states(), rescan.global_states());
        let a: Vec<_> = base_trace.events().collect();
        let b: Vec<_> = rescan_trace.events().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn max_commits_is_honored() {
        let tt = TwoTick { n: 8, limit: 1000 };
        let mut engine = DenseEngine::new(&tt, 1).with_shards(2);
        let config = DenseEngineConfig {
            max_commits: Some(20),
            ..DenseEngineConfig::default()
        };
        let outcome = engine.run(&config, &mut NoFaults, &mut crate::monitor::NullMonitor);
        assert_eq!(outcome.reason, StopReason::MaxCommits);
        assert!(outcome.stats.actions_executed >= 20);
    }

    #[test]
    fn set_state_wakes_the_readers() {
        let ring = DijkstraRing {
            n: 6,
            k: 5,
            cost: Time::new(1.0),
        };
        let mut engine = DenseEngine::new(&ring, 9).with_shards(2);
        let config = DenseEngineConfig {
            max_time: Some(Time::new(100.0)),
            ..DenseEngineConfig::default()
        };
        // The initial state is the fixpoint-free legal state (one token), so
        // the first run makes progress; afterwards force a specific state and
        // check the engine notices the newly enabled guard.
        let first = engine.run(&config, &mut NoFaults, &mut crate::monitor::NullMonitor);
        assert!(first.stats.actions_executed > 0);
        let snapshot = engine.global_states();
        engine.set_state(3, (snapshot[3] + 1) % 5);
        let config2 = DenseEngineConfig {
            max_time: Some(Time::new(200.0)),
            ..DenseEngineConfig::default()
        };
        let second = engine.run(&config2, &mut NoFaults, &mut crate::monitor::NullMonitor);
        assert!(
            second.stats.actions_executed > 0,
            "set_state must re-dirty the changed pid and its readers"
        );
    }

    #[test]
    fn auto_shards_scales_with_n() {
        assert_eq!(auto_shards(16), 1);
        assert_eq!(auto_shards(4095), 1);
        assert!(auto_shards(100_000) > 1);
        assert!(auto_shards(10_000_000) <= 64);
    }
}
