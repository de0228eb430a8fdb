//! `runtime_tree32`: `FtBarrier` with 32 participants (binary tree,
//! `FailurePolicy::Tolerate`) driven by 2 threads.
//!
//! Participant `i` runs on thread `i mod 2`. In each episode a thread
//! calls `enter` on its participants in descending id order, then `leave`
//! on each; children have higher ids than their parents, so the order
//! cannot deadlock. A seeded 1 % of episodes has one participant call
//! `enter(false)`, which every participant must see as a `Repeat`.

use crate::stats::derive;
use crate::trace::SpanLog;
use crate::workload::{Budget, Opts, Run, Sample};
use crate::Gate;
use ftbarrier_runtime::{FtBarrier, Participant, PhaseOutcome};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const N: usize = 32;
const THREADS: usize = 2;
/// Episode samples reserved up front for a run, and a tenth of that for
/// each session (untouched capacity is not resident), so the buffers never
/// peak at twice their size while growing.
const SAMPLES_RESERVED: usize = 1 << 21;
/// Set-ups per run; the reported set-up time is their median. The middle
/// [`SESSIONS`] run the workload, so the rest are timed before and after
/// them, and a burst of host noise at either end moves a few, not the
/// median. A set-up right after a session takes two to three times as
/// long as the others (150–240 µs against 45–125 µs), so there are enough
/// others that the median falls well inside their range rather than at
/// the edge between the two.
const SETUP_REPS: usize = 51;
/// Sessions a run's budget is split over, each on a fresh barrier and
/// fresh threads. A barrier instance now and then settles into a mode
/// about twice as fast as the usual one and keeps it (one 20 s run in ten
/// did so throughout); splitting the run draws that mode several times,
/// so the medians over time windows follow the typical session.
const SESSIONS: usize = 10;

/// The participant that reports a failed phase body in `episode`, if any.
pub fn faulty_participant(seed: u64, episode: u64) -> Option<usize> {
    let h = derive(seed, episode);
    h.is_multiple_of(100)
        .then(|| ((h >> 32) % N as u64) as usize)
}

/// The outcome every participant must see in `episode`, given the number
/// of advances before it.
pub fn expected_outcome(seed: u64, episode: u64, advances: u64) -> PhaseOutcome {
    if faulty_participant(seed, episode).is_some() {
        PhaseOutcome::Repeat { phase: advances }
    } else {
        PhaseOutcome::Advance {
            phase: advances + 1,
        }
    }
}

/// The unscheduled episode in which a sabotaged run injects a failure.
fn sabotage_episode(seed: u64) -> u64 {
    (5..)
        .find(|&e| faulty_participant(seed, e).is_none())
        .expect("some episode is fault-free")
}

struct ThreadOut {
    episodes: u64,
    elapsed: Duration,
    samples: Vec<Sample>,
    /// Repeat outcomes seen, per participant id.
    repeats: Vec<(usize, u64)>,
    gate: Gate,
    spans: Option<SpanLog>,
}

fn drive(
    t: usize,
    parts: &mut [Participant],
    opts: &Opts,
    stop_after: &AtomicU64,
    epoch: Instant,
    offset: Duration,
) -> ThreadOut {
    let sabotage = opts.sabotage.then(|| sabotage_episode(opts.seed));
    let track = if t == 0 { "driver-0" } else { "driver-1" };
    let mut spans = opts.trace.then(|| SpanLog::new(epoch));
    let mut gate = Gate::default();
    let mut repeats = vec![0u64; parts.len()];
    let mut samples = Vec::with_capacity(SAMPLES_RESERVED / SESSIONS);
    let mut advances = 0u64;
    let start = Instant::now();
    let mut e = 0u64;
    loop {
        // Thread 0 owns the root, so it announces the last episode before
        // the root publishes that episode's release; thread 1 reads the
        // announcement after observing the release.
        if t == 0 {
            let last = match opts.budget {
                Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                Budget::Ops(k) => e + 1 >= k,
            };
            if last {
                stop_after.store(e, Ordering::SeqCst);
            }
        }
        let fault = faulty_participant(opts.seed, e);
        let t0 = Instant::now();
        for p in parts.iter_mut() {
            let ok = fault != Some(p.id()) && !(sabotage == Some(e) && p.id() == N - 1);
            let s = Instant::now();
            if let Err(err) = p.enter(ok) {
                crate::fatal(&format!("participant {} enter: {err}", p.id()));
            }
            if let Some(log) = spans.as_mut() {
                log.record("runtime.enter", track, e, s, Instant::now());
            }
        }
        let want = expected_outcome(opts.seed, e, advances);
        for (i, p) in parts.iter_mut().enumerate() {
            let s = Instant::now();
            let got = match p.leave() {
                Ok(o) => o,
                Err(err) => crate::fatal(&format!("participant {} leave: {err}", p.id())),
            };
            if let Some(log) = spans.as_mut() {
                log.record("runtime.leave", track, e, s, Instant::now());
            }
            if !got.is_advance() {
                repeats[i] += 1;
            }
            gate.check(got == want, || {
                format!(
                    "participant {} episode {e}: got {got:?}, want {want:?}",
                    p.id()
                )
            });
        }
        if t == 0 {
            let now = Instant::now();
            let dur = now.duration_since(t0);
            samples.push(Sample::new(
                (offset + now.duration_since(start)).as_secs_f64(),
                dur.as_secs_f64(),
                1.0,
                dur.as_nanos() as f64,
            ));
            if let Some(log) = spans.as_mut() {
                log.record("runtime.episode", track, e, t0, now);
            }
        }
        if fault.is_none() {
            advances += 1;
        }
        let done = e >= stop_after.load(Ordering::SeqCst);
        e += 1;
        if done {
            break;
        }
    }
    ThreadOut {
        episodes: e,
        elapsed: start.elapsed(),
        samples,
        repeats: parts.iter().map(|p| p.id()).zip(repeats).collect(),
        gate,
        spans,
    }
}

/// Build the barrier and start both driver threads; the middle
/// [`SESSIONS`] set-ups each run a share of the workload on their own
/// barrier, with a seed derived from the run's. Set-up ends when both
/// threads are ready to cross.
pub fn run(opts: &Opts) -> Run {
    let first_session = (SETUP_REPS - SESSIONS) / 2;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut gate = Gate::default();
    let mut spans: Option<SpanLog> = None;
    let mut samples = Vec::with_capacity(SAMPLES_RESERVED / SESSIONS);
    let (mut episodes, mut root_repeats) = (0u64, 0u64);
    let mut elapsed = Duration::ZERO;
    for rep in 0..SETUP_REPS {
        let session = rep
            .checked_sub(first_session)
            .filter(|&s| s < SESSIONS)
            .map(|s| Opts {
                seed: derive(opts.seed, s as u64),
                budget: opts.budget.share(SESSIONS, s),
                ..*opts
            });
        let t0 = Instant::now();
        let (_barrier, parts) = FtBarrier::new(N);
        let mut lanes: Vec<Vec<Participant>> = (0..THREADS).map(|_| Vec::new()).collect();
        for p in parts.into_iter().rev() {
            lanes[p.id() % THREADS].push(p);
        }
        let ready = Barrier::new(THREADS + 1);
        let stop_after = AtomicU64::new(u64::MAX);
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(t, lane)| {
                    let (ready, stop_after, session) = (&ready, &stop_after, &session);
                    s.spawn(move || {
                        ready.wait();
                        session
                            .as_ref()
                            .map(|so| drive(t, lane, so, stop_after, t0, elapsed))
                    })
                })
                .collect();
            ready.wait();
            setups.push(t0.elapsed().as_secs_f64());
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("driver thread panicked"))
                .collect::<Vec<_>>()
        });
        let Some(so) = session else { continue };

        let e = outs[0].episodes;
        gate.check(outs.iter().all(|o| o.episodes == e), || {
            format!("session {rep}: driver threads ran different episode counts")
        });
        let injected = (0..e)
            .filter(|&k| faulty_participant(so.seed, k).is_some())
            .count() as u64;
        episodes += e;
        let mut session_elapsed = Duration::ZERO;
        for mut o in outs {
            for &(id, r) in &o.repeats {
                gate.check(r == injected, || {
                    format!("session {rep}: participant {id} saw {r} repeats, {injected} injected")
                });
                if id == 0 {
                    root_repeats += r;
                }
            }
            gate.merge(o.gate);
            samples.append(&mut o.samples);
            session_elapsed = session_elapsed.max(o.elapsed);
            SpanLog::collect(&mut spans, o.spans);
        }
        elapsed += session_elapsed;
    }
    let mut counts = BTreeMap::new();
    counts.insert("runtime.repeat_frac", root_repeats as f64 / episodes as f64);
    Run {
        ops: episodes,
        elapsed_s: elapsed.as_secs_f64(),
        samples,
        setup_s: crate::stats::median(&setups),
        host_slowdown: None,
        gate,
        spans,
        counts,
        layer: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(sabotage: bool) -> Opts {
        Opts {
            seed: 11,
            budget: Budget::Ops(400),
            trace: true,
            sabotage,
        }
    }

    #[test]
    fn clean_run_passes_every_gate() {
        let run = run(&opts(false));
        assert_eq!(run.ops, 400);
        assert!(run.gate.ok(), "{:?}", run.gate.notes);
        assert_eq!(run.latency_count(), 400);
        assert!(run.spans.expect("traced").count("runtime.enter") == 400 * N);
    }

    #[test]
    fn unscheduled_failure_is_caught() {
        let run = run(&opts(true));
        assert!(!run.gate.ok());
        assert!(run.gate.failed >= N as u64, "{:?}", run.gate);
    }

    #[test]
    fn schedule_is_seeded_and_sparse() {
        let faulty = |seed| {
            (0..100_000)
                .filter(|&e| faulty_participant(seed, e).is_some())
                .count()
        };
        assert_eq!(faulty(3), faulty(3));
        assert!((800..1200).contains(&faulty(3)), "{}", faulty(3));
    }
}
