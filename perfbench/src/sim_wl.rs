//! The two simulator workloads. Each runs *cells* back to back, one
//! derived seed per cell, and gates every cell on zero specification
//! violations and on reaching its phase target.
//!
//! * `sim_tree_faults`: `ftbarrier_core::sim::measure_phases` on a binary
//!   tree of 16 384 processes with c = 0.01 and f = 0.2.
//! * `simnet_mb_lossy`: `ftbarrier_mp::mb_sim::run` with N = 32 over lossy,
//!   duplicating, corrupting and reordering links plus Poisson poisons.
//!
//! Both report their times at nominal host speed, calibrated against a
//! reference kernel timed between cells (see `run_cells`).

use crate::host::{time_reference, REFERENCE_NOMINAL_S};
use crate::stats::{derive, median};
use crate::trace::SpanLog;
use crate::workload::{Budget, Opts, Run, Sample};
use crate::Gate;
use ftbarrier_core::sim::{measure_phases, PhaseExperiment, SweepOracleMonitor, TopologySpec};
use ftbarrier_core::spec::Anchor;
use ftbarrier_core::sweep::{ProcessFaults, SweepBarrier, SweepDetectableFault};
use ftbarrier_core::telemetry::SweepLatencyMonitor;
use ftbarrier_gcs::{CausalMonitor, Engine, Time};
use ftbarrier_mp::channel::ChannelFaults;
use ftbarrier_mp::mb_sim::{self, FaultPlan, SimMbConfig, WireMsg};
use ftbarrier_mp::proc::{sn_domain, MbCore};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig, SimNet};
use ftbarrier_telemetry::{CausalRecorder, Telemetry};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

pub const TREE: TopologySpec = TopologySpec::Tree {
    n: 16_384,
    arity: 2,
};
/// Successful phases per `sim_tree_faults` cell.
pub const TREE_PHASES: u64 = 8;
pub const MB_N: usize = 32;
/// Successful phases per `simnet_mb_lossy` cell.
pub const MB_PHASES: u64 = 100;
/// Set-up samples per run; the reported set-up time is their median. The
/// first is taken before the first cell and the others spread evenly over
/// the run, so a burst of host noise moves a few samples, not the median.
/// They use fixed seeds, so set-up does the same work whatever `--seed` is.
const SETUP_SAMPLES: usize = 11;
/// Set-ups per sample of each workload (an `simnet_mb_lossy` set-up takes
/// microseconds, so its samples time a batch).
const TREE_SETUP_BATCH: u32 = 1;
const MB_SETUP_BATCH: u32 = 64;

pub fn tree_experiment(seed: u64, target_phases: u64) -> PhaseExperiment {
    PhaseExperiment {
        topology: TREE,
        n_phases: 8,
        c: 0.01,
        f: 0.2,
        seed,
        target_phases,
        work_split: None,
    }
}

/// Every link: latency 0.01, 5 % loss, 2 % duplication, 2 % detectable
/// corruption, 2 % reorder.
pub fn lossy_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Fixed(0.01),
        faults: ChannelFaults {
            loss: 0.05,
            duplication: 0.02,
            corruption: 0.02,
            reorder: 0.02,
        },
    }
}

pub fn mb_config(seed: u64, target_phases: u64) -> SimMbConfig {
    SimMbConfig {
        n: MB_N,
        target_phases,
        seed,
        link: lossy_link(),
        plan: FaultPlan {
            poison_rate: 0.02,
            ..FaultPlan::default()
        },
        ..SimMbConfig::default()
    }
}

/// One cell's outcome: successful phases, the phase count the run's
/// target is judged on, the gate verdict, and counts to sum over the run.
pub struct Cell {
    pub phases: u64,
    pub reached: u64,
    pub error: Option<String>,
    pub counts: Vec<(&'static str, f64)>,
}

pub fn tree_cell(seed: u64, target: u64) -> Cell {
    let m = measure_phases(&tree_experiment(seed, target));
    let error = (m.violations != 0).then(|| format!("{} violations", m.violations));
    Cell {
        phases: m.phases,
        reached: m.phases,
        error,
        counts: vec![
            ("core.sim.instances", m.mean_instances * m.phases as f64),
            ("core.sim.faults", m.faults as f64),
        ],
    }
}

/// What `measure_phases` builds before the engine's first event: the
/// topology, the program, the oracle, latency and causal monitors, the
/// engine and the fault environment.
pub fn tree_setup(seed: u64) {
    let exp = tree_experiment(seed, TREE_PHASES);
    let dag = exp.topology.build().expect("valid topology");
    let program = SweepBarrier::new(dag, exp.n_phases).with_costs(Time::new(exp.c), Time::new(1.0));
    black_box(
        SweepOracleMonitor::new(&program, Anchor::StrictFromZero).stop_after(exp.target_phases),
    );
    black_box(SweepLatencyMonitor::new(
        &program,
        exp.topology.label(),
        Telemetry::off(),
    ));
    black_box(CausalMonitor::from_protocol(
        &program,
        CausalRecorder::off(),
    ));
    black_box(Engine::new(&program, exp.seed));
    black_box(ProcessFaults::new(
        &program,
        exp.f,
        SweepDetectableFault {
            n_phases: exp.n_phases,
        },
    ));
}

/// What `mb_sim::run` builds before its first event: the flight recorder,
/// `MB_N` cores sharing it, and the network of lossy links.
pub fn mb_setup(seed: u64) {
    let cfg = mb_config(seed, MB_PHASES);
    let seq = Arc::new(AtomicU64::new(0));
    let recorder = CausalRecorder::bounded(cfg.flight_capacity);
    let cores: Vec<MbCore> = (0..cfg.n)
        .map(|pid| {
            let seed = derive(seed, pid as u64);
            let mut core = MbCore::new(pid, cfg.n_phases, sn_domain(cfg.n), seed, seq.clone());
            core.recorder = recorder.clone();
            core
        })
        .collect();
    let net: SimNet<WireMsg> = SimNet::new(vec![cfg.link; cfg.n], seed);
    black_box((cores, net));
}

/// A set-up sampler: sample `k` runs `batch` set-ups on seeds derived from
/// `k` and returns the mean time of one.
pub fn time_setup(setup: fn(u64), batch: u32) -> impl FnMut(usize) -> f64 {
    move |k| {
        let t = Instant::now();
        for b in 0..batch {
            setup(derive(k as u64, u64::from(b)));
        }
        t.elapsed().as_secs_f64() / f64::from(batch)
    }
}

pub fn mb_cell(seed: u64, target: u64) -> Cell {
    mb_cell_from(mb_config(seed, target))
}

fn mb_cell_from(cfg: SimMbConfig) -> Cell {
    let target = cfg.target_phases;
    let r = mb_sim::run(cfg);
    let error = if !r.violations.is_empty() {
        Some(format!("{} violations", r.violations.len()))
    } else if !r.reached_target {
        Some(format!(
            "stopped at {} of {target} root advances",
            r.root_phase_advances
        ))
    } else {
        None
    };
    Cell {
        phases: r.phases_completed,
        reached: r.root_phase_advances,
        error,
        counts: vec![
            ("mp.mb_sim.msgs", r.messages_sent.iter().sum::<u64>() as f64),
            ("mp.mb_sim.trace_bytes", r.trace.len() as f64),
            ("mp.mb_sim.events", r.events_processed as f64),
            ("mp.simnet.sent", r.net.sent as f64),
            ("mp.simnet.delivered", r.net.delivered as f64),
        ],
    }
}

/// How much slower than nominal the host ran, as a reference-kernel
/// sample of `reference_s` seconds tells it.
fn slowdown(reference_s: f64) -> f64 {
    reference_s / REFERENCE_NOMINAL_S
}

/// Cells on a clock at nominal host speed, as `(end, duration)` pairs:
/// cell `i` took `cell_s[i]` of wall time between reference samples
/// `references[i]` and `references[i + 1]`, and its time is divided by
/// the mean slowdown of the two.
fn nominal_clock(cell_s: &[f64], references: &[f64]) -> Vec<(f64, f64)> {
    let mut clock = 0.0;
    cell_s
        .iter()
        .zip(references.windows(2))
        .map(|(&wall, pair)| {
            let dur = wall / slowdown((pair[0] + pair[1]) / 2.0);
            clock += dur;
            (clock, dur)
        })
        .collect()
}

/// Run cells until the budget is spent, timing set-up samples before the
/// first cell and between cells as the budget is spent. A sabotaged run
/// expects one phase more of each cell than it was asked for, which the
/// gate must catch.
///
/// Before the first cell and after each one the run also times the
/// host-speed reference kernel ([`crate::host::time_reference`], about
/// 10 ms): on a shared host a vCPU's speed drifts by 10–30 % over minutes,
/// these single-threaded, allocation- and map-heavy cells follow it, and
/// no length of run averages that out. Cell and set-up times are divided
/// by the slowdown the neighbouring reference samples saw, so the
/// throughput, latency and set-up a run reports are at nominal host speed
/// ([`nominal_clock`]). The set-up and reference samples between cells
/// are left off that clock, so they do not count against throughput.
fn run_cells(
    opts: &Opts,
    span: &'static str,
    target: u64,
    cell: fn(u64, u64) -> Cell,
    mut setup: impl FnMut(usize) -> f64,
) -> Run {
    let mut references = vec![time_reference()];
    let mut setups = vec![setup(0) / slowdown(references[0])];
    let epoch = Instant::now();
    let progress = |i: u64| match opts.budget {
        Budget::Seconds(s) => epoch.elapsed().as_secs_f64() / s,
        Budget::Ops(n) => i as f64 / n as f64,
    };
    let mut spans = opts.trace.then(|| SpanLog::new(epoch));
    let mut gate = Gate::default();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut cell_s = Vec::new();
    let mut cell_phases = Vec::new();
    let mut i = 0u64;
    while match opts.budget {
        Budget::Seconds(s) => i == 0 || epoch.elapsed().as_secs_f64() < s,
        Budget::Ops(n) => i < n,
    } {
        let t0 = Instant::now();
        let out = cell(derive(opts.seed, i), target);
        let t1 = Instant::now();
        if let Some(log) = spans.as_mut() {
            log.record(span, "cells", i, t0, t1);
        }
        let want = target + u64::from(opts.sabotage);
        let error = out.error.or_else(|| {
            (out.reached < want).then(|| format!("reached {} of {want} phases", out.reached))
        });
        gate.check(error.is_none(), || {
            format!("cell {i}: {}", error.unwrap_or_default())
        });
        cell_s.push(t1.duration_since(t0).as_secs_f64());
        cell_phases.push(out.phases);
        for (name, v) in out.counts {
            *counts.entry(name).or_default() += v;
        }
        i += 1;
        references.push(time_reference());
        let now = slowdown(*references.last().expect("sampled before the first cell"));
        let due = 1 + (progress(i) * (SETUP_SAMPLES - 1) as f64) as usize;
        while setups.len() < due.min(SETUP_SAMPLES) {
            setups.push(setup(setups.len()) / now);
        }
    }
    let now = slowdown(*references.last().expect("sampled before the first cell"));
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup(setups.len()) / now);
    }
    let samples = nominal_clock(&cell_s, &references)
        .into_iter()
        .zip(&cell_phases)
        .map(|((end, dur), &phases)| {
            Sample::new(end, dur, phases as f64, dur * 1e9 / phases.max(1) as f64)
        })
        .collect();
    let phases = cell_phases.iter().sum();
    counts.insert("cells", i as f64);
    counts.insert("phases", phases as f64);
    Run {
        ops: phases,
        elapsed_s: cell_s.iter().sum(),
        samples,
        setup_s: median(&setups),
        host_slowdown: Some(slowdown(median(&references))),
        gate,
        spans,
        counts,
        layer: Default::default(),
    }
}

pub fn run_tree(opts: &Opts) -> Run {
    run_cells(
        opts,
        "core.sim.measure_phases",
        TREE_PHASES,
        tree_cell,
        time_setup(tree_setup, TREE_SETUP_BATCH),
    )
}

pub fn run_mb(opts: &Opts) -> Run {
    run_cells(
        opts,
        "mp.mb_sim.run",
        MB_PHASES,
        mb_cell,
        time_setup(mb_setup, MB_SETUP_BATCH),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(cells: u64, sabotage: bool) -> Opts {
        Opts {
            seed: 3,
            budget: Budget::Ops(cells),
            trace: false,
            sabotage,
        }
    }

    #[test]
    fn mb_cells_pass_and_counts_repeat() {
        let a = run_mb(&opts(3, false));
        let b = run_mb(&opts(3, false));
        assert!(a.gate.ok(), "{:?}", a.gate.notes);
        assert_eq!(a.ops, 3 * MB_PHASES);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn cells_are_timed_at_nominal_host_speed() {
        let nominal = REFERENCE_NOMINAL_S;
        // Three cells of 1 s wall time: at nominal speed, then on a host
        // twice as slow, then across a change from slow to nominal.
        let refs = [nominal, nominal, 2.0 * nominal, nominal];
        let clock = nominal_clock(&[1.0, 1.0, 1.0], &refs);
        let durs: Vec<f64> = clock.iter().map(|&(_, d)| d).collect();
        assert_eq!(durs, [1.0, 1.0 / 1.5, 1.0 / 1.5]);
        assert_eq!(clock[2].0, durs.iter().sum::<f64>());
        let run = run_mb(&opts(2, false));
        let k = run.host_slowdown.expect("the simulators are calibrated");
        assert!(k.is_finite() && k > 0.0);
    }

    #[test]
    fn short_cells_are_caught() {
        assert!(!run_mb(&opts(2, true)).gate.ok());
        assert!(mb_cell(9, 4).error.is_none());
        let cut_short = SimMbConfig {
            max_time: 0.5,
            ..mb_config(9, 4)
        };
        assert!(
            mb_cell_from(cut_short).error.is_some(),
            "a run cut short must fail the gate"
        );
    }
}
