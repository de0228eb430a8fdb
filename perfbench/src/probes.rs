//! Standalone per-layer probes: each calls one layer's public functions
//! in isolation, with inputs shaped like the workload that exercises it.

use crate::sim_wl::{lossy_link, tree_experiment, MB_N, TREE, TREE_PHASES};
use crate::stats::{derive, median};
use crate::Gate;
use ftbarrier_core::sim::measure_phases;
use ftbarrier_core::sweep::{ProcessFaults, SweepBarrier, SweepDetectableFault};
use ftbarrier_gcs::{Engine, EngineConfig, NullMonitor, Protocol, Time};
use ftbarrier_mp::channel::Delivery;
use ftbarrier_mp::proc::{sn_domain, MbCore, Step};
use ftbarrier_mp::simnet::SimNet;
use ftbarrier_runtime::detector::{Clock, WallClock};
use ftbarrier_runtime::word::CheckedWord;
use ftbarrier_runtime::{CentralBarrier, FtBarrier, TreeBarrier};
use ftbarrier_server::wire::{ClientFrame, FrameReader, ServerFrame};
use ftbarrier_server::{BarrierGroup, GroupConfig};
use ftbarrier_telemetry::{CausalRecorder, Telemetry, TimeDomain};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Median over `batches` of the mean time per call of `f`, called
/// `per_batch` times per batch with a running call index.
fn per_call_ns(batches: usize, per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `runtime.word.store_load_ns`: one `CheckedWord` store plus one load.
pub fn word_store_load_ns() -> f64 {
    let w = CheckedWord::new(0, 0);
    per_call_ns(7, 100_000, |i| {
        w.store(black_box(i & 0xFFFF), 1);
        black_box(w.load());
    })
}

/// `telemetry.causal.record_ns`: `CausalRecorder::record` on a bounded
/// 8192 ring, called from 2 threads at once (as the runtime's two driver
/// threads do).
pub fn causal_record_ns() -> f64 {
    let rec = CausalRecorder::bounded(8192);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|t| {
                let rec = rec.clone();
                s.spawn(move || {
                    per_call_ns(5, 40_000, |i| {
                        black_box(rec.record(t, "arrive", i as f64, Some(i as u32), &[]));
                    })
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("recorder thread panicked"))
            .collect()
    });
    median(&per_thread)
}

/// The service workload's frames at phase `k`: the client's `Arrive` and
/// the server's `Release`.
fn frames(k: u64) -> (ClientFrame, ServerFrame) {
    (
        ClientFrame::Arrive { phase: k },
        ServerFrame::Release {
            phase: k,
            epoch: 0,
            live: 2,
        },
    )
}

/// `(server.wire.encode_ns, server.wire.decode_ns, mp.socket.frame_push_ns)`
/// per frame, averaged over the workload's two frame kinds.
pub fn wire_ns() -> (f64, f64, f64) {
    let encode = per_call_ns(7, 50_000, |k| {
        let (c, s) = frames(k);
        black_box(c.to_frame());
        black_box(s.to_frame());
    }) / 2.0;
    let framed: Vec<(Vec<u8>, Vec<u8>)> = (0..1024)
        .map(|k| {
            let (c, s) = frames(k);
            (c.to_frame(), s.to_frame())
        })
        .collect();
    let decode = per_call_ns(7, 50_000, |k| {
        let (c, s) = &framed[(k % 1024) as usize];
        black_box(ClientFrame::decode(&c[4..]));
        black_box(ServerFrame::decode(&s[4..]));
    }) / 2.0;
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    let push = per_call_ns(7, 50_000, |k| {
        let (c, s) = &framed[(k % 1024) as usize];
        reader.push(c, &mut out).expect("well-formed frame");
        reader.push(s, &mut out).expect("well-formed frame");
        out.clear();
    }) / 2.0;
    (encode, decode, push)
}

/// `(server.group.arrive_ns, server.group.tick_us)`: a 2-member
/// `BarrierGroup` driven in-process like the service workload — both
/// members arrive, then one tick, which must release exactly one phase.
pub fn group(gate: &mut Gate) -> (f64, f64) {
    let clock: Arc<dyn Clock> = WallClock::start();
    let mut g = BarrierGroup::new(
        2,
        &GroupConfig::default(),
        clock,
        Telemetry::recording(TimeDomain::Wall),
    );
    g.tick();
    let (mut arrive, mut tick) = (Vec::new(), Vec::new());
    let mut released = 0;
    const ROUNDS: usize = 20_000;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        g.arrive(0);
        g.arrive(1);
        let t1 = Instant::now();
        released += g.tick().releases.len();
        let t2 = Instant::now();
        arrive.push(t1.duration_since(t0).as_nanos() as f64 / 2.0);
        tick.push(t2.duration_since(t1).as_nanos() as f64 / 1e3);
    }
    gate.check(released == ROUNDS, || {
        format!("in-process group released {released} of {ROUNDS} phases")
    });
    (median(&arrive), median(&tick))
}

/// `mp.proc.step_ns`: one `on_delivery` plus one `MbCore::step`, with
/// `MB_N` cores in a ring pumped in memory (each core reads its
/// predecessor's current state) until the root has advanced 2000 phases.
pub fn proc_step_ns(seed: u64, gate: &mut Gate) -> f64 {
    const ADVANCES: u64 = 2000;
    let seq = Arc::new(AtomicU64::new(0));
    let mut cores: Vec<MbCore> = (0..MB_N)
        .map(|pid| {
            MbCore::new(
                pid,
                8,
                sn_domain(MB_N),
                derive(seed, pid as u64),
                seq.clone(),
            )
        })
        .collect();
    let (mut advances, mut calls, mut rounds) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    while advances < ADVANCES && rounds < 100 * ADVANCES {
        let now = Time::new(rounds as f64);
        for j in 0..MB_N {
            let pred = cores[(j + MB_N - 1) % MB_N].own;
            let core = &mut cores[j];
            core.on_delivery(Delivery::Ok(pred));
            if core.step(now) == Step::Advanced {
                advances += 1;
            }
            calls += 1;
            if core.needs_work() {
                let token = core.work_token;
                core.complete_work(token);
            }
            if core.events.len() > 4096 {
                core.events.clear();
            }
        }
        rounds += 1;
    }
    let ns = t.elapsed().as_nanos() as f64 / calls as f64;
    gate.check(advances >= ADVANCES, || {
        format!("in-memory MB ring advanced {advances} of {ADVANCES} phases")
    });
    ns
}

/// `mp.simnet.msg_ns`: one `SimNet` send, `advance_to` and `pop_inbox`
/// per message over the workload's lossy link.
pub fn simnet_msg_ns(seed: u64) -> f64 {
    let mut net: SimNet<u64> = SimNet::new(vec![lossy_link()], seed);
    let mut now = 0.0;
    per_call_ns(7, 50_000, |i| {
        net.send(0, i);
        now += 0.001;
        net.advance_to(Time::new(now));
        while let Some(d) = net.pop_inbox(0) {
            black_box(d);
        }
    })
}

/// What the bare-engine probe measured on one `sim_tree_faults` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProbe {
    pub events: u64,
    pub phases: u64,
    pub engine_s: f64,
    pub useful_commit_frac: f64,
    /// `measure_phases` wall time minus the bare engine's and the
    /// topology build's: the oracle, latency and causal monitors.
    pub monitor_s: f64,
    pub guard_eval_ns: f64,
    pub build_ms: f64,
}

/// Replay the first `sim_tree_faults` cell of `seed` on a bare
/// `Engine::run` with `NullMonitor` (same program, seeds and
/// `ProcessFaults`, run to the measured run's end time), and time
/// `Protocol::enabled` over every (position, action) of its state at half
/// that time.
pub fn engine(seed: u64) -> EngineProbe {
    let exp = tree_experiment(derive(seed, 0), TREE_PHASES);
    let t = Instant::now();
    let m = measure_phases(&exp);
    let measure_s = t.elapsed().as_secs_f64();

    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(TREE.build().expect("valid topology"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let build_s = median(&builds);
    let program = SweepBarrier::new(TREE.build().expect("valid topology"), exp.n_phases)
        .with_costs(Time::new(exp.c), Time::new(1.0));
    let run_to = |horizon: Time| {
        let mut engine = Engine::new(&program, exp.seed);
        let config = EngineConfig {
            seed: exp.seed ^ 0x5EED,
            max_time: Some(horizon),
            ..Default::default()
        };
        let mut faults = ProcessFaults::new(
            &program,
            exp.f,
            SweepDetectableFault {
                n_phases: exp.n_phases,
            },
        );
        let t = Instant::now();
        let out = engine.run(&config, &mut faults, &mut NullMonitor);
        (engine, out, t.elapsed().as_secs_f64())
    };
    let (_, out, engine_s) = run_to(m.elapsed);
    let s = &out.stats;
    let events = s.actions_executed + s.commits_dropped + s.faults;

    let (mid, _, _) = run_to(Time::new(m.elapsed.as_f64() / 2.0));
    let global = mid.global();
    let pairs: Vec<(usize, usize)> = (0..program.num_processes())
        .flat_map(|p| (0..program.num_actions(p)).map(move |a| (p, a)))
        .collect();
    let guard_eval_ns = per_call_ns(5, 1, |_| {
        for &(p, a) in &pairs {
            black_box(program.enabled(global, p, a));
        }
    }) / pairs.len() as f64;

    EngineProbe {
        events,
        phases: m.phases,
        engine_s,
        useful_commit_frac: s.actions_executed as f64
            / (s.actions_executed + s.commits_dropped) as f64,
        monitor_s: measure_s - engine_s - build_s,
        guard_eval_ns,
        build_ms: build_s * 1e3,
    }
}

/// Mean crossing time of a 2-participant barrier, one participant per
/// thread, threads spawned outside the timed region.
fn crossing_ns<B: Send>(lanes: Vec<B>, crossings: u64, wait: fn(&mut B)) -> f64 {
    let start = std::sync::Barrier::new(lanes.len());
    let times: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = lanes
            .into_iter()
            .map(|mut b| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let t = Instant::now();
                    for _ in 0..crossings {
                        wait(&mut b);
                    }
                    t.elapsed().as_nanos() as f64
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("crossing thread panicked"))
            .collect()
    });
    times.iter().cloned().fold(0.0, f64::max) / crossings as f64
}

/// `runtime.ref.*_crossing_ns`: `FtBarrier`, `TreeBarrier`,
/// `CentralBarrier` and `std::sync::Barrier` at N = 2 (median of 3).
pub fn reference_crossings() -> Vec<(&'static str, f64)> {
    const CROSSINGS: u64 = 20_000;
    let med = |f: &dyn Fn() -> f64| median(&[f(), f(), f()]);
    vec![
        (
            "runtime.ref.ft_crossing_ns",
            med(&|| {
                crossing_ns(FtBarrier::new(2).1, CROSSINGS, |p| {
                    p.arrive().expect("fault-free crossing");
                })
            }),
        ),
        (
            "runtime.ref.tree_crossing_ns",
            med(&|| crossing_ns(TreeBarrier::new(2, 2), CROSSINGS, TreeBarrier::wait)),
        ),
        (
            "runtime.ref.central_crossing_ns",
            med(&|| crossing_ns(CentralBarrier::new(2), CROSSINGS, CentralBarrier::wait)),
        ),
        (
            "runtime.ref.std_crossing_ns",
            med(&|| {
                let b = Arc::new(std::sync::Barrier::new(2));
                crossing_ns(vec![b.clone(), b], CROSSINGS, |b| {
                    b.wait();
                })
            }),
        ),
    ]
}
