//! The traced run: per-layer metrics for every layer. It is the same run
//! whichever workload was named, since every layer's metrics are reported.
//!
//! Each of the four workloads runs four times on the same fixed work (same
//! seed, same operation count): untraced, traced with spans around every
//! call into a layer, traced, untraced. The difference in wall time is the
//! tracing overhead, and every exact count must agree between the four
//! runs. The standalone probes of [`crate::probes`] then fill in the layers
//! the workloads only reach through other layers.

use crate::probes;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::SpanLog;
use crate::workload::{Budget, Opts, Workload};
use crate::Gate;

/// Every per-layer metric a traced run reports, with its unit, in the
/// order of `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.parallelism_ratio", "ratio"),
    ("trace.overhead.runtime_tree32", "ratio"),
    ("trace.overhead.service_loopback", "ratio"),
    ("trace.overhead.sim_tree_faults", "ratio"),
    ("trace.overhead.simnet_mb_lossy", "ratio"),
    ("runtime.enter_ns", "ns"),
    ("runtime.leave_wait_ns_p50", "ns"),
    ("runtime.leave_wait_ns_p99", "ns"),
    ("runtime.repeat_frac", "ratio"),
    ("runtime.word.store_load_ns", "ns"),
    ("runtime.ref.ft_crossing_ns", "ns"),
    ("runtime.ref.tree_crossing_ns", "ns"),
    ("runtime.ref.central_crossing_ns", "ns"),
    ("runtime.ref.std_crossing_ns", "ns"),
    ("telemetry.causal.record_ns", "ns"),
    ("telemetry.prom.scrape_ms", "ms"),
    ("server.release_p50_us", "us"),
    ("server.client.arrive_us", "us"),
    ("server.client.release_wait_us_p50", "us"),
    ("server.client.release_wait_us_p99", "us"),
    ("server.wire.encode_ns", "ns"),
    ("server.wire.decode_ns", "ns"),
    ("mp.socket.frame_push_ns", "ns"),
    ("server.group.arrive_ns", "ns"),
    ("server.group.tick_us", "us"),
    ("server.poll_gap_us", "us"),
    ("mp.proc.step_ns", "ns"),
    ("mp.simnet.msg_ns", "ns"),
    ("mp.simnet.delivered_frac", "ratio"),
    ("mp.mb_sim.events_per_s", "1/s"),
    ("mp.mb_sim.msgs_per_phase", "count"),
    ("mp.mb_sim.trace_bytes_per_phase", "count"),
    ("gcs.engine.events_per_s", "1/s"),
    ("gcs.engine.events_per_phase", "count"),
    ("gcs.engine.useful_commit_frac", "ratio"),
    ("core.sim.monitor_s", "s"),
    ("core.sweep.guard_eval_ns", "ns"),
    ("core.sim.instances_per_phase", "count"),
    ("core.sim.faults_per_phase", "count"),
    ("topology.build_ms", "ms"),
];

/// Operations per run of a traced slice (episodes, phases, cells), about
/// half a second each on a 2-vCPU host.
fn slice_ops(w: Workload) -> u64 {
    match w {
        Workload::RuntimeTree32 => 8_000,
        Workload::ServiceLoopback => 1_500,
        Workload::SimTreeFaults => 2,
        Workload::SimnetMbLossy => 6,
    }
}

pub struct Traced {
    pub metrics: Metrics,
    pub gate: Gate,
    pub spans: SpanLog,
}

pub fn run(seed: u64, sabotage: bool) -> Traced {
    let mut m = Metrics::default();
    let mut gate = Gate::default();
    let mut all_spans: Option<SpanLog> = None;
    m.push(
        "host.parallelism_ratio",
        crate::host::parallelism_ratio(),
        "ratio",
    );

    for w in Workload::ALL {
        let plain = Opts {
            seed,
            budget: Budget::Ops(slice_ops(w)),
            trace: false,
            sabotage,
        };
        let traced = Opts {
            trace: true,
            ..plain
        };
        // Untraced and traced runs of the same work, in the order
        // plain, traced, traced, plain, so host drift cancels in the
        // overhead.
        let runs = [w.run(&plain), w.run(&traced), w.run(&traced), w.run(&plain)];
        for other in &runs[1..] {
            gate.check(other.counts == runs[0].counts, || {
                format!(
                    "{}: counts {:?} then {:?}",
                    w.name(),
                    runs[0].counts,
                    other.counts
                )
            });
        }
        let [plain_a, mut traced, mut traced_b, plain_b] = runs;
        m.push(
            format!("trace.overhead.{}", w.name()),
            (traced.elapsed_s + traced_b.elapsed_s) / (plain_a.elapsed_s + plain_b.elapsed_s) - 1.0,
            "ratio",
        );
        SpanLog::collect(&mut traced.spans, traced_b.spans.take());
        let spans = traced.spans.as_ref().expect("traced run records spans");
        let count = |name: &str| traced.counts.get(name).copied().unwrap_or(f64::NAN);
        match w {
            Workload::RuntimeTree32 => {
                m.push(
                    "runtime.enter_ns",
                    spans.dist_ns("runtime.enter").median(),
                    "ns",
                );
                let leave = spans.dist_ns("runtime.leave");
                m.push("runtime.leave_wait_ns_p50", leave.median(), "ns");
                m.push("runtime.leave_wait_ns_p99", leave.q(0.99), "ns");
                m.push("runtime.repeat_frac", count("runtime.repeat_frac"), "ratio");
            }
            Workload::ServiceLoopback => {
                let arrive = spans.dist_ns("server.client.arrive").median() / 1e3;
                let wait = spans.dist_ns("server.client.release_wait");
                let release_p50 = median(&[plain_a.latency_ns(0.5), plain_b.latency_ns(0.5)]) / 1e3;
                m.push("server.release_p50_us", release_p50, "us");
                m.push("server.client.arrive_us", arrive, "us");
                m.push(
                    "server.client.release_wait_us_p50",
                    wait.median() / 1e3,
                    "us",
                );
                m.push(
                    "server.client.release_wait_us_p99",
                    wait.q(0.99) / 1e3,
                    "us",
                );
                m.0.extend(traced.layer.0.iter().cloned());

                let (encode, decode, push) = probes::wire_ns();
                let (group_arrive, group_tick) = probes::group(&mut gate);
                m.push("server.wire.encode_ns", encode, "ns");
                m.push("server.wire.decode_ns", decode, "ns");
                m.push("mp.socket.frame_push_ns", push, "ns");
                m.push("server.group.arrive_ns", group_arrive, "ns");
                m.push("server.group.tick_us", group_tick, "us");
                // The calls on one round trip's blocking path: the client's
                // write, two frames each encoded, pushed and decoded
                // (Arrive up, Release down), both members' arrivals and one
                // tick. The rest of the round trip is the server's polling.
                let calls_us = arrive
                    + 2.0 * (encode + decode + push) / 1e3
                    + 2.0 * group_arrive / 1e3
                    + group_tick;
                m.push("server.poll_gap_us", release_p50 - calls_us, "us");
            }
            Workload::SimTreeFaults => {
                m.push(
                    "core.sim.instances_per_phase",
                    count("core.sim.instances") / count("phases"),
                    "count",
                );
                m.push(
                    "core.sim.faults_per_phase",
                    count("core.sim.faults") / count("phases"),
                    "count",
                );
                let e = probes::engine(seed);
                let again = probes::engine(seed);
                gate.check(e.events == again.events && e.phases == again.phases, || {
                    format!("bare engine events {} then {}", e.events, again.events)
                });
                m.push(
                    "gcs.engine.events_per_s",
                    e.events as f64 / e.engine_s,
                    "1/s",
                );
                m.push(
                    "gcs.engine.events_per_phase",
                    e.events as f64 / e.phases as f64,
                    "count",
                );
                m.push(
                    "gcs.engine.useful_commit_frac",
                    e.useful_commit_frac,
                    "ratio",
                );
                m.push("core.sim.monitor_s", e.monitor_s, "s");
                m.push("core.sweep.guard_eval_ns", e.guard_eval_ns, "ns");
                m.push("topology.build_ms", e.build_ms, "ms");
            }
            Workload::SimnetMbLossy => {
                let wall = spans.dist_ns("mp.mb_sim.run").sum() * 1e-9;
                m.push(
                    "mp.mb_sim.events_per_s",
                    count("mp.mb_sim.events") / wall,
                    "1/s",
                );
                m.push(
                    "mp.mb_sim.msgs_per_phase",
                    count("mp.mb_sim.msgs") / count("phases"),
                    "count",
                );
                m.push(
                    "mp.mb_sim.trace_bytes_per_phase",
                    count("mp.mb_sim.trace_bytes") / count("phases"),
                    "count",
                );
                m.push(
                    "mp.simnet.delivered_frac",
                    count("mp.simnet.delivered") / count("mp.simnet.sent"),
                    "ratio",
                );
                m.push("mp.simnet.msg_ns", probes::simnet_msg_ns(seed), "ns");
                m.push(
                    "mp.proc.step_ns",
                    probes::proc_step_ns(seed, &mut gate),
                    "ns",
                );
            }
        }
        for run in [plain_a, traced_b, plain_b] {
            gate.merge(run.gate);
        }
        gate.merge(traced.gate);
        SpanLog::collect(&mut all_spans, traced.spans);
    }

    m.push(
        "runtime.word.store_load_ns",
        probes::word_store_load_ns(),
        "ns",
    );
    m.push(
        "telemetry.causal.record_ns",
        probes::causal_record_ns(),
        "ns",
    );
    for (name, ns) in probes::reference_crossings() {
        m.push(name, ns, "ns");
    }
    let mut emitted: Vec<(&str, &str)> = m.0.iter().map(|x| (x.name.as_str(), x.unit)).collect();
    let mut listed = PER_LAYER.to_vec();
    emitted.sort_unstable();
    listed.sort_unstable();
    gate.check(emitted == listed, || {
        format!("traced metrics {emitted:?} differ from the per-layer list")
    });
    Traced {
        metrics: m,
        gate,
        spans: all_spans.expect("four workloads traced"),
    }
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// `BENCHMARK.json` lists exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in PER_LAYER {
            assert!(listed(name, unit), "{name} ({unit}) missing");
        }
        let e2e = crate::workload::E2E;
        for (name, unit) in e2e {
            assert!(listed(name, unit), "{name} ({unit}) missing");
        }
        let entries = json.matches("\"better\"").count();
        assert_eq!(entries, PER_LAYER.len() + e2e.len(), "no other metrics");
    }
}
