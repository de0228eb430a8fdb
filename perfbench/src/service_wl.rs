//! `service_loopback`: an in-process `Server::start(ServerConfig::default())`
//! on 127.0.0.1 and 2 client threads, each holding one `BarrierClient`
//! session in a single group of size 2. Each client arrives again as soon
//! as it sees the release (zero think time). A run is split over several
//! sessions, each on a fresh server. Once a session, client 0 scrapes
//! `/metrics` while the group is held between phases and checks that
//! `server_releases_total` matches the releases the clients observed.

use crate::stats::derive;
use crate::trace::SpanLog;
use crate::workload::{Budget, Opts, Run, Sample};
use crate::Gate;
use ftbarrier_server::{http_get, BarrierClient, Server, ServerConfig};
use ftbarrier_telemetry::prom;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Set-ups per run; the reported set-up time is their median. The middle
/// [`SESSIONS`] of them run the workload.
const SETUP_REPS: usize = 13;
/// Sessions a run's budget is split over, each on a fresh server. With
/// zero think time the shard loop's idle sleep makes round trips bimodal,
/// and the mix of the two modes holds for much of a session; splitting the
/// run draws that mix several times, so the medians over time windows
/// follow the typical session rather than one draw.
const SESSIONS: usize = 10;
/// Mid-run scrapes per session, at evenly spaced points of its budget.
const SCRAPES: usize = 1;
/// Deadline for a join or a release. Round trips take well under 1 ms.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The group name of set-up `rep` (the seed routes it to a shard).
pub fn group_name(seed: u64, rep: u64) -> String {
    format!("bench-{:016x}", derive(seed, rep))
}

/// Check a parsed scrape against the releases the clients observed.
pub fn scrape_gate(body: &str, group: &str, observed: u64) -> Result<(), String> {
    let exp = prom::parse(body).map_err(|(line, msg)| format!("line {line}: {msg}"))?;
    match exp.value("server_releases_total", &[("group", group)]) {
        Some(v) if v == observed as f64 => Ok(()),
        other => Err(format!(
            "server_releases_total = {other:?}, clients observed {observed}"
        )),
    }
}

struct Plan<'a> {
    opts: &'a Opts,
    /// This session's share of the run's budget.
    budget: Budget,
    /// Time the run's earlier sessions measured; this session's samples
    /// follow theirs on one timeline.
    offset: Duration,
    metrics_addr: SocketAddr,
    group: &'a str,
    stop_after: AtomicU64,
    abort: AtomicBool,
}

#[derive(Default)]
struct ClientOut {
    /// Round trip of phase `k` at index `k`.
    rtt: Vec<Sample>,
    elapsed: Duration,
    gate: Gate,
    spans: Option<SpanLog>,
    scrape_ms: Vec<f64>,
    /// Phases whose round trip includes a scrape pause.
    paused: Vec<u64>,
}

/// One completed round trip: phase, before `arrive`, after `arrive`, after
/// the matching `Release`.
type RoundTrip = (u64, Instant, Instant, Instant);

impl ClientOut {
    /// Record a round trip's latency sample and spans.
    fn book(&mut self, t: usize, epoch: Instant, (k, t0, t1, t2): RoundTrip) {
        let rtt = t2.duration_since(t0);
        self.rtt.push(Sample::new(
            t2.duration_since(epoch).as_secs_f64(),
            rtt.as_secs_f64(),
            if t == 0 { 1.0 } else { 0.0 },
            rtt.as_nanos() as f64,
        ));
        if let Some(log) = self.spans.as_mut() {
            let track = if t == 0 { "client-0" } else { "client-1" };
            log.record("server.client.arrive", track, k, t0, t1);
            log.record("server.client.release_wait", track, k, t1, t2);
        }
    }
}

fn drive(t: usize, client: &mut BarrierClient, plan: &Plan) -> ClientOut {
    let opts = plan.opts;
    let start = Instant::now();
    let epoch = start.checked_sub(plan.offset).unwrap_or(start);
    let mut out = ClientOut {
        spans: opts.trace.then(|| SpanLog::new(epoch)),
        ..Default::default()
    };
    let progress = |k: u64| match plan.budget {
        Budget::Seconds(s) => start.elapsed().as_secs_f64() / s,
        Budget::Ops(n) => (k + 1) as f64 / n as f64,
    };
    let mut k = 0u64;
    let mut previous: Option<RoundTrip> = None;
    loop {
        // Client 0 announces the last phase before arriving at it; the
        // phase cannot be released before that arrival.
        if t == 0 && progress(k) >= 1.0 {
            plan.stop_after.store(k, Ordering::SeqCst);
        }
        let wanted = if opts.sabotage && t == 0 && k == 3 {
            k + 1
        } else {
            k
        };
        let t0 = Instant::now();
        let sent = client.arrive(k);
        let t1 = Instant::now();
        // Book the previous round trip while this one is in flight, so
        // neither the bookkeeping nor tracing delays the next arrival
        // (with zero think time, that delay decides whether the shard
        // loop sleeps).
        if let Some(rt) = previous.take() {
            out.book(t, epoch, rt);
        }
        let result = sent.and_then(|()| client.await_release(wanted, TIMEOUT));
        let t2 = Instant::now();
        out.gate.check(result.is_ok(), || {
            format!("client {t} phase {k}: {result:?}")
        });
        if result.is_err() || plan.abort.load(Ordering::SeqCst) {
            plan.abort.store(true, Ordering::SeqCst);
            break;
        }
        previous = Some((k, t0, t1, t2));
        // Between this release and client 0's next arrival the group is
        // held, so the server has released exactly k + 1 phases.
        let due = (out.scrape_ms.len() + 1) as f64 / (SCRAPES + 1) as f64;
        if t == 0 && out.scrape_ms.len() < SCRAPES && progress(k) >= due {
            let s = Instant::now();
            let scraped = http_get(plan.metrics_addr, "/metrics")
                .map_err(|e| e.to_string())
                .and_then(|(_, body)| scrape_gate(&body, plan.group, k + 1));
            let ms = s.elapsed().as_secs_f64() * 1e3;
            out.gate.check(scraped.is_ok(), || {
                format!("scrape after phase {k}: {scraped:?}")
            });
            out.scrape_ms.push(ms);
            out.paused.push(k + 1);
        }
        let done = k >= plan.stop_after.load(Ordering::SeqCst);
        k += 1;
        if done {
            break;
        }
    }
    out.elapsed = start.elapsed();
    if let Some(rt) = previous {
        out.book(t, epoch, rt);
    }
    out
}

/// Start the server and join both clients; the middle [`SESSIONS`]
/// set-ups each run a share of the workload. Set-up ends when both clients
/// hold a sealed session.
pub fn run(opts: &Opts) -> Run {
    let first_session = (SETUP_REPS - SESSIONS) / 2;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut gate = Gate::default();
    let mut samples = Vec::new();
    let mut scrape_ms = Vec::new();
    let mut spans: Option<SpanLog> = None;
    let (mut phases, mut elapsed) = (0u64, Duration::ZERO);
    for rep in 0..SETUP_REPS {
        let session = rep.checked_sub(first_session).filter(|&s| s < SESSIONS);
        let group = group_name(opts.seed, rep as u64);
        let t0 = Instant::now();
        let server = Server::start(ServerConfig::default())
            .unwrap_or_else(|e| crate::fatal(&format!("server start: {e}")));
        let plan = Plan {
            opts,
            budget: session.map_or(opts.budget, |s| opts.budget.share(SESSIONS, s)),
            offset: elapsed,
            metrics_addr: server.metrics_addr(),
            group: &group,
            stop_after: AtomicU64::new(u64::MAX),
            abort: AtomicBool::new(false),
        };
        let ready = Barrier::new(CLIENTS + 1);
        let addr = server.addr();
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let (ready, plan, group) = (&ready, &plan, &group);
                    s.spawn(move || {
                        let joined = BarrierClient::join(addr, group, CLIENTS as u32, TIMEOUT);
                        ready.wait();
                        let mut client = joined
                            .unwrap_or_else(|e| crate::fatal(&format!("client {t} join: {e}")));
                        session.map(|_| drive(t, &mut client, plan))
                    })
                })
                .collect();
            ready.wait();
            setups.push(t0.elapsed().as_secs_f64());
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        server.shutdown();
        if outs.is_empty() {
            continue;
        }

        let released = outs[0].rtt.len() as u64;
        gate.check(outs.iter().all(|o| o.rtt.len() as u64 == released), || {
            format!("session {rep}: clients observed different release counts")
        });
        phases += released;
        elapsed += outs[0].elapsed;
        let paused: BTreeSet<u64> = outs.iter().flat_map(|o| o.paused.clone()).collect();
        for o in outs {
            gate.merge(o.gate);
            samples.extend(o.rtt.iter().enumerate().map(|(k, &s)| {
                if paused.contains(&(k as u64)) {
                    s.without_latency()
                } else {
                    s
                }
            }));
            scrape_ms.extend(o.scrape_ms);
            SpanLog::collect(&mut spans, o.spans);
        }
    }

    let mut layer = crate::report::Metrics::default();
    layer.push(
        "telemetry.prom.scrape_ms",
        crate::stats::median(&scrape_ms),
        "ms",
    );
    Run {
        ops: phases,
        elapsed_s: elapsed.as_secs_f64(),
        samples,
        setup_s: crate::stats::median(&setups),
        host_slowdown: None,
        gate,
        spans,
        counts: BTreeMap::new(),
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(sabotage: bool) -> Opts {
        Opts {
            seed: 5,
            budget: Budget::Ops(200),
            trace: false,
            sabotage,
        }
    }

    #[test]
    fn clean_run_passes_every_gate() {
        let run = run(&opts(false));
        assert!(run.gate.ok(), "{:?}", run.gate.notes);
        assert_eq!(run.ops, 200);
        let scrapes = SESSIONS * SCRAPES;
        assert_eq!(
            run.latency_count(),
            2 * (200 - scrapes),
            "paused phases dropped"
        );
    }

    #[test]
    fn out_of_order_release_is_caught() {
        let run = run(&opts(true));
        assert!(!run.gate.ok());
    }

    #[test]
    fn scrape_gate_compares_release_counts() {
        let body = "# TYPE server_releases_total counter\n\
                    server_releases_total{group=\"g\"} 7\n";
        assert!(scrape_gate(body, "g", 7).is_ok());
        assert!(scrape_gate(body, "g", 8).is_err());
        assert!(scrape_gate(body, "h", 7).is_err());
        assert!(scrape_gate("not { an exposition", "g", 7).is_err());
    }
}
