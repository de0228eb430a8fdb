//! The long-running barrier server.
//!
//! Three kinds of threads share one [`Telemetry`] handle:
//!
//! * the **acceptor** reads each new connection's `Join` frame and routes
//!   the session to a shard by group-name hash;
//! * **shard workers** own disjoint sets of groups: they seal pending
//!   groups into [`BarrierGroup`]s, pump nonblocking session reads, tick
//!   the rings, and broadcast `Release` frames;
//! * the **metrics** thread serves a hand-rolled HTTP/1.1 `GET /metrics`
//!   with the Prometheus text exposition (no HTTP dependency — the
//!   protocol subset needed is a request line and two headers).
//!
//! Session faults map onto the paper's fault classes: EOF and write errors
//! are detectable faults (immediate splice), silence falls to the
//! heartbeat detector, and an orderly `Leave` is treated exactly like a
//! crash — the ring closes over the survivors either way.

use crate::group::{BarrierGroup, GroupConfig, KillOutcome};
use crate::wire::{ClientFrame, ServerFrame};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ftbarrier_mp::socket::FrameReader;
use ftbarrier_runtime::detector::{Clock, WallClock};
use ftbarrier_telemetry::export::PROMETHEUS_CONTENT_TYPE;
use ftbarrier_telemetry::{to_prometheus, Telemetry, TimeDomain};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Client listener address (`port 0` for ephemeral).
    pub addr: String,
    /// Metrics listener address (`port 0` for ephemeral).
    pub metrics_addr: String,
    /// Worker shard count (groups hash onto shards).
    pub shards: usize,
    /// Read deadline for a new connection's `Join` frame.
    pub join_timeout: Duration,
    /// Per-group tuning (detector profile, wedge timeout, ...).
    pub group: GroupConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            shards: 2,
            join_timeout: Duration::from_secs(5),
            group: GroupConfig::default(),
        }
    }
}

/// Shared mutable server state (log, flight dumps, gauges).
struct Shared {
    stop: AtomicBool,
    clock: Arc<WallClock>,
    telemetry: Telemetry,
    log: Mutex<Vec<String>>,
    last_flight: Mutex<Option<String>>,
    sessions_active: AtomicI64,
    groups_active: AtomicI64,
}

impl Shared {
    fn log(&self, line: impl AsRef<str>) {
        let stamped = format!("[{:9.3}] {}", self.clock.now(), line.as_ref());
        self.log.lock().push(stamped);
    }

    /// Refresh the gauges from the atomics (called at scrape time so the
    /// exposition is always current).
    fn sync_gauges(&self) {
        self.telemetry.gauge(
            "server_sessions_active",
            &[],
            self.sessions_active.load(Ordering::Acquire) as f64,
        );
        self.telemetry.gauge(
            "server_groups_active",
            &[],
            self.groups_active.load(Ordering::Acquire) as f64,
        );
    }
}

/// A routed session: the acceptor read the `Join`, a shard owns the rest.
struct NewSession {
    session: Session,
    group: String,
    size: u32,
}

/// Handle to a running server. Dropping it does *not* stop the threads;
/// call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind both listeners and start every thread.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        assert!(cfg.shards >= 1, "need at least one shard");
        let listener = TcpListener::bind(&cfg.addr)?;
        let metrics_listener = TcpListener::bind(&cfg.metrics_addr)?;
        let addr = listener.local_addr()?;
        let metrics_addr = metrics_listener.local_addr()?;
        listener.set_nonblocking(true)?;
        metrics_listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            clock: WallClock::start(),
            telemetry: Telemetry::recording(TimeDomain::Wall),
            log: Mutex::new(Vec::new()),
            last_flight: Mutex::new(None),
            sessions_active: AtomicI64::new(0),
            groups_active: AtomicI64::new(0),
        });
        shared.log(format!(
            "listening on {addr} (metrics {metrics_addr}, {} shards)",
            cfg.shards
        ));

        let mut threads = Vec::new();
        let mut senders: Vec<Sender<NewSession>> = Vec::new();
        for shard in 0..cfg.shards {
            let (tx, rx) = unbounded();
            senders.push(tx);
            let shared = shared.clone();
            let group_cfg = cfg.group.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("ftb-shard-{shard}"))
                    .spawn(move || shard_loop(shard, rx, shared, group_cfg))
                    .expect("spawn shard"),
            );
        }
        {
            let shared = shared.clone();
            let join_timeout = cfg.join_timeout;
            threads.push(
                thread::Builder::new()
                    .name("ftb-accept".into())
                    .spawn(move || accept_loop(listener, senders, shared, join_timeout))
                    .expect("spawn acceptor"),
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("ftb-metrics".into())
                    .spawn(move || metrics_loop(metrics_listener, shared))
                    .expect("spawn metrics"),
            );
        }
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            threads,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Render the current Prometheus exposition (same text `/metrics`
    /// serves).
    pub fn render_metrics(&self) -> String {
        self.shared.sync_gauges();
        to_prometheus(&self.shared.telemetry.snapshot())
    }

    /// The most recent group flight dump, if any group wedged.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.shared.last_flight.lock().clone()
    }

    /// The timestamped server log.
    pub fn log_snapshot(&self) -> String {
        self.shared.log.lock().join("\n")
    }

    /// Stop every thread and wait for them.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.log("shutdown complete");
    }
}

/// FNV-1a over the group name, for shard routing.
fn shard_of(group: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in group.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Blocking-read the first frame, waiting at most `timeout` per read.
/// Returns its body, the reader (it may hold part of a later frame) and
/// every later frame the same reads completed: a client may pipeline
/// frames behind its `Join`. `None` on timeout, EOF, or a malformed frame.
fn read_first_frame(
    stream: &mut TcpStream,
    timeout: Duration,
) -> Option<(Vec<u8>, FrameReader, Vec<Vec<u8>>)> {
    stream.set_read_timeout(Some(timeout)).ok()?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    let mut bodies = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => {
                reader.push(&buf[..n], &mut bodies).ok()?;
                if !bodies.is_empty() {
                    let first = bodies.remove(0);
                    return Some((first, reader, bodies));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// Write a whole frame to a (possibly nonblocking) socket, spinning
/// briefly on `WouldBlock`. Frames are tiny; a full send buffer for more
/// than `timeout` counts as a dead peer.
fn write_frame(stream: &mut TcpStream, frame: &[u8], timeout: Duration) -> std::io::Result<()> {
    let mut written = 0;
    let mut waited = Duration::ZERO;
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if waited >= timeout {
                    return Err(ErrorKind::TimedOut.into());
                }
                let step = Duration::from_millis(1);
                thread::sleep(step);
                waited += step;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

fn accept_loop(
    listener: TcpListener,
    shards: Vec<Sender<NewSession>>,
    shared: Arc<Shared>,
    join_timeout: Duration,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, peer)) => {
                let _ = stream.set_nodelay(true);
                let Some((body, reader, backlog)) = read_first_frame(&mut stream, join_timeout)
                else {
                    shared.log(format!("{peer}: dropped before a Join frame"));
                    continue;
                };
                match ClientFrame::decode(&body) {
                    Some(ClientFrame::Join { group, size }) if size >= 2 => {
                        let shard = shard_of(&group, shards.len());
                        shared.log(format!(
                            "{peer}: join group={group:?} size={size} -> shard {shard}"
                        ));
                        shared
                            .telemetry
                            .counter("server_sessions_opened_total", &[], 1);
                        shared.sessions_active.fetch_add(1, Ordering::AcqRel);
                        let _ = shards[shard].send(NewSession {
                            session: Session {
                                stream,
                                reader,
                                backlog,
                            },
                            group,
                            size,
                        });
                    }
                    other => {
                        shared.log(format!("{peer}: bad first frame {other:?}"));
                        let bye = ServerFrame::Bye {
                            reason: "expected Join".into(),
                        }
                        .to_frame();
                        let _ = write_frame(&mut stream, &bye, WRITE_TIMEOUT);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                shared.log(format!("accept error: {e}"));
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One connected member of a group, from its `Join` on.
struct Session {
    stream: TcpStream,
    /// The frame parser that read the `Join`: it may already hold part of
    /// the next frame.
    reader: FrameReader,
    /// Frames that arrived with the `Join`, applied by the first pump
    /// after the group seals.
    backlog: Vec<Vec<u8>>,
}

/// A group waiting for its declared size to be reached.
struct PendingGroup {
    size: u32,
    sessions: Vec<Session>,
}

/// A sealed, running group.
struct ActiveGroup {
    name: String,
    group: BarrierGroup,
    sessions: Vec<Option<Session>>,
    last_release_at: f64,
}

impl ActiveGroup {
    fn live_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_some()).count()
    }
}

fn shard_loop(shard: usize, rx: Receiver<NewSession>, shared: Arc<Shared>, group_cfg: GroupConfig) {
    let mut pending: HashMap<String, PendingGroup> = HashMap::new();
    let mut groups: Vec<ActiveGroup> = Vec::new();

    while !shared.stop.load(Ordering::Acquire) {
        // 1. Seat newly routed sessions; seal groups that reached size.
        while let Ok(new) = rx.try_recv() {
            seat_session(new, &mut pending, &mut groups, &shared, &group_cfg);
        }

        // 2. Pump every active group.
        let mut idle = true;
        groups.retain_mut(|g| {
            let keep = pump_group(g, &shared, &mut idle);
            if !keep {
                shared.groups_active.fetch_sub(1, Ordering::AcqRel);
                shared.log(format!(
                    "shard {shard}: group {:?} closed after {} phases",
                    g.name,
                    g.group.phases_released()
                ));
            }
            keep
        });

        if idle {
            thread::sleep(Duration::from_micros(300));
        }
    }

    // Orderly shutdown: tell every surviving client.
    let bye = ServerFrame::Bye {
        reason: "server shutting down".into(),
    }
    .to_frame();
    for g in &mut groups {
        for s in g.sessions.iter_mut().flatten() {
            let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
        }
    }
}

fn seat_session(
    new: NewSession,
    pending: &mut HashMap<String, PendingGroup>,
    groups: &mut Vec<ActiveGroup>,
    shared: &Arc<Shared>,
    group_cfg: &GroupConfig,
) {
    let NewSession {
        session,
        group,
        size,
    } = new;
    let refuse = |Session { mut stream, .. }: Session, reason: &str| {
        let bye = ServerFrame::Bye {
            reason: reason.into(),
        }
        .to_frame();
        let _ = write_frame(&mut stream, &bye, WRITE_TIMEOUT);
        shared.sessions_active.fetch_sub(1, Ordering::AcqRel);
        shared
            .telemetry
            .counter("server_sessions_closed_total", &[], 1);
    };
    if groups.iter().any(|g| g.name == group) {
        refuse(session, "group already running");
        return;
    }
    let entry = pending.entry(group.clone()).or_insert(PendingGroup {
        size,
        sessions: Vec::new(),
    });
    if entry.size != size {
        refuse(session, "size disagrees with the group's declared size");
        return;
    }
    if entry.sessions.len() as u32 + 1 > entry.size {
        refuse(session, "group is full");
        return;
    }
    let _ = session.stream.set_nonblocking(true);
    entry.sessions.push(session);
    if entry.sessions.len() as u32 == entry.size {
        let PendingGroup { size, sessions } = pending.remove(&group).expect("just inserted");
        let barrier = BarrierGroup::new(
            size as usize,
            group_cfg,
            shared.clock.clone() as Arc<dyn Clock>,
            shared.telemetry.clone(),
        );
        let mut seats: Vec<Option<Session>> = Vec::new();
        for (member, mut session) in sessions.into_iter().enumerate() {
            let welcome = ServerFrame::Welcome {
                member: member as u32,
                size,
            }
            .to_frame();
            let ok = write_frame(&mut session.stream, &welcome, WRITE_TIMEOUT).is_ok();
            seats.push(ok.then_some(session));
        }
        shared.groups_active.fetch_add(1, Ordering::AcqRel);
        shared.log(format!("group {group:?} sealed with {size} members"));
        let now = shared.clock.now();
        groups.push(ActiveGroup {
            name: group,
            group: barrier,
            sessions: seats,
            last_release_at: now,
        });
    }
}

/// Drain a session's socket, applying frames to the group. Returns `false`
/// if the session died (EOF, error, malformed frame, or `Leave`).
fn drain_session(member: usize, s: &mut Session, group: &mut BarrierGroup) -> bool {
    let mut buf = [0u8; 4096];
    let mut bodies = std::mem::take(&mut s.backlog);
    loop {
        match s.stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => {
                if s.reader.push(&buf[..n], &mut bodies).is_err() {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    for body in bodies {
        match ClientFrame::decode(&body) {
            Some(ClientFrame::Arrive { .. }) => group.arrive(member),
            Some(ClientFrame::Ping) => group.heartbeat(member),
            Some(ClientFrame::Leave) | Some(ClientFrame::Join { .. }) | None => return false,
        }
    }
    true
}

/// One scheduling pass over an active group. Returns `false` when the
/// group should be torn down (root died or every session is gone).
fn pump_group(g: &mut ActiveGroup, shared: &Arc<Shared>, idle: &mut bool) -> bool {
    // Read every live session.
    let mut dead_members = Vec::new();
    for (member, slot) in g.sessions.iter_mut().enumerate() {
        if let Some(s) = slot {
            if !drain_session(member, s, &mut g.group) {
                dead_members.push(member);
            }
        }
    }
    let close = |shared: &Arc<Shared>| {
        shared.sessions_active.fetch_sub(1, Ordering::AcqRel);
        shared
            .telemetry
            .counter("server_sessions_closed_total", &[], 1);
    };
    for member in dead_members {
        g.sessions[member] = None;
        close(shared);
        match g.group.kill(member) {
            KillOutcome::Spliced => {
                *idle = false;
                shared.log(format!(
                    "group {:?}: member {member} vanished, spliced (epoch {})",
                    g.name,
                    g.group.epoch()
                ));
            }
            KillOutcome::RootDied => {
                shared.log(format!(
                    "group {:?}: root session died, tearing the group down",
                    g.name
                ));
                teardown(g, shared, "root died");
                return false;
            }
            KillOutcome::AlreadyDead => {}
        }
    }

    // Tick the ring.
    let tick = g.group.tick();
    for member in tick.spliced {
        shared.log(format!(
            "group {:?}: member {member} silent, spliced by the detector (epoch {})",
            g.name,
            g.group.epoch()
        ));
        if let Some(mut s) = g.sessions[member].take() {
            let bye = ServerFrame::Bye {
                reason: "spliced: heartbeat timeout".into(),
            }
            .to_frame();
            let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
            close(shared);
        }
        *idle = false;
    }
    if let Some(dump) = tick.flight_dump {
        shared.log(format!(
            "group {:?}: WEDGED after {} phases; flight dump captured ({} bytes)",
            g.name,
            g.group.phases_released(),
            dump.len()
        ));
        *shared.last_flight.lock() = Some(dump);
    }
    for release in &tick.releases {
        *idle = false;
        let now = shared.clock.now();
        shared.telemetry.observe(
            "runtime_phase_duration",
            &[("group", &g.name), ("outcome", "advance")],
            (now - g.last_release_at).max(0.0),
        );
        g.last_release_at = now;
        shared
            .telemetry
            .counter("server_releases_total", &[("group", &g.name)], 1);
        let frame = ServerFrame::Release {
            phase: release.phase,
            epoch: release.epoch,
            live: release.live,
        }
        .to_frame();
        for s in g.sessions.iter_mut().flatten() {
            if write_frame(&mut s.stream, &frame, WRITE_TIMEOUT).is_err() {
                // Broken pipe: certain death, handled next pass.
                let _ = s.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    if g.live_sessions() == 0 {
        return false;
    }
    true
}

/// Send `Bye` to every surviving session and count them closed.
fn teardown(g: &mut ActiveGroup, shared: &Arc<Shared>, reason: &str) {
    let bye = ServerFrame::Bye {
        reason: reason.into(),
    }
    .to_frame();
    for slot in g.sessions.iter_mut() {
        if let Some(mut s) = slot.take() {
            let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
            shared.sessions_active.fetch_sub(1, Ordering::AcqRel);
            shared
                .telemetry
                .counter("server_sessions_closed_total", &[], 1);
        }
    }
}

/// Minimal HTTP/1.1 server for `GET /metrics`: request line + headers in,
/// one response out, `Connection: close`. Hand-rolled on purpose — the
/// workspace vendors no HTTP stack and the Prometheus scrape protocol
/// needs none.
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let mut raw = Vec::new();
                let mut buf = [0u8; 1024];
                // Read until the header terminator (requests have no body).
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            raw.extend_from_slice(&buf[..n]);
                            if raw.windows(4).any(|w| w == b"\r\n\r\n") || raw.len() > 8192 {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                let request_line = raw
                    .split(|&b| b == b'\r' || b == b'\n')
                    .next()
                    .map(|l| String::from_utf8_lossy(l).into_owned())
                    .unwrap_or_default();
                let mut parts = request_line.split_whitespace();
                let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                let response = if method == "GET" && path == "/metrics" {
                    shared.sync_gauges();
                    let body = to_prometheus(&shared.telemetry.snapshot());
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                } else {
                    let body = "not found\n";
                    format!(
                        "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                };
                let _ = stream.write_all(response.as_bytes());
                let _ = stream.flush();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in 1..5 {
            for name in ["alpha", "beta", "γ", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards));
            }
        }
    }
}
