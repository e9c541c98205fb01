//! The daemon: accept loop, worker pool, fork-per-request serving,
//! metrics endpoint, graceful shutdown.
//!
//! ## Request lifecycle
//!
//! 1. The accept thread takes a connection. If the bounded queue is
//!    full the connection is *shed* — answered `ERR 429 queue-full`
//!    and closed without ever reaching a worker. Backpressure is a
//!    fast typed refusal, never an unbounded queue.
//! 2. A worker pops the connection and serves request lines in order.
//!    For a `RUN`: parse → payload cap → base lookup → tenant
//!    admission (concurrency, frames, budget clamp) → fork a
//!    copy-on-write child from the warm base → inject payload → boot →
//!    run under the cycle budget → capture console → **reap the child
//!    before writing the response** (a reply certifies the resources
//!    are already back).
//! 3. Shutdown: the stop flag flips, the accept thread closes, workers
//!    refuse new work with `ERR 503 draining`, in-flight runs complete
//!    (they are cycle-bounded, so this terminates), and the report
//!    counts any leaked children — proven zero in tests.

use crate::base::{run_payload, RunOutput, WarmBase};
use crate::proto::{ok_line, parse_request, read_line_bounded, LineReader, Request, RequestError};
use crate::stats::DaemonStats;
use crate::tenant::{Admission, TenantQuota};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vax_snap::restore_monitor;

/// Daemon tuning knobs. `Default` suits tests and local serving.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to serve requests on (port 0 = ephemeral).
    pub listen: SocketAddr,
    /// Address for the `/metrics` HTTP endpoint (port 0 = ephemeral).
    pub metrics_listen: SocketAddr,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections the accept queue holds before shedding.
    pub accept_queue: usize,
    /// Host-wide ceiling on concurrently live forked children.
    pub max_live_children: u32,
    /// Per-request payload byte cap (pre-admission).
    pub max_payload: usize,
    /// Quota for tenants without an override.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: HashMap<String, TenantQuota>,
    /// How long [`Daemon::shutdown`] waits for in-flight work.
    pub drain_deadline: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            listen: "127.0.0.1:0".parse().unwrap_or_else(|_| unreachable!()),
            metrics_listen: "127.0.0.1:0".parse().unwrap_or_else(|_| unreachable!()),
            workers: 4,
            accept_queue: 32,
            max_live_children: 16,
            max_payload: 16 * 1024,
            default_quota: TenantQuota::default(),
            tenant_quotas: HashMap::new(),
            drain_deadline: Duration::from_secs(10),
        }
    }
}

/// What [`Daemon::shutdown`] observed while draining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// All in-flight work finished inside the drain deadline.
    pub drained_in_deadline: bool,
    /// Requests in flight when the deadline expired (0 if drained).
    pub in_flight_at_deadline: u64,
    /// Copy-on-write children still referencing a base after the drain
    /// — forks never reaped. 0 on a healthy daemon.
    pub children_leaked: u64,
}

struct AcceptQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

struct Inner {
    bases: Mutex<HashMap<String, WarmBase>>,
    admission: Arc<Admission>,
    stats: DaemonStats,
    stop: AtomicBool,
    in_flight: AtomicU64,
    accept: AcceptQueue,
    max_payload: usize,
    /// Request lines are bounded a little above the payload cap
    /// (hex doubles it; verb + tenant + base + budget ride along).
    max_line: usize,
}

impl Inner {
    /// Arc strong references on the frozen bases beyond each parent's
    /// own, minus children legitimately in flight — forks that were
    /// never reaped.
    fn leaked_children(&self) -> u64 {
        let extra: u64 = lock_unpoisoned(&self.bases)
            .values()
            .map(|b| {
                b.parent_mem()
                    .base_ref_count()
                    .map_or(0, |n| n.saturating_sub(1) as u64)
            })
            .sum();
        extra.saturating_sub(self.stats.children_live())
    }
}

/// A running daemon: listeners, worker pool, warm bases.
pub struct Daemon {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    metrics_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    drain_deadline: Duration,
}

impl Daemon {
    /// Binds both listeners, spawns the accept thread, the metrics
    /// thread, and the worker pool, and starts serving `bases`.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start(config: DaemonConfig, bases: Vec<WarmBase>) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(config.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = TcpListener::bind(config.metrics_listen)?;
        metrics_listener.set_nonblocking(true)?;
        let metrics_addr = metrics_listener.local_addr()?;

        let mut base_map = HashMap::new();
        for base in bases {
            base_map.insert(base.name().to_string(), base);
        }
        let inner = Arc::new(Inner {
            bases: Mutex::new(base_map),
            admission: Arc::new(Admission::new(
                config.default_quota,
                config.tenant_quotas.clone(),
                config.max_live_children,
            )),
            stats: DaemonStats::default(),
            stop: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            accept: AcceptQueue {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            max_payload: config.max_payload,
            max_line: config.max_payload * 2 + 256,
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            let cap = config.accept_queue;
            threads.push(std::thread::spawn(move || {
                accept_loop(&inner, &listener, cap);
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                metrics_loop(&inner, &metrics_listener);
            }));
        }
        for _ in 0..config.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        Ok(Daemon {
            inner,
            local_addr,
            metrics_addr,
            threads,
            drain_deadline: config.drain_deadline,
        })
    }

    /// The request listener's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The metrics endpoint's bound address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// True once shutdown has been requested (via [`Daemon::shutdown`]
    /// or a client `SHUTDOWN` line).
    pub fn stop_requested(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// A metrics snapshot (the same registry `/metrics` renders).
    pub fn metrics(&self) -> vax_obs::Metrics {
        self.inner
            .stats
            .to_metrics(&self.inner.admission.usage(), self.inner.leaked_children())
    }

    /// `(base Arc strong count, parent resident overlay pages)` for the
    /// named base — the fork-reap hygiene seam tests assert on.
    pub fn base_mem_stats(&self, name: &str) -> Option<(Option<usize>, u32)> {
        lock_unpoisoned(&self.inner.bases).get(name).map(|b| {
            (
                b.parent_mem().base_ref_count(),
                b.parent_mem().resident_pages(),
            )
        })
    }

    /// Runs `payload` standalone against the named base's snapshot —
    /// the bit-identity oracle for served responses.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnknownBase`] plus anything
    /// [`WarmBase::run_standalone`] raises.
    pub fn run_standalone(
        &self,
        base: &str,
        payload: &[u8],
        budget: u64,
    ) -> Result<RunOutput, RequestError> {
        let snapshot = lock_unpoisoned(&self.inner.bases)
            .get(base)
            .map(|b| b.snapshot_bytes().to_vec())
            .ok_or_else(|| RequestError::UnknownBase(base.to_string()))?;
        let mut monitor = restore_monitor(&snapshot)
            .map_err(|_| RequestError::BadRequest("base snapshot unrestorable"))?;
        run_payload(&mut monitor, payload, budget)
    }

    /// Graceful shutdown: stop accepting, refuse new requests with
    /// `503 draining`, wait (up to the drain deadline) for in-flight
    /// requests, join every thread, and report leak status.
    ///
    /// Joining always terminates: runs are cycle-bounded and idle
    /// reads time out, so workers observe the stop flag promptly.
    pub fn shutdown(self) -> ShutdownReport {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.accept.ready.notify_all();
        let deadline = Instant::now() + self.drain_deadline;
        let mut drained = true;
        let mut in_flight_at_deadline = 0;
        loop {
            let in_flight = self.inner.in_flight.load(Ordering::SeqCst);
            if in_flight == 0 {
                break;
            }
            if Instant::now() >= deadline {
                drained = false;
                in_flight_at_deadline = in_flight;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for t in self.threads {
            let _ = t.join();
        }
        ShutdownReport {
            drained_in_deadline: drained,
            in_flight_at_deadline,
            children_leaked: self.inner.leaked_children(),
        }
    }
}

fn accept_loop(inner: &Inner, listener: &TcpListener, queue_cap: usize) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // One logical line per write; never let Nagle hold a
                // response back waiting for a delayed ACK.
                let _ = stream.set_nodelay(true);
                let mut queue = lock_unpoisoned(&inner.accept.queue);
                if queue.len() >= queue_cap {
                    drop(queue);
                    inner.stats.requests_shed.fetch_add(1, Ordering::Relaxed);
                    shed(stream);
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    inner.accept.ready.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Refuses a shed connection with the 429 line; best-effort.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let line = format!("{}\n", RequestError::Shed.to_line());
    let _ = stream.write_all(line.as_bytes());
}

fn worker_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut queue = lock_unpoisoned(&inner.accept.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = inner
                    .accept
                    .ready
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                queue = q;
            }
        };
        match stream {
            Some(s) => serve_connection(inner, s),
            None => return,
        }
    }
}

/// Serves request lines on one connection until EOF, a protocol error,
/// or shutdown.
fn serve_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Stateful line reader: a read timeout (the stop-flag polling
    // interval) must not drop a partially received line.
    let mut lines = LineReader::new();
    loop {
        let line = match lines.poll_line(&mut reader, inner.max_line) {
            Ok(Some(line)) => line,
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                inner
                    .stats
                    .requests_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(b"ERR 400 line-too-long\n");
                return;
            }
            Err(_) => return,
        };
        if line.is_empty() {
            continue;
        }
        inner.stats.requests_total.fetch_add(1, Ordering::Relaxed);
        let reply = match parse_request(&line) {
            Ok(Request::Ping) => "PONG".to_string(),
            Ok(Request::Shutdown) => {
                inner.stop.store(true, Ordering::SeqCst);
                inner.accept.ready.notify_all();
                let _ = writer.write_all(b"OK BYE\n");
                return;
            }
            Ok(Request::Run {
                tenant,
                base,
                budget,
                payload,
            }) => match serve_run(inner, &tenant, &base, budget, &payload) {
                Ok(out) => {
                    inner.stats.record_ok(&tenant);
                    ok_line(out.status, out.cycles, &out.console)
                }
                Err(err) => {
                    if err == RequestError::Draining {
                        inner
                            .stats
                            .requests_refused_draining
                            .fetch_add(1, Ordering::Relaxed);
                    } else {
                        inner.stats.record_reject(err.reason());
                    }
                    err.to_line()
                }
            },
            Err(err) => {
                inner.stats.record_reject(err.reason());
                err.to_line()
            }
        };
        if writer.write_all(format!("{reply}\n").as_bytes()).is_err() {
            return;
        }
    }
}

/// The core serving path: admit → fork → run → reap → respond.
fn serve_run(
    inner: &Inner,
    tenant: &str,
    base: &str,
    budget: u64,
    payload: &[u8],
) -> Result<RunOutput, RequestError> {
    if inner.stop.load(Ordering::SeqCst) {
        return Err(RequestError::Draining);
    }
    if payload.len() > inner.max_payload {
        return Err(RequestError::PayloadTooLarge {
            len: payload.len(),
            max: inner.max_payload,
        });
    }
    let started = Instant::now();
    // Cheap pre-admission lookups under the bases lock.
    let (frame_cost, payload_room) = {
        let bases = lock_unpoisoned(&inner.bases);
        let b = bases
            .get(base)
            .ok_or_else(|| RequestError::UnknownBase(base.to_string()))?;
        (b.frame_cost(), b.payload_room())
    };
    if payload.len() as u64 > payload_room {
        return Err(RequestError::PayloadOutOfRange);
    }
    let requested = if budget == 0 { u64::MAX } else { budget };
    let (ticket, effective_budget) = inner.admission.admit(tenant, frame_cost, requested)?;
    // Fork under the lock (no memory copied: one word per page and a
    // fresh CPU whose caches are empty until it decodes); run outside it.
    let forking = Instant::now();
    let mut child = {
        let mut bases = lock_unpoisoned(&inner.bases);
        let b = bases
            .get_mut(base)
            .ok_or_else(|| RequestError::UnknownBase(base.to_string()))?;
        b.fork_child()
            .map_err(|_| RequestError::BadRequest("base fork failed"))?
    };
    inner.stats.forks_total.fetch_add(1, Ordering::Relaxed);
    inner.in_flight.fetch_add(1, Ordering::SeqCst);
    let running = Instant::now();
    let result = run_payload(&mut child, payload, effective_budget);
    inner.stats.observe_fork_run_us(
        running.duration_since(forking).as_micros() as u64,
        running.elapsed().as_micros() as u64,
    );
    // Reap before responding: dropping the child releases its
    // copy-on-write reference on the base; the admission ticket then
    // releases the tenant's slot and frames. Only after both does the
    // client hear back.
    drop(child);
    inner.stats.children_reaped.fetch_add(1, Ordering::Relaxed);
    inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    drop(ticket);
    if result.is_ok() {
        inner
            .stats
            .observe_latency_us(started.elapsed().as_micros() as u64);
    }
    result
}

/// Minimal HTTP/1.0-style responder for `GET /metrics`.
fn metrics_loop(inner: &Inner, listener: &TcpListener) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                serve_metrics(inner, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn serve_metrics(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let Ok(Some(request_line)) = read_line_bounded(&mut reader, 4096) else {
        return;
    };
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let reply = if request_line.starts_with("GET ") && path == "/metrics" {
        let body = inner
            .stats
            .to_metrics(&inner.admission.usage(), inner.leaked_children())
            .to_prometheus();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    let _ = writer.write_all(reply.as_bytes());
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
