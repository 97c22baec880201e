//! # dve-serve — the estimation service daemon behind `dve serve`
//!
//! Distinct-value estimators live inside long-running services: query
//! optimizers call them per column on every plan, and distributed
//! deployments estimate NDV over sampled partitions behind an RPC
//! boundary. This crate runs the workspace's full pipeline as such a
//! daemon — hand-rolled HTTP/1.1 over [`std::net::TcpListener`], in
//! keeping with the zero-external-dependency discipline (no tokio, no
//! hyper).
//!
//! ## Endpoints
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/estimate` | frequency spectrum or raw values in, [`dve_core::Estimation`] + GEE interval out |
//! | `POST /v1/analyze` | inline rows → per-column optimizer statistics via `analyze_table_jobs` |
//! | `GET /metrics` | the `dve-obs` Prometheus text exposition (windowed + SLO series included) |
//! | `GET /healthz` | liveness |
//! | `GET /v1/estimators` | registry listing |
//! | `GET /v1/slo` | live guarantee status: windowed shadow-truth error, coverage, burn rate |
//! | `GET /v1/traces` | recent-traces index (`?limit=N`) |
//!
//! ## Robustness model
//!
//! Accepted connections enter a **bounded queue**; when it is full the
//! accept loop immediately answers `429` and bumps the `serve.shed`
//! counter instead of letting latency grow without bound (load
//! shedding). The queue is drained by a fixed pool of workers running
//! on [`dve_par::run_indexed`] — the same deterministic pool the audit
//! sweeps use. Each worker enforces a **read deadline** while parsing
//! (slow client → `408`) and a **handle deadline** measured from accept
//! time (request sat queued too long → `504`). Oversized bodies are
//! refused with `413` before being read. Malformed JSON and unknown
//! estimator names are structured `400`s with an error envelope.
//!
//! Shutdown is graceful: on [`ServerHandle::shutdown`] or SIGTERM/
//! SIGINT (see [`signal`]) the accept loop stops, already-queued
//! requests are drained and answered, and [`Server::run`] returns.
//!
//! ## Example
//!
//! ```no_run
//! use dve_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod monitor;
pub mod pipeline;
pub mod signal;

pub use api::Response;
pub use monitor::Monitor;
pub use pipeline::{EstimateOutcome, PipelineError};

use dve_obs::trace;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration. [`ServeConfig::default`] is tuned for a small
/// sidecar: localhost, a 64-deep queue, 1 MiB bodies, 5 s read / 10 s
/// handle deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171`. Use port `0` for an
    /// ephemeral port (tests).
    pub addr: String,
    /// Worker threads draining the queue; `0` resolves through
    /// [`dve_par::resolve_jobs`] (`--jobs` override → `DVE_JOBS` → host
    /// parallelism).
    pub jobs: usize,
    /// Accepted connections allowed to wait for a worker before new
    /// arrivals are shed with `429`.
    pub queue_depth: usize,
    /// Largest request body accepted; longer declarations get `413`.
    pub max_body_bytes: usize,
    /// Per-request read deadline; slower clients get `408`.
    pub read_timeout: Duration,
    /// Deadline from accept to the start of handling; requests that sat
    /// queued longer get `504` instead of stale processing.
    pub handle_deadline: Duration,
    /// Artificial pause inserted before handling each request — a fault
    /// -injection knob for tests and load drills (exercises queue
    /// buildup, shedding, and the handle deadline). Zero in production.
    pub handle_delay: Duration,
    /// Whether to record causal traces ([`dve_obs::trace`]) for every
    /// request. On by default: the collector is bounded and a disabled
    /// request path would be undebuggable exactly when it matters.
    pub trace: bool,
    /// Fraction of `values`-mode estimates that also compute the exact
    /// distinct count and record the observed error (`/v1/slo`). The
    /// coin is deterministic in the request's trace id. `0.0` disables
    /// shadowing entirely (and costs nothing on the hot path).
    pub shadow_sample_rate: f64,
    /// Cluster-coordinator configuration. `Some` makes this daemon the
    /// coordinator for the configured workers and enables the
    /// `{"cluster": true}` estimate source; `None` (the default) answers
    /// that source with `503 cluster_not_configured`.
    pub cluster: Option<dve_cluster::ClusterConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            jobs: 0,
            queue_depth: 64,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            handle_deadline: Duration::from_secs(10),
            handle_delay: Duration::ZERO,
            trace: true,
            shadow_sample_rate: monitor::DEFAULT_SHADOW_SAMPLE_RATE,
            cluster: None,
        }
    }
}

/// One accepted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    accepted_at: Instant,
    /// [`trace::current_thread_id`] of the accept loop — queue-wait
    /// spans are attributed to the thread that made the request wait.
    accept_tid: u64,
}

/// The bounded handoff between the accept loop and the worker pool:
/// a mutex-guarded deque with a condvar for parked workers. `close`
/// wakes everyone; workers drain what is already queued, then exit.
struct RequestQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl RequestQueue {
    fn new(depth: usize) -> Self {
        RequestQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(depth),
                closed: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Enqueues unless the queue is at depth (or closed); the job is
    /// handed back on refusal so the caller can shed it.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed || state.jobs.len() >= self.depth {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained — the drain is what makes shutdown graceful.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Jobs currently waiting (the `serve.queue_depth` gauge's source).
    fn len(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// Remote control for a running [`Server`]: cloneable, sendable, and
/// the only way (besides a signal) to stop `run`.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: stop accepting, drain the queue,
    /// return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    config: ServeConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

/// How often the accept loop re-checks the shutdown flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

impl Server {
    /// Binds the listen socket. The daemon starts serving on [`run`].
    ///
    /// [`run`]: Server::run
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            config,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] or a termination signal
    /// (if [`signal::install`] was called), then drains in-flight and
    /// queued requests and returns.
    ///
    /// The calling thread runs the accept loop; request handling is fed
    /// into the [`dve_par`] worker pool (`config.jobs` threads, `0` =
    /// the process default).
    pub fn run(self) -> std::io::Result<()> {
        let jobs = dve_par::resolve_jobs(match self.config.jobs {
            0 => None,
            j => Some(j),
        });
        trace::set_tracing(self.config.trace);
        let queue = RequestQueue::new(self.config.queue_depth);
        let obs = dve_obs::global();
        let shed_total = obs.counter("serve.shed");
        let queue_depth = obs.gauge("serve.queue_depth");
        let started = Instant::now();
        let status = api::ServeStatus {
            started,
            jobs,
            queue_capacity: self.config.queue_depth,
            queue_len: 0,
            monitor: Arc::new(Monitor::new(self.config.shadow_sample_rate)),
            cluster: self
                .config
                .cluster
                .clone()
                .map(|c| Arc::new(dve_cluster::Coordinator::new(c))),
            catalog: Arc::new(Mutex::new(dve_storage::StatsCatalog::new())),
        };

        std::thread::scope(|s| {
            let accept = s.spawn(|| {
                let accept_tid = trace::current_thread_id();
                loop {
                    if self.shutdown.load(Ordering::Relaxed) || signal::requested() {
                        break;
                    }
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            // The listener is non-blocking (so the loop
                            // can poll the shutdown flag); accepted
                            // streams must not inherit that on any
                            // platform — workers rely on timeouts.
                            let _ = stream.set_nonblocking(false);
                            let job = Job {
                                stream,
                                accepted_at: Instant::now(),
                                accept_tid,
                            };
                            match queue.try_push(job) {
                                Ok(()) => queue_depth.set(queue.len() as i64),
                                Err(refused) => {
                                    // Load shedding: answer 429 right here in
                                    // the accept thread — cheap, bounded work
                                    // that keeps the queue's latency promise.
                                    shed_total.inc();
                                    shed(refused, &self.config);
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        // Transient per-connection accept errors (e.g.
                        // ECONNABORTED) — keep serving.
                        Err(_) => {}
                    }
                }
                queue.close();
            });

            // Feed the queue into the deterministic worker pool: one
            // long-lived worker loop per pool slot, each draining jobs
            // until close-and-empty.
            dve_par::run_indexed(jobs, jobs, |_w| {
                while let Some(job) = queue.pop() {
                    queue_depth.set(queue.len() as i64);
                    serve_one(job, &self.config, &status, &queue);
                }
            });
            accept.join().expect("accept loop never panics");
            Ok(())
        })
    }
}

/// Answers a shed connection with `429` from the accept thread, and —
/// because shed requests are exactly the ones whose latency sources need
/// explaining — records a complete trace for it: the queue was full, so
/// the whole (sub-millisecond) request *is* queue wait.
fn shed(job: Job, config: &ServeConfig) {
    let wait_start = trace::instant_ns(job.accepted_at);
    let wait_ns = trace::now_ns().saturating_sub(wait_start);
    let root = trace::record_root_span(
        "serve.request",
        trace::TraceId::new(),
        wait_start,
        wait_ns,
        job.accept_tid,
        Some("shed 429"),
    );
    trace::record_span(
        "serve.queue_wait",
        root,
        wait_start,
        wait_ns,
        job.accept_tid,
        Some("queue full"),
    );
    respond(
        job,
        config,
        Response::error(429, "overloaded", "request queue is full, retry later"),
    );
}

/// Reads, routes, and answers one queued connection, recording the
/// `serve.*` telemetry and the request's causal trace.
///
/// The `serve.request` span is backdated to accept, so its duration
/// covers the queue wait as well as the handling.
fn serve_one(job: Job, config: &ServeConfig, status: &api::ServeStatus, queue: &RequestQueue) {
    let obs = dve_obs::global();
    let accepted_at = job.accepted_at;
    let wait_ns = accepted_at.elapsed().as_nanos() as u64;

    // Handle deadline: if the request sat queued past the deadline, the
    // client is better served by a fast 504 than a stale answer.
    if accepted_at.elapsed() > config.handle_deadline {
        obs.counter_labeled("serve.requests", "expired").inc();
        let root = trace::root_span("serve.request")
            .started_at(accepted_at)
            .detail(|| "expired 504".to_string());
        trace::record_span(
            "serve.queue_wait",
            root.context(),
            trace::instant_ns(accepted_at),
            wait_ns,
            job.accept_tid,
            None,
        );
        respond(
            job,
            config,
            Response::error(
                504,
                "deadline_exceeded",
                "request sat queued past the deadline",
            ),
        );
        return;
    }

    if !config.handle_delay.is_zero() {
        std::thread::sleep(config.handle_delay);
    }

    let mut job = job;
    let read_start = Instant::now();
    let read = http::read_request(&mut job.stream, config.max_body_bytes, config.read_timeout);
    let read_ns = read_start.elapsed().as_nanos() as u64;

    // The root span opens only now — the trace id (`X-Dve-Trace-Id`)
    // travels in the header block — and is backdated to accept time so
    // it covers the whole request. Phases that finished before it
    // existed (queue wait, the wire read) are attached out-of-band.
    let mut root = match &read {
        Ok(req) => match req.header("x-dve-trace-id") {
            Some(id) => trace::root_span_with_id("serve.request", trace::TraceId::parse(id)),
            None => trace::root_span("serve.request"),
        },
        Err(_) => trace::root_span("serve.request"),
    }
    .started_at(accepted_at);
    let root_ctx = root.context();
    trace::record_span(
        "serve.queue_wait",
        root_ctx,
        trace::instant_ns(accepted_at),
        wait_ns,
        job.accept_tid,
        None,
    );
    trace::record_span(
        "serve.parse",
        root_ctx,
        trace::instant_ns(read_start),
        read_ns,
        trace::current_thread_id(),
        None,
    );

    let mut route = "unreadable";
    let response = match read {
        Ok(req) => {
            route = api::route_label(&req.method, &req.path);
            obs.counter_labeled("serve.requests", route).inc();
            let status = api::ServeStatus {
                queue_len: queue.len(),
                ..status.clone()
            };
            api::handle_with_status(&req, &status)
        }
        Err(err) => {
            obs.counter_labeled("serve.requests", "unreadable").inc();
            match err {
                http::ReadError::Timeout => {
                    Response::error(408, "read_timeout", "timed out reading the request")
                }
                http::ReadError::BodyTooLarge { limit } => Response::error(
                    413,
                    "body_too_large",
                    &format!("request body exceeds the {limit}-byte limit"),
                ),
                http::ReadError::Malformed(msg) => Response::error(400, "bad_request", &msg),
                // Connection already failed; nothing to answer.
                http::ReadError::Io(_) => return,
            }
        }
    };

    let response_status = response.status;
    root.set_detail(|| format!("{route} {response_status}"));
    respond(job, config, response);
    drop(root);
    let total_ns = accepted_at.elapsed().as_nanos() as u64;
    slow_request_log(root_ctx, route, response_status, total_ns);
}

/// `DVE_TRACE_SLOW_MS` threshold, read once.
fn slow_threshold_ms() -> Option<u64> {
    static T: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *T.get_or_init(|| {
        std::env::var("DVE_TRACE_SLOW_MS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// Emits a `serve.slow_request` warning through the event sink when the
/// request (queue wait included) exceeded `DVE_TRACE_SLOW_MS`, with the
/// trace id and a per-phase breakdown pulled from the trace buffers.
fn slow_request_log(
    root_ctx: Option<dve_obs::trace::TraceContext>,
    route: &str,
    status: u16,
    total_ns: u64,
) {
    let Some(threshold_ms) = slow_threshold_ms() else {
        return;
    };
    if total_ns < threshold_ms.saturating_mul(1_000_000) {
        return;
    }
    let mut event = dve_obs::Event::warn("serve.slow_request")
        .field_str("route", route)
        .field_u64("status", u64::from(status))
        .field_f64("total_ms", total_ns as f64 / 1e6);
    if let Some(ctx) = root_ctx {
        event = event.field_str("trace_id", ctx.trace_id.to_string());
        for span in trace::spans_for(ctx.trace_id) {
            if span.parent_id.is_some() {
                event = event.field_f64(
                    format!("{}_ms", span.name.replace('.', "_")),
                    span.dur_ns as f64 / 1e6,
                );
            }
        }
    }
    event.emit();
}

/// Writes `response` and tears the connection down, counting the status.
fn respond(mut job: Job, config: &ServeConfig, response: Response) {
    dve_obs::global()
        .counter_labeled("serve.responses", &response.status.to_string())
        .inc();
    // A client that never reads must not wedge the writer either.
    let _ = job.stream.set_write_timeout(Some(config.read_timeout));
    // A failed write means the client is gone; nothing useful remains.
    let _ = http::write_response(
        &mut job.stream,
        response.status,
        response.content_type,
        &response.body,
    );
    let _ = job.stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_at_depth_and_drains_after_close() {
        let q = RequestQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk = || {
            let _c = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            Job {
                stream,
                accepted_at: Instant::now(),
                accept_tid: trace::current_thread_id(),
            }
        };
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_err(), "depth-1 queue must refuse");
        q.close();
        assert!(q.pop().is_some(), "queued job survives close (drain)");
        assert!(q.pop().is_none(), "closed and drained");
        assert!(q.try_push(mk()).is_err(), "closed queue refuses pushes");
    }

    #[test]
    fn handle_stops_run() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let t = std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(60));
        handle.shutdown();
        t.join().unwrap().unwrap();
    }
}
