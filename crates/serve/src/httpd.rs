//! The HTTP serving boundary: a [`ServeEngine`] behind four endpoints.
//!
//! | Endpoint       | Method | Behavior                                           |
//! |----------------|--------|----------------------------------------------------|
//! | `/v1/infer`    | POST   | `{"sample": [f32; C·H·W]}` → classifier scores     |
//! | `/metrics`     | GET    | Prometheus text exposition of the metrics registry |
//! | `/v1/healthz`  | GET    | liveness + drain state                             |
//! | `/v1/shutdown` | POST   | graceful drain (the SIGTERM-equivalent)            |
//!
//! Every connection mints a process-unique request ID at ingress and
//! carries it through engine admission, so access-log lines
//! ([`HttpOptions::access_log`]) and trace echoes correlate. When the
//! engine samples a request for tracing (`BNFF_TRACE` / `trace_every`),
//! the infer response carries the span timings in an `X-BNFF-Trace`
//! header; the body has the same shape whether or not it was traced.
//!
//! Engine backpressure maps onto HTTP status codes, so standard clients and
//! load balancers react correctly without knowing the engine's error types:
//! [`ServeError::Overloaded`] → `429` (with `retry-after`),
//! [`ServeError::DeadlineExceeded`] → `504`, [`ServeError::ShuttingDown`] →
//! `503`, invalid samples and malformed JSON (nesting past the parser's
//! 128-level bound included) → `400`. Every accepted socket carries a 5 s
//! read and write timeout: a peer that goes silent mid-request is answered
//! `408` and closed, so it cannot hold its connection thread, or a drain,
//! for longer than that.
//!
//! The build environment has no signal-handling bindings (no `libc`), so
//! graceful shutdown is driven by `POST /v1/shutdown` instead of `SIGTERM`:
//! the server stops accepting, the engine drains — every admitted request
//! still receives its completion — and the workers exit. A process
//! supervisor maps its stop signal to that endpoint.
//!
//! Connections are handled one request per connection
//! (`Connection: close`), one thread per connection — matched to the
//! engine's own thread-per-worker scale rather than a reactor's.

use crate::engine::{RequestTrace, ServeEngine};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::metrics::MetricsSnapshot;
use crate::Result;
use bnff_obs::{log::log_event, next_request_id};
use bnff_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `content-type` of the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Read and write timeout of every accepted socket: the longest a peer may
/// stay silent mid-request, or leave a response unread, before its
/// connection thread gives up on it (`408`, then close).
const SOCKET_DEADLINE: Duration = Duration::from_secs(5);

/// `POST /v1/infer` request body.
#[derive(Debug, Deserialize)]
struct InferRequest {
    /// The sample in row-major `C × H × W` order.
    sample: Vec<f32>,
}

/// `POST /v1/infer` success body.
#[derive(Debug, Serialize)]
struct InferResponse {
    scores: Vec<f32>,
    batch_size: usize,
    latency_us: u64,
}

/// Error body for every non-200 response.
#[derive(Debug, Serialize)]
struct ErrorResponse {
    error: String,
}

/// `GET /v1/healthz` body.
#[derive(Debug, Serialize)]
struct HealthResponse {
    status: &'static str,
    draining: bool,
}

/// Behavioral knobs for [`HttpServer::bind_with`].
#[derive(Debug, Clone, Default)]
pub struct HttpOptions {
    /// Emit one logfmt line per handled request to stderr (method, path,
    /// status, wall micros, request ID).
    pub access_log: bool,
}

struct ServerShared {
    /// `None` once drained; handlers answer `503` from then on.
    engine: Mutex<Option<ServeEngine>>,
    draining: AtomicBool,
    sample_shape: Shape,
    addr: SocketAddr,
    access_log: bool,
    /// The drained engine's final metrics, kept so [`HttpServer::wait`]
    /// can hand them to the serve binary's shutdown summary even when the
    /// drain was triggered remotely via `POST /v1/shutdown`.
    final_report: Mutex<Option<MetricsSnapshot>>,
    /// In-flight connection count; incremented by the accept loop *before*
    /// spawning the handler so a drain cannot observe zero while a handler
    /// is still starting. [`HttpServer::wait`]/[`HttpServer::shutdown`]
    /// block on this reaching zero — otherwise the process could exit
    /// before the `POST /v1/shutdown` response bytes leave the socket.
    conns: Mutex<usize>,
    conns_cv: Condvar,
}

/// Decrements the in-flight connection count on drop (panic-safe).
struct ConnGuard(Arc<ServerShared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut count = self.0.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *count = count.saturating_sub(1);
        drop(count);
        self.0.conns_cv.notify_all();
    }
}

impl ServerShared {
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, Option<ServeEngine>> {
        self.engine.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stops admissions and drains the engine. Idempotent; the first caller
    /// gets the final metrics (a copy is also parked for [`HttpServer::wait`]).
    fn drain(&self) -> Option<MetricsSnapshot> {
        self.draining.store(true, Ordering::SeqCst);
        let engine = self.lock_engine().take();
        let metrics = engine.map(ServeEngine::shutdown);
        if let Some(snapshot) = &metrics {
            let mut parked =
                self.final_report.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *parked = Some(snapshot.clone());
        }
        // The accept loop only observes `draining` after `accept()`
        // returns; poke it with a throwaway connection so it exits.
        let _ = TcpStream::connect(self.addr);
        metrics
    }

    /// Blocks until every in-flight connection handler finishes (bounded
    /// by `timeout` as a hung-peer backstop).
    fn wait_connections(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut count = self.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *count > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let (guard, _) = self
                .conns_cv
                .wait_timeout(count, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            count = guard;
        }
    }
}

/// A running HTTP server over a [`ServeEngine`].
///
/// Constructed by [`HttpServer::bind`]; the accept loop runs on its own
/// thread until `POST /v1/shutdown` arrives or [`HttpServer::shutdown`] is
/// called.
pub struct HttpServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:8080"`, or port `0` for an ephemeral
    /// test port) and starts accepting requests against `engine`.
    ///
    /// # Errors
    /// Returns an error when the address cannot be bound.
    pub fn bind(engine: ServeEngine, addr: &str) -> Result<Self> {
        Self::bind_with(engine, addr, HttpOptions::default())
    }

    /// [`HttpServer::bind`] with explicit [`HttpOptions`] (access logging).
    ///
    /// # Errors
    /// Returns an error when the address cannot be bound.
    pub fn bind_with(engine: ServeEngine, addr: &str, options: HttpOptions) -> Result<Self> {
        let sample_shape = engine.sample_shape().clone();
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::InvalidArgument(format!("binding {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::InvalidArgument(format!("resolving {addr}: {e}")))?;
        let shared = Arc::new(ServerShared {
            engine: Mutex::new(Some(engine)),
            draining: AtomicBool::new(false),
            sample_shape,
            addr: local,
            access_log: options.access_log,
            final_report: Mutex::new(None),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("bnff-http-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawning the http accept thread");
        Ok(HttpServer { shared, addr: local, accept: Some(accept) })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains the engine and stops the accept loop — the programmatic twin
    /// of `POST /v1/shutdown`. Returns the engine's final metrics, or
    /// `None` when a drain already ran.
    pub fn shutdown(mut self) -> Option<MetricsSnapshot> {
        let metrics = self.shared.drain();
        self.join_accept();
        self.shared.wait_connections(Duration::from_secs(5));
        metrics
    }

    /// Blocks until the server drains — via `POST /v1/shutdown` or another
    /// thread calling [`HttpServer::shutdown`]. This is the serve binary's
    /// main-thread park. Returns the engine's final metrics (from whichever
    /// path triggered the drain) for a shutdown summary.
    pub fn wait(mut self) -> Option<MetricsSnapshot> {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.drain();
        self.shared.wait_connections(Duration::from_secs(5));
        let mut parked =
            self.shared.final_report.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        parked.take()
    }

    fn join_accept(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shared.drain();
        self.join_accept();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        {
            let mut count = shared.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *count += 1;
        }
        // On spawn failure the closure (and the guard in it) is dropped by
        // the error path, which releases the count.
        let guard = ConnGuard(Arc::clone(shared));
        let _ = std::thread::Builder::new().name("bnff-http-conn".into()).spawn(move || {
            let guard = guard;
            handle_connection(&guard.0, stream);
        });
    }
}

fn handle_connection(shared: &ServerShared, stream: TcpStream) {
    // The read half is a clone of the same socket, so it shares the timeouts.
    if stream.set_read_timeout(Some(SOCKET_DEADLINE)).is_err()
        || stream.set_write_timeout(Some(SOCKET_DEADLINE)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let request_id = next_request_id();
    let began = Instant::now();
    let (parsed, (status, extra, body)) = match read_request(&mut reader) {
        Ok(Some(request)) => {
            let routed = route(shared, &request, request_id);
            (Some(request), routed)
        }
        Ok(None) => return,
        Err(HttpError::Closed) => return,
        Err(err) => {
            let status = match err {
                HttpError::BodyTooLarge(_) => 413,
                HttpError::Timeout => 408,
                _ => 400,
            };
            (None, (status, Vec::new(), error_body(&err.to_string())))
        }
    };
    let _ = write_response(&mut stream, status, &extra, &body);
    if shared.access_log {
        let (method, path) = match &parsed {
            Some(req) => (req.method.as_str(), req.path.as_str()),
            None => ("-", "-"),
        };
        log_event(
            "httpd",
            "access",
            &[
                ("method", method.to_string()),
                ("path", path.to_string()),
                ("status", status.to_string()),
                ("micros", began.elapsed().as_micros().to_string()),
                ("request_id", request_id.to_string()),
            ],
        );
    }
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorResponse { error: message.to_string() })
        .unwrap_or_else(|_| "{\"error\":\"unserializable error\"}".to_string())
}

type Routed = (u16, Vec<(&'static str, String)>, String);

fn route(shared: &ServerShared, request: &Request, request_id: u64) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/infer") => infer(shared, request, request_id),
        ("GET", "/metrics") => prometheus(shared),
        ("GET", "/v1/healthz") => {
            let body =
                HealthResponse { status: "ok", draining: shared.draining.load(Ordering::SeqCst) };
            ok(&body)
        }
        ("POST", "/v1/shutdown") => {
            // Drain inline: every admitted request completes before the
            // response is written, so the caller's `curl` returning means
            // the engine is quiesced.
            shared.drain();
            (200, Vec::new(), "{\"status\":\"drained\"}".to_string())
        }
        (_, "/v1/infer" | "/metrics" | "/v1/healthz" | "/v1/shutdown") => {
            (405, Vec::new(), error_body("method not allowed"))
        }
        (_, path) => (404, Vec::new(), error_body(&format!("no such endpoint: {path}"))),
    }
}

fn ok<T: Serialize>(body: &T) -> Routed {
    match serde_json::to_string(body) {
        Ok(json) => (200, Vec::new(), json),
        Err(e) => (500, Vec::new(), error_body(&e.to_string())),
    }
}

/// `GET /metrics`: the registry rendered in Prometheus text exposition.
fn prometheus(shared: &ServerShared) -> Routed {
    let guard = shared.lock_engine();
    match guard.as_ref() {
        Some(engine) => {
            let body = engine.prometheus_metrics();
            drop(guard);
            (200, vec![("content-type", PROMETHEUS_CONTENT_TYPE.to_string())], body)
        }
        None => serve_error(&ServeError::ShuttingDown),
    }
}

fn infer(shared: &ServerShared, request: &Request, request_id: u64) -> Routed {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return (400, Vec::new(), error_body("request body is not UTF-8")),
    };
    let parsed: InferRequest = match serde_json::from_str(body) {
        Ok(parsed) => parsed,
        Err(e) => return (400, Vec::new(), error_body(&format!("bad infer request: {e}"))),
    };
    let expected = shared.sample_shape.volume();
    if parsed.sample.len() != expected {
        return (
            400,
            Vec::new(),
            error_body(&format!(
                "sample has {} values, model expects {expected} ({})",
                parsed.sample.len(),
                shared.sample_shape
            )),
        );
    }
    let sample = match Tensor::from_vec(shared.sample_shape.clone(), parsed.sample) {
        Ok(sample) => sample,
        Err(e) => return (400, Vec::new(), error_body(&e.to_string())),
    };

    // Hold the engine lock only across the (queue-push) submit; the wait
    // for the completion happens lock-free so concurrent requests batch.
    let receiver = {
        let guard = shared.lock_engine();
        match guard.as_ref() {
            Some(engine) => engine.submit_traced(sample, request_id, false),
            None => Err(ServeError::ShuttingDown),
        }
    };
    let completion = match receiver {
        Ok(rx) => match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::ShuttingDown),
        },
        Err(e) => Err(e),
    };
    match completion {
        Ok(completion) => {
            let mut routed = ok(&InferResponse {
                scores: completion.scores.as_slice().to_vec(),
                batch_size: completion.batch_size,
                latency_us: completion.latency.as_micros() as u64,
            });
            if let Some(trace) = &completion.trace {
                routed.1.push(("x-bnff-trace", trace_header(trace)));
            }
            routed
        }
        Err(e) => serve_error(&e),
    }
}

/// Formats the `X-BNFF-Trace` response header value.
fn trace_header(trace: &RequestTrace) -> String {
    format!(
        "id={} queue_us={} infer_us={} batch={} worker={} stolen={}",
        trace.request_id,
        trace.queue_us,
        trace.infer_us,
        trace.batch_size,
        trace.worker,
        trace.stolen
    )
}

/// Maps an engine error onto its HTTP status + JSON body.
fn serve_error(err: &ServeError) -> Routed {
    let (status, extra): (u16, Vec<(&'static str, String)>) = match err {
        ServeError::Overloaded { .. } => (429, vec![("retry-after", "1".to_string())]),
        ServeError::DeadlineExceeded => (504, Vec::new()),
        ServeError::ShuttingDown => (503, Vec::new()),
        ServeError::InvalidArgument(_) => (400, Vec::new()),
        _ => (500, Vec::new()),
    };
    (status, extra, error_body(&err.to_string()))
}
