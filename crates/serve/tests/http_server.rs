//! End-to-end tests of the HTTP serving boundary: correctness of
//! `/v1/infer` against direct frozen execution, backpressure → status-code
//! mapping (429/504), malformed input handling, and graceful drain.

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::Conv2dAttrs;
use bnff_graph::Graph;
use bnff_serve::{HttpServer, ServeEngine};
use bnff_tensor::init::Initializer;
use bnff_tensor::Shape;
use bnff_train::Executor;
use serde::Deserialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn classifier(batch: usize, classes: usize) -> Graph {
    let mut b = GraphBuilder::new("http-cls");
    let x = b.input("data", Shape::nchw(batch, 3, 6, 6)).unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    let stem = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "stem").unwrap();
    let gap = b.global_avg_pool(stem, "gap").unwrap();
    let fc = b.fully_connected(gap, classes, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// A trained executor whose running statistics moved off identity.
fn trained(seed: u64) -> Executor {
    let mut exec = Executor::new(classifier(2, 3), seed).unwrap();
    let mut init = Initializer::seeded(seed ^ 0xbeef);
    let data = init.uniform(Shape::nchw(2, 3, 6, 6), -1.0, 1.0);
    let fwd = exec.forward(&data, &[0, 1]).unwrap();
    exec.update_running_stats(&fwd).unwrap();
    exec
}

/// One-shot HTTP client: sends a request, returns (status, headers, body).
fn http(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the test server");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body separator");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    http(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
    )
}

fn infer_body(sample: &[f32]) -> String {
    let values = serde_json::to_string(&sample.to_vec()).unwrap();
    format!("{{\"sample\":{values}}}")
}

#[derive(Debug, Deserialize)]
struct InferResponse {
    scores: Vec<f32>,
    batch_size: usize,
    latency_us: u64,
}

#[test]
fn infer_matches_direct_frozen_execution_exactly() {
    let exec = trained(7);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let engine = ServeEngine::builder().executor(&exec).workers(1).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let single = model.executor(1).unwrap();
    let mut init = Initializer::seeded(99);
    for _ in 0..3 {
        let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
        let expected = single.infer(&sample).unwrap();

        let (status, _, body) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
        assert_eq!(status, 200, "body: {body}");
        let parsed: InferResponse = serde_json::from_str(&body).unwrap();
        assert!(parsed.batch_size >= 1);
        let _ = parsed.latency_us;
        // Scores cross the JSON boundary bit-identically: the engine's
        // numerics are batching-invariant and f32s serialize in shortest
        // round-trip decimal form.
        let expected_bits: Vec<u32> = expected.as_slice().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = parsed.scores.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, expected_bits);
    }
    server.shutdown();
}

#[test]
fn healthz_metrics_and_routing() {
    let exec = trained(13);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, _, body) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));
    assert!(body.contains("\"draining\":false"));

    // Serve one request so the metrics have something to report.
    let mut init = Initializer::seeded(5);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, _, _) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.lines().any(|l| l == "bnff_requests_total 1"), "body: {body}");

    // Prometheus text at `/metrics` is the one metrics document.
    for path in ["/nope", "/v1/metrics"] {
        let (status, _, _) = get(addr, path);
        assert_eq!(status, 404, "{path}");
    }
    let (status, _, _) = get(addr, "/v1/infer");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn prometheus_endpoint_exposes_the_registry() {
    let exec = trained(37);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut init = Initializer::seeded(6);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, _, _) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 200);

    let (status, headers, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "body: {body}");
    let content_type = headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map(|(_, v)| v.as_str())
        .expect("content-type header");
    assert!(content_type.starts_with("text/plain"), "got {content_type}");

    // Well-formed exposition: HELP/TYPE pairs, the core serving series,
    // a cumulative histogram ending at +Inf, and no JSON anywhere.
    assert!(body.contains("# TYPE bnff_requests_total counter"));
    assert!(body.contains("bnff_requests_total 1"));
    assert!(body.contains("# TYPE bnff_request_latency_seconds histogram"));
    assert!(body.contains("le=\"+Inf\""));
    assert!(body.contains("bnff_request_latency_seconds_count 1"));
    assert!(body.contains("# TYPE bnff_queued gauge"));
    assert!(body.contains("# TYPE bnff_shed_total counter"));
    for line in body.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2 || line.is_empty(),
            "malformed exposition line: {line:?}"
        );
    }

    let (status, _, _) = post(addr, "/metrics", "");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn traced_requests_echo_span_timings() {
    let exec = trained(41);
    let engine = ServeEngine::builder().executor(&exec).workers(1).trace_every(1).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut init = Initializer::seeded(8);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, headers, body) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 200, "body: {body}");

    // A traced body has the untraced shape; the spans ride in the header.
    assert!(!body.contains("\"trace\""));
    let parsed: InferResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(parsed.scores.len(), 3);
    assert!(parsed.batch_size >= 1);

    let header = headers
        .iter()
        .find(|(k, _)| k == "x-bnff-trace")
        .map(|(_, v)| v.as_str())
        .expect("x-bnff-trace header on a traced response");
    let field = |key: &str| -> &str {
        header
            .split_whitespace()
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key}= in {header:?}"))
    };
    let id: u64 = field("id").parse().unwrap();
    let infer_us: u64 = field("infer_us").parse().unwrap();
    let _: u64 = field("queue_us").parse().unwrap();
    assert!(id > 0);
    assert_eq!(field("batch").parse::<usize>().unwrap(), parsed.batch_size);
    assert_eq!(field("worker"), "0");
    assert_eq!(field("stolen"), "false");
    assert!(parsed.latency_us >= infer_us);
    server.shutdown();
}

#[test]
fn untraced_responses_have_no_trace_artifacts() {
    let exec = trained(43);
    // trace_every(0) disables sampling outright, regardless of BNFF_TRACE.
    let engine = ServeEngine::builder().executor(&exec).trace_every(0).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut init = Initializer::seeded(9);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, headers, body) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 200, "body: {body}");
    assert!(!body.contains("\"trace\""));
    assert!(headers.iter().all(|(k, _)| k != "x-bnff-trace"));
    server.shutdown();
}

#[test]
fn malformed_requests_are_400s() {
    let exec = trained(17);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Not JSON at all.
    let (status, _, body) = post(addr, "/v1/infer", "this is not json");
    assert_eq!(status, 400, "body: {body}");
    // JSON, wrong schema.
    let (status, _, _) = post(addr, "/v1/infer", "{\"smaple\": [1.0]}");
    assert_eq!(status, 400);
    // Right schema, wrong sample length.
    let (status, _, body) = post(addr, "/v1/infer", "{\"sample\": [1.0, 2.0]}");
    assert_eq!(status, 400);
    assert!(body.contains("108"), "error names the expected volume: {body}");
    // Malformed HTTP framing.
    let (status, _, _) = http(addr, "BROKEN\r\n\r\n");
    assert_eq!(status, 400);
    server.shutdown();
}

/// The JSON parser recurses once per nesting level, so unbounded a body of
/// nothing but `[` overflows the connection thread's stack — which aborts
/// the whole process. The nesting bound makes it an ordinary `400`.
#[test]
fn deeply_nested_bodies_are_400s_and_the_server_keeps_serving() {
    let exec = trained(19);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    for len in [10_000, 1 << 20] {
        let (status, _, body) = post(addr, "/v1/infer", &"[".repeat(len));
        assert_eq!(status, 400, "{len} bytes of '[': {body}");
        assert!(body.contains("recursion limit"), "{body}");
    }
    let sample = Initializer::seeded(5).uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, _, body) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 200, "body: {body}");
    server.shutdown();
}

/// A client that stops sending mid-request is answered `408` once the
/// socket's read timeout (5 s) runs out, and its connection thread is
/// released: the server goes on answering and drains without waiting.
#[test]
fn a_silent_client_is_timed_out_with_408() {
    let exec = trained(23);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let began = std::time::Instant::now();
    let mut silent = TcpStream::connect(addr).unwrap();
    silent.write_all(b"POST /v1/inf").unwrap();
    // The stalled connection does not block anyone else.
    let (status, _, body) = get(addr, "/v1/healthz");
    assert_eq!((status, body.contains("\"ok\"")), (200, true), "{body}");

    silent.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut response = String::new();
    silent.read_to_string(&mut response).expect("the server answers, then closes");
    assert!(response.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{response}");
    let waited = began.elapsed();
    assert!(
        (Duration::from_secs(4)..Duration::from_secs(10)).contains(&waited),
        "timed out after {waited:?}, the socket deadline is 5 s"
    );

    let (status, _, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    // No connection is left in flight, so the drain returns at once.
    let began = std::time::Instant::now();
    server.shutdown();
    assert!(began.elapsed() < Duration::from_secs(2), "drain waited {:?}", began.elapsed());
}

#[test]
fn overload_is_shed_with_429_and_retry_after() {
    let exec = trained(19);
    // One worker, one queue slot, a max_wait long enough that the first
    // request is still dwelling (and so still occupying the only slot)
    // when the second arrives: deterministic shed.
    let engine = ServeEngine::builder()
        .executor(&exec)
        .workers(1)
        .queue_depth(1)
        .max_batch(64)
        .max_wait(Duration::from_millis(400))
        .start()
        .unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut init = Initializer::seeded(3);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let body = infer_body(sample.as_slice());

    let first = {
        let body = body.clone();
        std::thread::spawn(move || post(addr, "/v1/infer", &body))
    };
    // Let the first request reach the queue and start dwelling.
    std::thread::sleep(Duration::from_millis(100));
    let (status, headers, _) = post(addr, "/v1/infer", &body);
    assert_eq!(status, 429);
    assert!(headers.iter().any(|(k, v)| k == "retry-after" && !v.is_empty()));

    let (status, _, _) = first.join().unwrap();
    assert_eq!(status, 200, "the dwelling request must still be served");
    server.shutdown();
}

#[test]
fn expired_deadlines_are_504s() {
    let exec = trained(23);
    // A zero deadline expires every queued request at the worker's next
    // take: deterministic 504.
    let engine =
        ServeEngine::builder().executor(&exec).workers(1).deadline(Duration::ZERO).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut init = Initializer::seeded(4);
    let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
    let (status, _, body) = post(addr, "/v1/infer", &infer_body(sample.as_slice()));
    assert_eq!(status, 504, "body: {body}");
    assert!(body.contains("deadline"));
    server.shutdown();
}

#[test]
fn shutdown_endpoint_drains_and_stops_the_server() {
    let exec = trained(29);
    let engine = ServeEngine::builder().executor(&exec).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let (status, _, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("drained"));
    assert!(server.is_draining());

    // The accept loop exits; new connections are refused (a still-parked
    // connection may get one last 503, so poll briefly).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(refused, "connections must eventually be refused after drain");
    // wait() returns immediately on an already-drained server.
    server.wait();
}

#[test]
fn concurrent_clients_all_get_correct_scores() {
    let exec = trained(31);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let engine = ServeEngine::builder().executor(&exec).workers(2).max_batch(4).start().unwrap();
    let server = HttpServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let single = model.executor(1).unwrap();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let mut init = Initializer::seeded(1000 + i);
            let sample = init.uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0);
            let expected: Vec<u32> =
                single.infer(&sample).unwrap().as_slice().iter().map(|v| v.to_bits()).collect();
            let body = infer_body(sample.as_slice());
            std::thread::spawn(move || {
                let (status, _, response) = post(addr, "/v1/infer", &body);
                assert_eq!(status, 200, "client {i}: {response}");
                let parsed: InferResponse = serde_json::from_str(&response).unwrap();
                let got: Vec<u32> = parsed.scores.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "client {i} got wrong scores");
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let report = server.shutdown().expect("first drain returns metrics");
    assert_eq!(report.requests(), 8);
}
