//! Drives the full C ABI surface in-process: load → engine → infer →
//! metrics → free, plus every guard (bad path, stale handles, double-free,
//! undersized buffers). The offline build has no `dlopen` bindings, so the
//! `extern "C"` functions are called directly through the rlib — the same
//! symbols the cdylib exports.

use bnff_capi::{
    bnff_abi_version, bnff_engine_start, bnff_free, bnff_infer, bnff_infer_traced, bnff_last_error,
    bnff_metrics_prometheus, bnff_model_classes, bnff_model_load, bnff_model_sample_len,
    BnffEngine, BnffTrace, BNFF_ERR_BAD_HANDLE, BNFF_ERR_BUFFER_TOO_SMALL, BNFF_ERR_INVALID,
    BNFF_OK,
};
use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::Conv2dAttrs;
use bnff_serve::ServeEngine;
use bnff_tensor::init::Initializer;
use bnff_tensor::Shape;
use bnff_train::checkpoint::Checkpoint;
use bnff_train::Executor;
use std::ffi::{CStr, CString};

/// Trains a tiny classifier and writes it as a binary artifact.
fn write_model(path: &std::path::Path) -> Executor {
    let mut b = GraphBuilder::new("abi-cls");
    let x = b.input("data", Shape::nchw(2, 3, 6, 6)).unwrap();
    let labels = b.input("labels", Shape::vector(2)).unwrap();
    let stem = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(4), "stem").unwrap();
    let gap = b.global_avg_pool(stem, "gap").unwrap();
    let fc = b.fully_connected(gap, 3, "fc").unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    let graph = b.finish();

    let mut exec = Executor::new(graph, 41).unwrap();
    let mut init = Initializer::seeded(42);
    let data = init.uniform(Shape::nchw(2, 3, 6, 6), -1.0, 1.0);
    let fwd = exec.forward(&data, &[0, 1]).unwrap();
    exec.update_running_stats(&fwd).unwrap();
    Checkpoint::capture(&exec).write_artifact(path).unwrap();
    exec
}

fn last_error() -> String {
    let ptr = bnff_last_error();
    assert!(!ptr.is_null(), "a failing call must record a message");
    unsafe { CStr::from_ptr(ptr) }.to_str().unwrap().to_string()
}

/// One inference call through either entry point: `bnff_infer`, or
/// `bnff_infer_traced` writing to `trace`. `sample_len` and `cap` are
/// passed as given so the error rows can lie about them.
#[allow(clippy::too_many_arguments)]
fn infer_via(
    traced: bool,
    engine: *const BnffEngine,
    sample: *const f32,
    sample_len: u64,
    out: &mut [f32],
    cap: u64,
    written: &mut u64,
    trace: &mut BnffTrace,
) -> i32 {
    unsafe {
        if traced {
            bnff_infer_traced(engine, sample, sample_len, out.as_mut_ptr(), cap, written, trace)
        } else {
            bnff_infer(engine, sample, sample_len, out.as_mut_ptr(), cap, written)
        }
    }
}

/// A trace no successful request produces, so "untouched on error" shows.
const UNTOUCHED: BnffTrace = BnffTrace {
    request_id: u64::MAX,
    queue_us: u64::MAX,
    infer_us: u64::MAX,
    batch_size: 0,
    worker: u64::MAX,
    stolen: 0,
    _reserved: [0; 7],
};

fn assert_untouched(trace: &BnffTrace, case: &str) {
    assert_eq!(
        (trace.request_id, trace.queue_us, trace.infer_us, trace.batch_size, trace.worker),
        (u64::MAX, u64::MAX, u64::MAX, 0, u64::MAX),
        "{case}: trace_out must be untouched on error"
    );
}

#[test]
fn full_lifecycle_over_the_c_abi() {
    assert_eq!(bnff_abi_version(), 2);

    let dir = std::env::temp_dir().join(format!("bnff-abi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.bnff");
    let exec = write_model(&model_path);

    let c_path = CString::new(model_path.to_str().unwrap()).unwrap();
    let model = unsafe { bnff_model_load(c_path.as_ptr()) };
    assert!(!model.is_null(), "{}", last_error());

    let sample_len = unsafe { bnff_model_sample_len(model) };
    assert_eq!(sample_len, 3 * 6 * 6);
    let classes = unsafe { bnff_model_classes(model) };
    assert_eq!(classes, 3);

    let engine = unsafe { bnff_engine_start(model, 1, 4, 500, 16) };
    assert!(!engine.is_null(), "{}", last_error());

    // Reference scores straight through the Rust API on the same file.
    let reference_model = ServeEngine::builder().model_file(&model_path).build_model().unwrap();
    let single = reference_model.executor(1).unwrap();
    let mut init = Initializer::seeded(7);
    let sample = init.uniform(Shape::new(vec![3, 6, 6]), -1.0, 1.0);
    let batched =
        bnff_tensor::Tensor::from_vec(Shape::nchw(1, 3, 6, 6), sample.as_slice().to_vec()).unwrap();
    let expected: Vec<u32> =
        single.infer(&batched).unwrap().as_slice().iter().map(|v| v.to_bits()).collect();

    let mut scores = vec![0.0f32; classes as usize];
    let mut written = 0u64;
    let code = unsafe {
        bnff_infer(
            engine,
            sample.as_slice().as_ptr(),
            sample_len,
            scores.as_mut_ptr(),
            scores.len() as u64,
            &mut written,
        )
    };
    assert_eq!(code, BNFF_OK, "{}", last_error());
    assert_eq!(written, classes);
    let got: Vec<u32> = scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expected, "ABI scores must match direct frozen inference exactly");

    // The error table, through both entry points: each row is typed, sets
    // a message naming the entry point, and leaves `trace_out` alone.
    let sample_ptr = sample.as_slice().as_ptr();
    for traced in [false, true] {
        let entry = if traced { "bnff_infer_traced:" } else { "bnff_infer:" };
        let mut trace = UNTOUCHED;

        // Undersized buffer: required size still reported, buffer not written.
        let mut tiny = [f32::NAN; 1];
        let mut needed = 0u64;
        let code = infer_via(
            traced,
            engine,
            sample_ptr,
            sample_len,
            &mut tiny,
            1,
            &mut needed,
            &mut trace,
        );
        assert_eq!(code, BNFF_ERR_BUFFER_TOO_SMALL, "{entry} undersized buffer");
        assert_eq!(needed, classes);
        assert!(tiny[0].is_nan(), "{entry} scores_out must not be written when too small");
        assert!(last_error().starts_with(entry), "{}", last_error());
        assert_untouched(&trace, "undersized buffer");

        // Wrong sample length: invalid argument.
        let code =
            infer_via(traced, engine, sample_ptr, 2, &mut scores, 3, &mut written, &mut trace);
        assert_eq!(code, BNFF_ERR_INVALID, "{entry} wrong sample length");
        assert!(last_error().contains("expects 108"));
        assert_untouched(&trace, "wrong sample length");

        // Null sample: invalid argument, nothing dereferenced.
        let code = infer_via(
            traced,
            engine,
            std::ptr::null(),
            sample_len,
            &mut scores,
            3,
            &mut written,
            &mut trace,
        );
        assert_eq!(code, BNFF_ERR_INVALID, "{entry} null sample");
        assert!(last_error().contains("sample is null"));
        assert_untouched(&trace, "null sample");

        // A pointer that was never a handle is rejected before any dereference.
        let code = infer_via(
            traced,
            std::ptr::dangling(),
            sample_ptr,
            sample_len,
            &mut scores,
            3,
            &mut written,
            &mut trace,
        );
        assert_eq!(code, BNFF_ERR_BAD_HANDLE, "{entry} foreign handle");
        assert_untouched(&trace, "foreign handle");
    }

    // Traced inference: same scores, plus span timings in the out-struct.
    let mut trace = BnffTrace::default();
    let code = unsafe {
        bnff_infer_traced(
            engine,
            sample.as_slice().as_ptr(),
            sample_len,
            scores.as_mut_ptr(),
            scores.len() as u64,
            &mut written,
            &mut trace,
        )
    };
    assert_eq!(code, BNFF_OK, "{}", last_error());
    let traced_bits: Vec<u32> = scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(traced_bits, expected, "traced inference must not perturb the scores");
    assert!(trace.request_id > 0, "the trace carries the minted request ID");
    assert!(trace.batch_size >= 1);
    assert_eq!(trace.worker, 0, "single-worker engine");
    assert!(trace.stolen <= 1);

    // Metrics: the Prometheus exposition of a registry that saw our requests.
    let exposition = unsafe { bnff_metrics_prometheus(engine) };
    assert!(!exposition.is_null(), "{}", last_error());
    let text = unsafe { CStr::from_ptr(exposition) }.to_str().unwrap().to_string();
    assert!(text.contains("# TYPE bnff_requests_total counter"));
    assert!(text.contains("bnff_request_latency_seconds_bucket"));
    let requests: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("bnff_requests_total "))
        .expect("a bnff_requests_total sample")
        .parse()
        .unwrap();
    assert!(requests >= 1, "the served request is counted");

    // Free everything once: OK. Free again: typed error, not UB.
    assert_eq!(unsafe { bnff_free(exposition.cast()) }, BNFF_OK);
    assert_eq!(unsafe { bnff_free(exposition.cast()) }, BNFF_ERR_BAD_HANDLE);
    assert_eq!(unsafe { bnff_free(engine.cast()) }, BNFF_OK);
    assert_eq!(unsafe { bnff_free(engine.cast()) }, BNFF_ERR_BAD_HANDLE);

    // A freed engine handle is stale, not dereferenced — by either entry point.
    for traced in [false, true] {
        let mut trace = UNTOUCHED;
        let code = infer_via(
            traced,
            engine,
            sample_ptr,
            sample_len,
            &mut scores,
            3,
            &mut written,
            &mut trace,
        );
        assert_eq!(code, BNFF_ERR_BAD_HANDLE, "traced={traced}");
        assert_untouched(&trace, "stale handle");
    }

    assert_eq!(unsafe { bnff_free(model.cast()) }, BNFF_OK);
    assert_eq!(unsafe { bnff_free(model.cast()) }, BNFF_ERR_BAD_HANDLE);
    assert_eq!(unsafe { bnff_free(std::ptr::null_mut()) }, BNFF_ERR_BAD_HANDLE);

    drop(exec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_failures_set_last_error() {
    let missing = CString::new("/nonexistent/model.bnff").unwrap();
    let model = unsafe { bnff_model_load(missing.as_ptr()) };
    assert!(model.is_null());
    assert!(last_error().contains("bnff_model_load"));

    let model = unsafe { bnff_model_load(std::ptr::null()) };
    assert!(model.is_null());
    assert!(last_error().contains("null"));

    // A file that is not an artifact is refused with the loader's typed
    // message, not parsed.
    let dir = std::env::temp_dir().join(format!("bnff-abi-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &[u8], &str); 3] = [
        ("request.json", b"{\"input\": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}", "not a bnff model"),
        ("empty.bnff", b"", "truncated"),
        ("short.bnff", b"BNF", "truncated"),
    ];
    for (name, contents, message) in cases {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let c_path = CString::new(path.to_str().unwrap()).unwrap();
        let model = unsafe { bnff_model_load(c_path.as_ptr()) };
        assert!(model.is_null(), "{name}");
        assert!(last_error().contains(message), "{name}: {}", last_error());
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Stale/foreign pointers are rejected before any dereference.
    assert_eq!(unsafe { bnff_model_sample_len(std::ptr::null()) }, 0);
    assert_eq!(unsafe { bnff_model_classes(std::ptr::dangling()) }, 0);
    let engine = unsafe { bnff_engine_start(std::ptr::dangling(), 0, 0, 0, 0) };
    assert!(engine.is_null());
    assert!(last_error().contains("live model handle"));
}
