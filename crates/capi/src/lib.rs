//! `bnff-capi` — the stable C ABI over model loading and serving.
//!
//! Builds as a `cdylib` (`libbnff_capi.so`) so non-Rust hosts can embed the
//! serving engine: load a `.bnff` model artifact, start an engine, run
//! inference, read metrics, free everything.
//!
//! # ABI contract
//!
//! - Every function is `extern "C"` and panic-safe: panics are caught at
//!   the boundary and surface as [`BNFF_ERR_PANIC`], never as unwinding
//!   into the caller.
//! - Handles (`BnffModel*`, `BnffEngine*`) and strings returned by this
//!   library are opaque and are released with [`bnff_free`]. Double-frees
//!   and frees of foreign pointers are detected via a live-handle registry
//!   and rejected with an error code — no undefined behavior.
//! - Functions that can fail return either a null pointer or a negative
//!   error code; [`bnff_last_error`] returns a thread-local human-readable
//!   message for the most recent failure on the calling thread.
//! - [`bnff_abi_version`] gates compatibility: hosts check it before any
//!   other call. The version only moves when the exported surface breaks.
//!
//! The smoke test in `tests/abi_smoke.rs` drives this exact surface
//! in-process (the offline build has no `dlopen` bindings); CI additionally
//! builds the `cdylib` artifact.

use bnff_obs::next_request_id;
use bnff_serve::{FrozenModel, RequestTrace, ServeEngine, ServeError};
use bnff_tensor::Tensor;
use std::collections::HashMap;
use std::ffi::{c_char, c_void, CStr, CString};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The ABI version this library exports. Bumped on any breaking change to
/// the exported surface.
pub const BNFF_ABI_VERSION: u32 = 2;

/// Success.
pub const BNFF_OK: i32 = 0;
/// Generic failure; details via [`bnff_last_error`].
pub const BNFF_ERR: i32 = -1;
/// A required pointer was null or an argument was invalid.
pub const BNFF_ERR_INVALID: i32 = -2;
/// The engine shed the request at admission (queues full).
pub const BNFF_ERR_OVERLOADED: i32 = -3;
/// The request expired in the queue past its deadline.
pub const BNFF_ERR_DEADLINE: i32 = -4;
/// The engine is shutting down.
pub const BNFF_ERR_SHUTDOWN: i32 = -5;
/// The pointer is not a live handle (double-free, foreign, or stale).
pub const BNFF_ERR_BAD_HANDLE: i32 = -6;
/// The caller's output buffer is too small; the required size was written.
pub const BNFF_ERR_BUFFER_TOO_SMALL: i32 = -7;
/// A panic was caught at the ABI boundary.
pub const BNFF_ERR_PANIC: i32 = -8;

/// Opaque handle to a loaded, frozen model.
pub struct BnffModel {
    model: FrozenModel,
}

/// Opaque handle to a running serving engine.
pub struct BnffEngine {
    engine: ServeEngine,
}

/// Span timings for one traced request, written by [`bnff_infer_traced`].
///
/// All fields are plain integers so the layout is ABI-stable; `stolen` is
/// 0 or 1.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct BnffTrace {
    /// The process-unique request ID minted at ingress.
    pub request_id: u64,
    /// Microseconds spent queued before a worker took the request.
    pub queue_us: u64,
    /// Microseconds of tape execution for the request's batch.
    pub infer_us: u64,
    /// How many samples the request's batch coalesced.
    pub batch_size: u64,
    /// Which engine worker ran the batch.
    pub worker: u64,
    /// 1 when the batch was work-stolen from another shard's queue.
    pub stolen: u8,
    /// Reserved padding; always 0.
    pub _reserved: [u8; 7],
}

/// What a registered live pointer points at — drives [`bnff_free`].
enum HandleKind {
    Model,
    Engine,
    Str,
}

/// Live-handle registry: address → kind. The guard that turns double-frees
/// and foreign pointers into error codes instead of undefined behavior.
fn registry() -> &'static Mutex<HashMap<usize, HandleKind>> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, HandleKind>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn register(addr: usize, kind: HandleKind) {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(addr, kind);
}

fn unregister(addr: usize) -> Option<HandleKind> {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&addr)
}

fn is_live(addr: usize) -> bool {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).contains_key(&addr)
}

thread_local! {
    static LAST_ERROR: std::cell::RefCell<Option<CString>> =
        const { std::cell::RefCell::new(None) };
}

fn set_last_error(message: &str) {
    let sanitized = message.replace('\0', "\\0");
    LAST_ERROR.with(|slot| {
        *slot.borrow_mut() = CString::new(sanitized).ok();
    });
}

fn error_code(err: &ServeError) -> i32 {
    match err {
        ServeError::Overloaded { .. } => BNFF_ERR_OVERLOADED,
        ServeError::DeadlineExceeded => BNFF_ERR_DEADLINE,
        ServeError::ShuttingDown => BNFF_ERR_SHUTDOWN,
        ServeError::InvalidArgument(_) => BNFF_ERR_INVALID,
        _ => BNFF_ERR,
    }
}

/// Runs `f` with panics converted to `fallback` + a last-error message.
fn guarded<T>(fallback: T, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => value,
        Err(_) => {
            set_last_error("panic caught at the bnff ABI boundary");
            fallback
        }
    }
}

/// The ABI version of this library. Hosts must check this before any other
/// call and refuse to proceed on a mismatch.
#[no_mangle]
pub extern "C" fn bnff_abi_version() -> u32 {
    BNFF_ABI_VERSION
}

/// The human-readable message for the most recent failure on the calling
/// thread, or null when no failure has been recorded.
///
/// The pointer is owned by the library and stays valid until the next
/// failing `bnff_*` call on the same thread; do **not** pass it to
/// [`bnff_free`].
#[no_mangle]
pub extern "C" fn bnff_last_error() -> *const c_char {
    LAST_ERROR
        .with(|slot| slot.borrow().as_ref().map_or(std::ptr::null(), |message| message.as_ptr()))
}

/// Loads a `.bnff` model artifact and freezes it for inference.
///
/// Returns an opaque handle, or null on failure — a file that is not an
/// artifact leaves the bad-magic/truncated message in [`bnff_last_error`].
/// Release with [`bnff_free`].
///
/// # Safety
/// `path` must be a valid NUL-terminated UTF-8 string or null (null is
/// rejected with an error, not UB).
#[no_mangle]
pub unsafe extern "C" fn bnff_model_load(path: *const c_char) -> *mut BnffModel {
    guarded(std::ptr::null_mut(), || {
        if path.is_null() {
            set_last_error("bnff_model_load: path is null");
            return std::ptr::null_mut();
        }
        let path = match unsafe { CStr::from_ptr(path) }.to_str() {
            Ok(path) => path,
            Err(_) => {
                set_last_error("bnff_model_load: path is not UTF-8");
                return std::ptr::null_mut();
            }
        };
        match ServeEngine::builder().model_file(path).build_model() {
            Ok(model) => {
                let handle = Box::into_raw(Box::new(BnffModel { model }));
                register(handle as usize, HandleKind::Model);
                handle
            }
            Err(e) => {
                set_last_error(&format!("bnff_model_load: {e}"));
                std::ptr::null_mut()
            }
        }
    })
}

/// Number of `f32` values in one input sample (`C·H·W`), or 0 on error.
/// Hosts use this to size the buffer passed to [`bnff_infer`].
///
/// # Safety
/// `model` must be a handle returned by [`bnff_model_load`] that has not
/// been freed (stale handles are rejected with an error, not UB).
#[no_mangle]
pub unsafe extern "C" fn bnff_model_sample_len(model: *const BnffModel) -> u64 {
    guarded(0, || {
        if model.is_null() || !is_live(model as usize) {
            set_last_error("bnff_model_sample_len: not a live model handle");
            return 0;
        }
        match unsafe { &*model }.model.sample_shape() {
            Ok(shape) => shape.volume() as u64,
            Err(e) => {
                set_last_error(&format!("bnff_model_sample_len: {e}"));
                0
            }
        }
    })
}

/// Number of classifier scores per sample, or 0 on error. Hosts use this
/// to size the score buffer passed to [`bnff_infer`].
///
/// # Safety
/// `model` must be a live handle from [`bnff_model_load`].
#[no_mangle]
pub unsafe extern "C" fn bnff_model_classes(model: *const BnffModel) -> u64 {
    guarded(0, || {
        if model.is_null() || !is_live(model as usize) {
            set_last_error("bnff_model_classes: not a live model handle");
            return 0;
        }
        match unsafe { &*model }.model.classes() {
            Ok(classes) => classes as u64,
            Err(e) => {
                set_last_error(&format!("bnff_model_classes: {e}"));
                0
            }
        }
    })
}

/// Starts a serving engine over a loaded model.
///
/// `workers`, `max_batch` and `queue_depth` of 0 select the engine
/// defaults; `max_wait_us` is the batching dwell in microseconds (0 keeps
/// the default). The model handle stays valid and owned by the caller —
/// the engine takes its own copy.
///
/// Returns an opaque handle, or null on failure. Release with
/// [`bnff_free`], which drains in-flight requests.
///
/// # Safety
/// `model` must be a live handle from [`bnff_model_load`].
#[no_mangle]
pub unsafe extern "C" fn bnff_engine_start(
    model: *const BnffModel,
    workers: u32,
    max_batch: u32,
    max_wait_us: u64,
    queue_depth: u32,
) -> *mut BnffEngine {
    guarded(std::ptr::null_mut(), || {
        if model.is_null() || !is_live(model as usize) {
            set_last_error("bnff_engine_start: not a live model handle");
            return std::ptr::null_mut();
        }
        let mut builder = ServeEngine::builder().model(unsafe { &*model }.model.clone());
        if workers > 0 {
            builder = builder.workers(workers as usize);
        }
        if max_batch > 0 {
            builder = builder.max_batch(max_batch as usize);
        }
        if max_wait_us > 0 {
            builder = builder.max_wait(Duration::from_micros(max_wait_us));
        }
        if queue_depth > 0 {
            builder = builder.queue_depth(queue_depth as usize);
        }
        match builder.start() {
            Ok(engine) => {
                let handle = Box::into_raw(Box::new(BnffEngine { engine }));
                register(handle as usize, HandleKind::Engine);
                handle
            }
            Err(e) => {
                set_last_error(&format!("bnff_engine_start: {e}"));
                std::ptr::null_mut()
            }
        }
    })
}

/// The one inference body behind [`bnff_infer`] and [`bnff_infer_traced`]:
/// handle/null/length checks, submission (`force_trace` asks the engine
/// for span timings whatever its sampling period), and the buffer-size
/// protocol. `entry` prefixes the last-error message. Returns the request's
/// trace (present whenever `force_trace` is set) or the `BNFF_ERR_*` code.
///
/// # Safety
/// The pointer contract of [`bnff_infer`].
#[allow(clippy::too_many_arguments)]
unsafe fn infer_into(
    entry: &str,
    engine: *const BnffEngine,
    sample: *const f32,
    sample_len: u64,
    scores_out: *mut f32,
    scores_cap: u64,
    scores_written: *mut u64,
    force_trace: bool,
) -> Result<Option<RequestTrace>, i32> {
    let fail = |code: i32, message: &dyn std::fmt::Display| {
        set_last_error(&format!("{entry}: {message}"));
        Err(code)
    };
    if engine.is_null() || !is_live(engine as usize) {
        return fail(BNFF_ERR_BAD_HANDLE, &"not a live engine handle");
    }
    if sample.is_null() {
        return fail(BNFF_ERR_INVALID, &"sample is null");
    }
    let engine = &unsafe { &*engine }.engine;
    let shape = match engine.sample_shape() {
        Ok(shape) => shape,
        Err(e) => return fail(error_code(&e), &e),
    };
    if sample_len as usize != shape.volume() {
        return fail(
            BNFF_ERR_INVALID,
            &format!("sample has {sample_len} values, model expects {} ({shape})", shape.volume()),
        );
    }
    let values = unsafe { std::slice::from_raw_parts(sample, sample_len as usize) };
    let tensor = match Tensor::from_vec(shape, values.to_vec()) {
        Ok(tensor) => tensor,
        Err(e) => return fail(BNFF_ERR_INVALID, &e),
    };
    let completion = match engine
        .submit_traced(tensor, next_request_id(), force_trace)
        .and_then(|rx| rx.recv().map_err(|_| ServeError::ShuttingDown)?)
    {
        Ok(completion) => completion,
        Err(e) => return fail(error_code(&e), &e),
    };
    let scores = completion.scores.as_slice();
    if !scores_written.is_null() {
        unsafe { *scores_written = scores.len() as u64 };
    }
    if (scores_cap as usize) < scores.len() {
        return fail(
            BNFF_ERR_BUFFER_TOO_SMALL,
            &format!("{} scores do not fit in a buffer of {scores_cap}", scores.len()),
        );
    }
    if scores_out.is_null() {
        return fail(BNFF_ERR_INVALID, &"scores_out is null");
    }
    unsafe {
        std::ptr::copy_nonoverlapping(scores.as_ptr(), scores_out, scores.len());
    }
    Ok(completion.trace)
}

/// Runs one sample through the engine and copies the classifier scores
/// into `scores_out`.
///
/// `sample` points at `sample_len` `f32` values in `C × H × W` order
/// (`sample_len` must equal [`bnff_model_sample_len`]). On success the
/// score count is written to `scores_written` and the scores to
/// `scores_out`. When `scores_cap` is too small, returns
/// [`BNFF_ERR_BUFFER_TOO_SMALL`] and writes the required count to
/// `scores_written` without touching `scores_out`.
///
/// Returns [`BNFF_OK`] or a negative `BNFF_ERR_*` code.
///
/// # Safety
/// `engine` must be a live handle from [`bnff_engine_start`]; `sample`
/// must point at `sample_len` readable `f32`s; `scores_out` must point at
/// `scores_cap` writable `f32`s; `scores_written`, when non-null, must be
/// writable.
#[no_mangle]
pub unsafe extern "C" fn bnff_infer(
    engine: *const BnffEngine,
    sample: *const f32,
    sample_len: u64,
    scores_out: *mut f32,
    scores_cap: u64,
    scores_written: *mut u64,
) -> i32 {
    guarded(BNFF_ERR_PANIC, || {
        let outcome = unsafe {
            infer_into(
                "bnff_infer",
                engine,
                sample,
                sample_len,
                scores_out,
                scores_cap,
                scores_written,
                false,
            )
        };
        outcome.map_or_else(|code| code, |_| BNFF_OK)
    })
}

/// Like [`bnff_infer`], but forces a trace on the request and writes the
/// span timings (queue wait, tape execution, batch size, worker) to
/// `trace_out`. The request ID in the trace is minted by the library and
/// is unique within the process.
///
/// Returns [`BNFF_OK`] or a negative `BNFF_ERR_*` code; on error
/// `trace_out` is untouched.
///
/// # Safety
/// Same contract as [`bnff_infer`]; additionally `trace_out`, when
/// non-null, must point at a writable [`BnffTrace`].
#[no_mangle]
pub unsafe extern "C" fn bnff_infer_traced(
    engine: *const BnffEngine,
    sample: *const f32,
    sample_len: u64,
    scores_out: *mut f32,
    scores_cap: u64,
    scores_written: *mut u64,
    trace_out: *mut BnffTrace,
) -> i32 {
    guarded(BNFF_ERR_PANIC, || {
        let outcome = unsafe {
            infer_into(
                "bnff_infer_traced",
                engine,
                sample,
                sample_len,
                scores_out,
                scores_cap,
                scores_written,
                true,
            )
        };
        match outcome {
            Ok(Some(trace)) if !trace_out.is_null() => {
                unsafe {
                    *trace_out = BnffTrace {
                        request_id: trace.request_id,
                        queue_us: trace.queue_us,
                        infer_us: trace.infer_us,
                        batch_size: trace.batch_size as u64,
                        worker: trace.worker as u64,
                        stolen: u8::from(trace.stolen),
                        _reserved: [0; 7],
                    };
                }
                BNFF_OK
            }
            Ok(_) => BNFF_OK,
            Err(code) => code,
        }
    })
}

/// The Prometheus text exposition of the engine's metrics registry — the
/// same document `GET /metrics` on the HTTP server returns.
///
/// Returns a NUL-terminated string owned by the caller — release it with
/// [`bnff_free`] — or null on failure.
///
/// # Safety
/// `engine` must be a live handle from [`bnff_engine_start`].
#[no_mangle]
pub unsafe extern "C" fn bnff_metrics_prometheus(engine: *const BnffEngine) -> *mut c_char {
    guarded(std::ptr::null_mut(), || {
        if engine.is_null() || !is_live(engine as usize) {
            set_last_error("bnff_metrics_prometheus: not a live engine handle");
            return std::ptr::null_mut();
        }
        let engine = &unsafe { &*engine }.engine;
        match CString::new(engine.prometheus_metrics()) {
            Ok(cstring) => {
                let raw = cstring.into_raw();
                register(raw as usize, HandleKind::Str);
                raw
            }
            Err(_) => {
                set_last_error("bnff_metrics_prometheus: exposition contained a NUL byte");
                std::ptr::null_mut()
            }
        }
    })
}

/// Releases anything this library handed out: model handles, engine
/// handles (drains their workers first), and metric strings.
///
/// Returns [`BNFF_OK`], or [`BNFF_ERR_BAD_HANDLE`] for null, double-freed,
/// or foreign pointers — which are **not** touched, so a double-free is an
/// error code, not undefined behavior.
///
/// # Safety
/// Safe for any pointer value: only pointers the registry knows are live
/// are reconstructed and dropped.
#[no_mangle]
pub unsafe extern "C" fn bnff_free(ptr: *mut c_void) -> i32 {
    guarded(BNFF_ERR_PANIC, || {
        if ptr.is_null() {
            set_last_error("bnff_free: pointer is null");
            return BNFF_ERR_BAD_HANDLE;
        }
        match unregister(ptr as usize) {
            Some(HandleKind::Model) => {
                drop(unsafe { Box::from_raw(ptr.cast::<BnffModel>()) });
                BNFF_OK
            }
            Some(HandleKind::Engine) => {
                let handle = unsafe { Box::from_raw(ptr.cast::<BnffEngine>()) };
                // Drain: every admitted request completes before free returns.
                let _ = handle.engine.shutdown();
                BNFF_OK
            }
            Some(HandleKind::Str) => {
                drop(unsafe { CString::from_raw(ptr.cast::<c_char>()) });
                BNFF_OK
            }
            None => {
                set_last_error("bnff_free: not a live bnff pointer (double free?)");
                BNFF_ERR_BAD_HANDLE
            }
        }
    })
}
