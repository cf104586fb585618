//! Fluent construction of a [`ServeEngine`]: one entry point for every
//! model source and every batching knob.
//!
//! The builder is the only way to start an engine: a single pipeline —
//! *source → knobs → start* — whose file-path source reads a `.bnff`
//! model artifact:
//!
//! ```rust,no_run
//! use bnff_serve::ServeEngine;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), bnff_serve::ServeError> {
//! let engine = ServeEngine::builder()
//!     .model_file("model.bnff")          // or .executor(..) / .checkpoint(..) / .model(..)
//!     .workers(4)
//!     .max_batch(16)
//!     .max_wait(Duration::from_millis(2))
//!     .deadline(Duration::from_millis(50))
//!     .start()?;
//! # let _ = engine; Ok(())
//! # }
//! ```

use crate::engine::{BatchingConfig, ServeEngine};
use crate::error::ServeError;
use crate::model::FrozenModel;
use crate::Result;
use bnff_train::checkpoint::Checkpoint;
use bnff_train::Executor;
use std::path::PathBuf;
use std::time::Duration;

/// Where the builder gets its [`FrozenModel`] from.
enum ModelSource {
    /// No source chosen yet — [`ServeEngineBuilder::start`] will error.
    Unset,
    /// An eagerly converted model (or the error its conversion produced;
    /// held until `start` so the builder methods stay chainable).
    Ready(Result<FrozenModel>),
    /// A `.bnff` model artifact, loaded lazily at `start`.
    File(PathBuf),
}

/// Builds a [`ServeEngine`]: model source → batching knobs → `.start()`.
///
/// Created by [`ServeEngine::builder`]. Every knob defaults to
/// [`BatchingConfig::default`]; later source calls override earlier ones.
pub struct ServeEngineBuilder {
    source: ModelSource,
    config: BatchingConfig,
}

impl ServeEngineBuilder {
    pub(crate) fn new() -> Self {
        ServeEngineBuilder { source: ModelSource::Unset, config: BatchingConfig::default() }
    }

    /// Serves an already-frozen model.
    #[must_use]
    pub fn model(mut self, model: FrozenModel) -> Self {
        self.source = ModelSource::Ready(Ok(model));
        self
    }

    /// Freezes a live training executor (in-process train-then-serve).
    #[must_use]
    pub fn executor(mut self, executor: &Executor) -> Self {
        self.source = ModelSource::Ready(FrozenModel::from_parts(
            executor.graph(),
            executor.params(),
            executor.running_stats(),
        ));
        self
    }

    /// Freezes a loaded training checkpoint (process-separated serving).
    #[must_use]
    pub fn checkpoint(mut self, checkpoint: &Checkpoint) -> Self {
        self.source = ModelSource::Ready(FrozenModel::from_parts(
            &checkpoint.graph,
            &checkpoint.params,
            &checkpoint.running,
        ));
        self
    }

    /// Loads a `.bnff` model artifact at [`start`](Self::start) time (see
    /// [`FrozenModel::load`]).
    #[must_use]
    pub fn model_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = ModelSource::File(path.into());
        self
    }

    /// Replaces the entire batching configuration at once — the escape
    /// hatch for callers that already hold a [`BatchingConfig`].
    #[must_use]
    pub fn config(mut self, config: BatchingConfig) -> Self {
        self.config = config;
        self
    }

    /// Largest number of requests coalesced into one forward pass.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Longest a request waits for co-batchers before running as-is.
    #[must_use]
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.config.max_wait = max_wait;
        self
    }

    /// Number of executor worker threads (one shard queue each).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bound on each shard queue (total admission capacity is
    /// `workers × queue_depth`).
    #[must_use]
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Queueing deadline after which a waiting request is expired with
    /// [`ServeError::DeadlineExceeded`]. Accepts a [`Duration`] or an
    /// `Option<Duration>` (`None` disables the deadline, the default).
    #[must_use]
    pub fn deadline(mut self, deadline: impl Into<Option<Duration>>) -> Self {
        self.config.deadline = deadline.into();
        self
    }

    /// Total kernel-thread budget partitioned disjointly across workers
    /// (`0` inherits the caller's effective thread count at start).
    #[must_use]
    pub fn kernel_threads(mut self, kernel_threads: usize) -> Self {
        self.config.kernel_threads = kernel_threads;
        self
    }

    /// Trace-echo sampling period: every `trace_every`-th completion
    /// carries a [`RequestTrace`](crate::RequestTrace) (`0` disables).
    /// When never called, the engine reads `BNFF_TRACE` at start.
    #[must_use]
    pub fn trace_every(mut self, trace_every: u64) -> Self {
        self.config.trace_every = Some(trace_every);
        self
    }

    /// Resolves the model source without starting workers — used by
    /// callers that want the [`FrozenModel`] itself (direct executors,
    /// score baselines) configured through the same API.
    ///
    /// # Errors
    /// Returns an error when no source was chosen or loading/freezing the
    /// chosen source failed.
    pub fn build_model(self) -> Result<FrozenModel> {
        match self.source {
            ModelSource::Unset => Err(ServeError::InvalidArgument(
                "no model source: call .model(), .executor(), .checkpoint() or .model_file()"
                    .into(),
            )),
            ModelSource::Ready(model) => model,
            ModelSource::File(path) => FrozenModel::load(path),
        }
    }

    /// Resolves the model source and starts the engine.
    ///
    /// # Errors
    /// Returns an error when the model source is missing or fails to load,
    /// or for a zero `max_batch`/`workers`/`queue_depth`.
    pub fn start(self) -> Result<ServeEngine> {
        let config = self.config.clone();
        let model = self.build_model()?;
        ServeEngine::start(model, config)
    }
}

impl std::fmt::Debug for ServeEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match &self.source {
            ModelSource::Unset => "unset".to_string(),
            ModelSource::Ready(Ok(_)) => "ready".to_string(),
            ModelSource::Ready(Err(e)) => format!("failed: {e}"),
            ModelSource::File(path) => format!("file: {}", path.display()),
        };
        f.debug_struct("ServeEngineBuilder")
            .field("source", &source)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sourceless_builder_is_rejected() {
        let err = ServeEngine::builder().start().unwrap_err();
        assert!(matches!(err, ServeError::InvalidArgument(_)));
        assert!(err.to_string().contains("model source"));
    }

    #[test]
    fn a_missing_model_file_is_a_typed_model_error() {
        let err = ServeEngine::builder().model_file("/nonexistent/model.bnff").start().unwrap_err();
        assert!(matches!(err, ServeError::Model(bnff_artifact::ModelError::Io(_))));
    }

    #[test]
    fn knobs_land_in_the_config() {
        let b = ServeEngine::builder()
            .max_batch(32)
            .max_wait(Duration::from_millis(7))
            .workers(3)
            .queue_depth(9)
            .deadline(Duration::from_millis(40))
            .kernel_threads(5)
            .trace_every(16);
        assert_eq!(b.config.max_batch, 32);
        assert_eq!(b.config.max_wait, Duration::from_millis(7));
        assert_eq!(b.config.workers, 3);
        assert_eq!(b.config.queue_depth, 9);
        assert_eq!(b.config.deadline, Some(Duration::from_millis(40)));
        assert_eq!(b.config.kernel_threads, 5);
        assert_eq!(b.config.trace_every, Some(16));
        // None clears the deadline; .config() replaces everything.
        let b = b.deadline(None).config(BatchingConfig::default());
        assert_eq!(b.config.max_batch, BatchingConfig::default().max_batch);
        assert!(format!("{b:?}").contains("unset"));
    }
}
