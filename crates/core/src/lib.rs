//! # bnff-core — BN Fission-n-Fusion as a public API + the paper's experiments
//!
//! This crate is the user-facing entry point of the reproduction. It wraps
//! the restructuring passes behind a [`BnffOptimizer`] configured with a
//! [`FusionLevel`] (the four cumulative scenarios of the paper's Figure 7),
//! and provides one driver per table/figure of the evaluation section in
//! [`experiments`].
//!
//! ```rust
//! use bnff_core::{BnffOptimizer, FusionLevel};
//! use bnff_memsim::MachineProfile;
//! use bnff_models::densenet_cifar;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = densenet_cifar(16, 12, 4, 10)?;
//! let optimizer = BnffOptimizer::new(FusionLevel::Bnff);
//! let restructured = optimizer.apply(&graph)?;
//! let report = optimizer.compare(&graph, &restructured, &MachineProfile::skylake_xeon_2s())?;
//! assert!(report.speedup() >= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod experiments;
mod fusion_level;
mod optimizer;

pub use error::CoreError;
pub use fusion_level::FusionLevel;
pub use optimizer::{BnffOptimizer, ComparisonReport};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
