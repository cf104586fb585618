//! One driver per table / figure of the paper's evaluation section.
//!
//! Every driver returns plain serializable rows so the `bnff-bench` binaries
//! can print them as tables and dump them as JSON, and `EXPERIMENTS.md` can
//! record paper-vs-measured values.
//!
//! | driver | paper artefact |
//! |---|---|
//! | [`figure1`] | Figure 1 — CONV/FC vs non-CONV execution-time breakdown |
//! | [`table1`]  | Table 1 — peak FLOPS / bandwidth of the three machines |
//! | [`figure3`] | Figure 3 — bandwidth-utilization timeline of DenseNet-121 |
//! | [`figure4`] | Figure 4 — BN/ReLU time with finite vs infinite bandwidth |
//! | [`figure6`] | Figure 6 — CONV vs non-CONV across GPU / KNL / Skylake |
//! | [`figure7`] | Figure 7 — execution time & memory accesses per scenario |
//! | [`figure8`] | Figure 8 — baseline vs BNFF at full and half bandwidth |
//! | [`gpu_cutlass`] | Section 5 — GPU (CUTLASS-style) scenario improvements |

mod fig1;
mod fig3;
mod fig4;
mod fig6;
mod fig7;
mod fig8;
mod gpu;
mod table1;

pub use fig1::{figure1, Fig1Row};
pub use fig3::{figure3, Fig3Series};
pub use fig4::{figure4, Fig4Row};
pub use fig6::{figure6, Fig6Row};
pub use fig7::{figure7, Fig7Row};
pub use fig8::{figure8, Fig8Row};
pub use gpu::{gpu_cutlass, GpuRow};
pub use table1::{table1, Table1Row};

/// The mini-batch size the paper uses on the Skylake system.
pub const PAPER_CPU_BATCH: usize = 120;

/// The batch used by the experiment tests. The performance model is driven
/// by shapes only, so analysing the ImageNet-scale graphs at the paper's
/// mini-batch size is cheap; using a smaller batch would shrink the feature
/// maps below the last-level cache and break the premise of Section 3.1.
#[cfg(test)]
pub(crate) const QUICK_BATCH: usize = PAPER_CPU_BATCH;
