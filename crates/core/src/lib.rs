//! # proclus — the PROCLUS projected-clustering family on the CPU
//!
//! A faithful Rust implementation of PROCLUS (Aggarwal et al., SIGMOD '99)
//! and of the algorithmic accelerations from *GPU-FAST-PROCLUS* (Jørgensen
//! et al., EDBT '22).
//!
//! Every variant is reached through one entry point, [`run`], configured by
//! a [`Config`]:
//!
//! * [`Algo::Baseline`] — sample → greedy medoid candidates → iterative
//!   medoid search (ComputeL, FindDimensions, AssignPoints,
//!   EvaluateClusters, bad-medoid replacement) → refinement with outlier
//!   removal.
//! * [`Algo::Fast`] — FAST-PROCLUS (§3): distances to potential medoids
//!   computed once and cached (`Dist`/`DistFound`), and the per-dimension
//!   distance sums `H` maintained incrementally from the sphere delta
//!   `ΔL_i` (Theorems 3.1/3.2).
//! * [`Algo::FastStar`] — FAST*-PROCLUS (§3.2): the space-reduced variant
//!   keeping only the current `k` medoids' caches.
//! * [`Config::with_threads`] — the paper's multi-core CPU parallelizations
//!   (per-thread partials + reduction, the OpenMP structure) built on
//!   [`par::Executor`].
//! * [`Config::with_grid`] — a grid of `(k, l)` settings with the three
//!   cumulative reuse levels of §3.1 (see [`multi_param`]); [`run_grid`]
//!   runs one over any [`BackendFactory`] with per-setting outcomes.
//! * [`Config::with_telemetry`] — phase spans and algorithm counters
//!   (distances computed, cache hits, `ΔL` sizes, …) recorded into
//!   [`RunOutput::telemetry`]; see the [`telemetry`] crate re-export.
//!
//! All variants are driven by the same seeded search path: for equal
//! [`Params::seed`] they visit the same medoid sets and return the same
//! clustering (up to floating-point reduction order), which the integration
//! tests assert. The GPU counterparts live in the `proclus-gpu` crate,
//! whose `run`/`run_on` accept this same [`Config`] with
//! [`Backend::Gpu`].
//!
//! ## Quick start
//!
//! ```
//! use proclus::{run, Config, DataMatrix, Params};
//!
//! // Two clusters along dim 0 of 3-D data.
//! let rows: Vec<Vec<f32>> = (0..300)
//!     .map(|i| {
//!         let c = (i % 2) as f32 * 20.0;
//!         vec![c + (i % 5) as f32 * 0.1, (i % 11) as f32, c + (i % 3) as f32 * 0.1]
//!     })
//!     .collect();
//! let data = DataMatrix::from_rows(&rows).unwrap();
//! let params = Params::new(2, 2).with_a(30).with_b(5).with_seed(42);
//! let output = run(&data, &Config::new(params)).unwrap();
//! let clustering = output.clustering();
//! assert_eq!(clustering.k(), 2);
//! assert_eq!(clustering.labels.len(), 300);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod baseline;
pub mod cancel;
pub mod config;
pub mod dataset;
pub mod distance;
pub mod distance_simd;
mod driver;
pub mod error;
pub mod fast;
pub mod fast_star;
pub mod metrics;
pub mod metrics_subspace;
pub mod multi_param;
pub mod par;
pub mod params;
pub mod phases;
pub mod result;
pub mod rng;
mod run;

/// Re-export of the `proclus-telemetry` crate: recorder trait, collecting
/// [`telemetry::Telemetry`], counter names, and the report exporters.
pub use proclus_telemetry as telemetry;

pub use cancel::CancelToken;
pub use config::{Algo, Backend, Config, Grid, RunOutput};
pub use dataset::DataMatrix;
pub use driver::{dispatch, run_grid, BackendFactory, CpuFactory, PartitionedOutcomes};
pub use error::{ProclusError, Result};
pub use multi_param::{default_grid, ReuseLevel, Setting};
pub use params::{BadMedoidRule, Params, ParamsBuilder};
pub use result::{Clustering, OUTLIER};
pub use rng::ProclusRng;
#[doc(hidden)]
pub use run::{executor_for, run_single_on, stamp_meta};
pub use run::{run, run_with_cancel};
