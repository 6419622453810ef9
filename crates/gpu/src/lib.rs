//! # proclus-gpu — GPU-PROCLUS, GPU-FAST-PROCLUS and GPU-FAST\*-PROCLUS
//!
//! The GPU-parallelized projected-clustering algorithms of *GPU-FAST-
//! PROCLUS* (Jørgensen et al., EDBT '22), implemented as CUDA-style kernels
//! on the [`gpu_sim`] SIMT device simulator:
//!
//! * Greedy medoid-candidate selection (paper Alg. 2),
//! * ComputeL: distance rows, sphere radii `δ`, point lists (Alg. 3),
//! * FindDimensions: `X`/`H`/`Z` with shared-memory staging (Alg. 4),
//! * AssignPoints with per-point shared-memory minima (Alg. 5),
//! * EvaluateCluster with fused on-chip centroids (Alg. 6, Eq. 9),
//! * RemoveOutliers, and the `Dist`/`H` reuse machinery of FAST/FAST\*.
//!
//! Data, distance rows, `H`, point lists and labels stay device-resident;
//! the host sees only `Z` (`k × d`), cluster sizes, and the cost scalar per
//! iteration — the transfer-avoidance structure of §4.1. All memory is
//! pooled up-front, so the peak-device-memory experiment (paper Fig. 3f)
//! and the 8 M-point out-of-memory wall (§5.3) are reproducible through
//! [`gpu_sim::Device::mem_peak`].
//!
//! For equal seeds the GPU variants return the same clustering as their CPU
//! counterparts in the `proclus` crate (asserted by the cross integration
//! tests), and the device's analytic performance model provides the
//! simulated kernel timings the benchmark harnesses report.
//!
//! ## Example
//!
//! All variants are reached through [`run`] / [`run_on`], which accept the
//! CPU crate's `Config` — the same call dispatches to either backend, and a
//! telemetry report (phase spans annotated with simulated device time,
//! bridged `kernel:<name>` spans) is available on request:
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig};
//! use proclus::{Backend, Config, DataMatrix, Params};
//!
//! let rows: Vec<Vec<f32>> = (0..400)
//!     .map(|i| {
//!         let c = (i % 2) as f32 * 30.0;
//!         vec![c + (i % 7) as f32 * 0.1, (i % 11) as f32, c + (i % 5) as f32 * 0.1]
//!     })
//!     .collect();
//! let data = DataMatrix::from_rows(&rows).unwrap();
//! let config = Config::new(Params::new(2, 2).with_a(40).with_b(5))
//!     .with_backend(Backend::Gpu)
//!     .with_telemetry(true);
//!
//! let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
//! let output = proclus_gpu::run_on(&mut dev, &data, &config).unwrap();
//! assert_eq!(output.clustering().k(), 2);
//! let report = output.telemetry.unwrap();
//! assert!(report.find_span("assign_points").is_some());
//! println!("simulated device time: {:.2} ms", dev.elapsed_ms());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod api;
pub mod backend;
pub mod error;
pub mod kernels;
pub mod rows;
pub mod shard;
pub mod workspace;

pub use api::{factory_for, run, run_on, run_on_with_cancel};
pub use backend::{GpuBackend, GpuFactory, GpuVariant};
pub use error::{GpuProclusError, Result};
pub use shard::{ShardedBackend, ShardedFactory};
