//! # gpu-fast-proclus — umbrella crate
//!
//! Re-exports the whole GPU-FAST-PROCLUS reproduction (EDBT 2022) behind
//! one dependency: the CPU algorithm family ([`proclus`]), the GPU variants
//! on the SIMT device simulator ([`proclus_gpu`] + [`gpu_sim`]), and the
//! dataset generators ([`datagen`]).
//!
//! Every variant/backend combination is reached through the unified
//! [`proclus::run`] / [`proclus_gpu::run_on`] entry points, driven by a
//! single [`proclus::Config`]:
//!
//! ```
//! use gpu_fast_proclus::prelude::*;
//!
//! let gen = datagen::synthetic::generate(
//!     &datagen::SyntheticConfig::new(500, 8).with_clusters(3).with_seed(7),
//! );
//! let params = Params::new(3, 3).with_a(30).with_b(5);
//!
//! let cpu = run(&gen.data, &Config::new(params.clone())).unwrap();
//!
//! let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
//! dev.set_deterministic(true);
//! let config = Config::new(params)
//!     .with_backend(Backend::Gpu)
//!     .with_telemetry(true);
//! let gpu = run_on(&mut dev, &gen.data, &config).unwrap();
//!
//! assert_eq!(cpu.clustering().labels, gpu.clustering().labels);
//! let report = gpu.telemetry.unwrap();
//! assert!(report.find_span("assign_points").is_some());
//! ```

#![warn(missing_docs)]

pub use datagen;
pub use gpu_sim;
pub use proclus;
pub use proclus_gpu;
pub use proclus_serve;
pub use proclus_telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use datagen::{self, SyntheticConfig};
    pub use gpu_sim::{Device, DeviceConfig};
    pub use proclus::{
        run, run_grid, Algo, Backend, BackendFactory, Clustering, Config, CpuFactory, DataMatrix,
        Grid, Params, ReuseLevel, RunOutput, Setting, OUTLIER,
    };
    pub use proclus_gpu::{factory_for, run_on, GpuFactory, ShardedFactory};
}
