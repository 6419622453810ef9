//! # gpu-sim — a software SIMT device simulator
//!
//! This crate provides a CUDA-like programming model executed entirely on the
//! host, together with an analytic performance model that estimates how long
//! each kernel would take on a configurable NVIDIA-class device.
//!
//! It exists so that GPU-parallel algorithms — here, the kernels of
//! GPU-FAST-PROCLUS (EDBT 2022) — can be implemented with their exact
//! parallel structure (grids, blocks, threads, `__syncthreads()` barriers,
//! global/shared memory, atomics, up-front memory pooling, host↔device
//! transfers) and validated functionally on machines without a GPU, while
//! still producing meaningful *modeled* kernel timings, occupancy and memory
//! throughput figures.
//!
//! ## Programming model
//!
//! * A [`Device`] owns global memory (a pre-allocating [`memory::MemoryPool`])
//!   and accumulates a simulated clock plus per-kernel statistics.
//! * [`DeviceBuffer<T>`] is global memory. All loads/stores/atomics go
//!   through a [`ThreadCtx`] so the simulator can count work.
//! * [`Device::launch`] executes a kernel over a [`Dim3`] grid of thread
//!   blocks. The block body receives a [`BlockCtx`]; calling
//!   [`BlockCtx::threads`] runs a *phase* for every thread of the block, and
//!   consecutive `threads` calls are separated by an implicit block-wide
//!   barrier — the direct analogue of `__syncthreads()`.
//! * [`Shared`] is block-shared memory; [`Regs`] are per-thread registers
//!   that survive across barriers.
//! * Atomic operations (`atomic_add`, `atomic_min`, CAS, …) are provided on
//!   both global buffers and shared memory, with float variants implemented
//!   as compare-and-swap loops exactly like their CUDA counterparts.
//!
//! Blocks are independent (as on real hardware) and are executed in parallel
//! across host threads; [`Device::set_deterministic`] serializes them in
//! block order so floating-point atomic reduction orders are reproducible.
//!
//! ## Performance model
//!
//! Executed kernels report counted work (flops, integer ops, global/shared
//! traffic, atomics) which [`perf::model_kernel`] converts into a time
//! estimate using a roofline-style model: occupancy-limited compute
//! throughput vs. memory bandwidth, plus atomic and kernel-launch overheads.
//! See [`perf`] for the formulas and their calibration sources.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig, Dim3};
//!
//! let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
//! let xs = dev.htod("xs", &[1.0f32, 2.0, 3.0, 4.0]).unwrap();
//! let sum = dev.alloc_zeroed::<f32>("sum", 1).unwrap();
//!
//! dev.launch("sum", Dim3::x(1), Dim3::x(4), |blk| {
//!     blk.threads(|t| {
//!         let v = xs.ld(t, t.tid as usize);
//!         sum.atomic_add(t, 0, v);
//!     });
//! });
//!
//! assert_eq!(dev.dtoh(&sum)[0], 10.0);
//! assert!(dev.elapsed_us() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
pub mod buffer;
pub mod config;
pub mod device;
pub mod dim;
pub mod error;
pub mod kernel;
pub mod memory;
pub mod perf;
pub mod sanitizer;
pub mod shared;
pub mod stats;
pub mod trace;

pub use buffer::DeviceBuffer;
pub use config::DeviceConfig;
pub use device::{AllocMark, Device, StreamId};
pub use dim::Dim3;
pub use error::{GpuError, Result};
pub use kernel::{BlockCtx, Regs, ThreadCtx};
pub use perf::KernelTiming;
pub use sanitizer::{AccessKind, AccessSite, HazardFinding, HazardKind, SanitizerMode};
pub use shared::Shared;
pub use stats::{DeviceReport, KernelStats, WorkCounters};
pub use trace::{Trace, TraceEvent};
