//! The simulated device: memory management, kernel launching, clock and
//! statistics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::atomic::Scalar;
use crate::buffer::DeviceBuffer;
use crate::config::DeviceConfig;
use crate::dim::Dim3;
use crate::error::Result;
use crate::kernel::BlockCtx;
use crate::memory::MemoryPool;
use crate::perf::{self, KernelTiming};
use crate::sanitizer::{HazardFinding, LaunchSanitizer, SanitizerMode};
use crate::stats::{DeviceReport, KernelAggregate, KernelStats, WorkCounters};
use crate::trace::Trace;

/// A launch-local mutex is poisoned only when a kernel panicked while
/// merging into it; that launch panics anyway.
const POISONED: &str = "a kernel panicked while holding a launch lock";

/// A simulated GPU.
///
/// Owns a global-memory pool, a simulated clock, and per-kernel statistics.
/// Kernels launched through [`Device::launch`] execute functionally on host
/// threads while the device clock advances by the *modeled* kernel time
/// (see [`crate::perf`]).
pub struct Device {
    cfg: DeviceConfig,
    pool: MemoryPool,
    elapsed_us: f64,
    transfer_us: f64,
    launches: u64,
    kernels: BTreeMap<String, KernelAggregate>,
    deterministic: bool,
    host_threads: usize,
    /// Per-stream completion times for async launches (µs).
    streams: Vec<f64>,
    /// Device-seconds of work issued to streams since the last sync
    /// (throughput bound on overlap).
    stream_busy_us: f64,
    /// Clock value at the last stream sync point.
    last_sync_us: f64,
    /// Optional execution timeline (off by default).
    trace: Trace,
    /// Kernel sanitizer mode (off by default; see [`crate::sanitizer`]).
    sanitizer: SanitizerMode,
    /// Hazards accumulated across launches while the sanitizer is on.
    hazards: Vec<HazardFinding>,
    /// Findings dropped by per-launch dedup/caps (count only).
    hazards_truncated: u64,
}

/// A watermark over a device's allocations, taken with
/// [`Device::alloc_mark`] and rolled back with [`Device::free_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocMark(u64);

/// Handle to a CUDA-style stream created with [`Device::create_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

impl Device {
    /// Creates a device with the given hardware description.
    pub fn new(cfg: DeviceConfig) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = MemoryPool::new(cfg.global_mem_bytes);
        Self {
            cfg,
            pool,
            elapsed_us: 0.0,
            transfer_us: 0.0,
            launches: 0,
            kernels: BTreeMap::new(),
            deterministic: false,
            host_threads,
            streams: Vec::new(),
            stream_busy_us: 0.0,
            last_sync_us: 0.0,
            trace: Trace::default(),
            sanitizer: SanitizerMode::Off,
            hazards: Vec::new(),
            hazards_truncated: 0,
        }
    }

    /// The device's hardware description.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// When `true`, blocks execute sequentially in block order so that
    /// floating-point atomic reductions are bit-reproducible. Default: off
    /// (blocks run in parallel across host threads, like real hardware).
    pub fn set_deterministic(&mut self, det: bool) {
        self.deterministic = det;
    }

    /// Limits the number of host threads used for functional execution.
    pub fn set_host_threads(&mut self, n: usize) {
        self.host_threads = n.max(1);
    }

    /// Enables or disables timeline recording (see [`crate::trace`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Sets the kernel sanitizer mode (see [`crate::sanitizer`]).
    ///
    /// In [`SanitizerMode::Report`] detected hazards accumulate (see
    /// [`Device::hazards`]); in [`SanitizerMode::Abort`] the offending
    /// launch panics with the first finding. Expect a functional-execution
    /// slowdown of roughly 2–5× while enabled; modeled timings are
    /// unaffected.
    pub fn set_sanitizer(&mut self, mode: SanitizerMode) {
        self.sanitizer = mode;
    }

    /// The current sanitizer mode.
    pub fn sanitizer(&self) -> SanitizerMode {
        self.sanitizer
    }

    /// Hazards detected so far (empty when the sanitizer is off or all
    /// launches ran clean).
    pub fn hazards(&self) -> &[HazardFinding] {
        &self.hazards
    }

    /// Removes and returns all accumulated hazards.
    pub fn take_hazards(&mut self) -> Vec<HazardFinding> {
        self.hazards_truncated = 0;
        std::mem::take(&mut self.hazards)
    }

    /// `Ok(())` if no hazards have been detected, otherwise the first
    /// finding as a structured [`crate::GpuError::Hazard`].
    pub fn check_hazards(&self) -> Result<()> {
        match self.hazards.first() {
            None => Ok(()),
            Some(h) => Err(h.to_error()),
        }
    }

    /// The recorded execution timeline.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the timeline (e.g. to clear it between phases).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    // ---------------------------------------------------------------- memory

    /// Allocates `len` elements initialized to `init`. Each allocation
    /// charges the driver's `cudaMalloc` latency to the clock — the reason
    /// the algorithms pool all memory up front (§4.1).
    pub fn alloc<T: Scalar>(
        &mut self,
        label: &str,
        len: usize,
        init: T,
    ) -> Result<DeviceBuffer<T>> {
        let id = self.pool.alloc(label, len * T::BYTES)?;
        self.elapsed_us += self.pool.alloc_cost_us();
        let buf = DeviceBuffer::new_zeroed(label, len, id);
        if init != T::ZERO {
            for i in 0..len {
                buf.poke(i, init);
            }
        }
        Ok(buf)
    }

    /// Allocates `len` zero-initialized elements.
    pub fn alloc_zeroed<T: Scalar>(&mut self, label: &str, len: usize) -> Result<DeviceBuffer<T>> {
        self.alloc(label, len, T::ZERO)
    }

    /// Allocates `len` elements *without* initializing them — the honest
    /// `cudaMalloc` analogue. Contents are a garbage sentinel, and the
    /// sanitizer's initcheck (see [`crate::sanitizer`]) flags any device
    /// read of an element that was never stored to (by a kernel, `upload`,
    /// `memset` or `poke`).
    pub fn alloc_uninit<T: Scalar>(&mut self, label: &str, len: usize) -> Result<DeviceBuffer<T>> {
        let id = self.pool.alloc(label, len * T::BYTES)?;
        self.elapsed_us += self.pool.alloc_cost_us();
        Ok(DeviceBuffer::new_uninit(label, len, id))
    }

    /// Frees a buffer's reservation in the pool. The handle itself stays
    /// readable (the simulator is lenient where hardware would fault), but
    /// the bytes return to the pool and a second free is an error.
    pub fn free<T: Scalar>(&mut self, buf: &DeviceBuffer<T>) -> Result<()> {
        if buf.is_view() {
            return Err(crate::error::GpuError::InvalidBuffer {
                label: format!("{} (a view; free the parent allocation)", buf.label()),
            });
        }
        self.pool.free(buf.inner.pool_id)?;
        self.elapsed_us += self.pool.alloc_cost_us();
        Ok(())
    }

    /// Host→device copy: allocates and fills a buffer, charging PCIe time.
    pub fn htod<T: Scalar>(&mut self, label: &str, data: &[T]) -> Result<DeviceBuffer<T>> {
        let buf = self.alloc_zeroed::<T>(label, data.len())?;
        for (i, &v) in data.iter().enumerate() {
            buf.poke(i, v);
        }
        let t = perf::model_transfer(&self.cfg, data.len() * T::BYTES);
        self.transfer_us += t;
        let start = self.elapsed_us;
        self.elapsed_us += t;
        self.trace
            .record(&format!("htod:{label}"), start, self.elapsed_us, 0);
        Ok(buf)
    }

    /// Host→device copy into an *existing* buffer (a `cudaMemcpy` into
    /// pre-allocated memory), charging PCIe time. Panics if `data` is
    /// longer than the buffer; shorter uploads fill a prefix.
    pub fn upload<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, data: &[T]) {
        assert!(
            data.len() <= buf.len(),
            "upload of {} elements into `{}` of {}",
            data.len(),
            buf.label(),
            buf.len()
        );
        for (i, &v) in data.iter().enumerate() {
            buf.poke(i, v);
        }
        let t = perf::model_transfer(&self.cfg, data.len() * T::BYTES);
        self.transfer_us += t;
        self.elapsed_us += t;
    }

    /// Device→host copy of a whole buffer, charging PCIe time.
    pub fn dtoh<T: Scalar>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let t = perf::model_transfer(&self.cfg, buf.bytes());
        self.transfer_us += t;
        let start = self.elapsed_us;
        self.elapsed_us += t;
        self.trace
            .record(&format!("dtoh:{}", buf.label()), start, self.elapsed_us, 0);
        buf.peek_all()
    }

    /// Device-side fill (a `cudaMemset` analogue): charges write bandwidth
    /// but no kernel launch.
    pub fn memset<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, v: T) {
        for i in 0..buf.len() {
            buf.poke(i, v);
        }
        self.elapsed_us += buf.bytes() as f64 / (self.cfg.mem_bandwidth_gbps * 1e3);
    }

    /// Adds `us` microseconds of host-side driver time to the clock (used
    /// for modeled host work between kernels, e.g. tiny selection logic).
    pub fn charge_us(&mut self, us: f64) {
        self.elapsed_us += us;
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.pool.used()
    }

    /// Peak bytes ever allocated (Fig. 3f's metric).
    pub fn mem_peak(&self) -> usize {
        self.pool.peak()
    }

    /// Resets the peak-memory tracker to current usage.
    pub fn reset_mem_peak(&mut self) {
        self.pool.reset_peak();
    }

    /// Live allocations, largest first.
    pub fn live_allocations(&self) -> Vec<crate::memory::Allocation> {
        self.pool.live_allocations()
    }

    /// A watermark over the allocations made so far.
    pub fn alloc_mark(&self) -> AllocMark {
        AllocMark(self.pool.next_id())
    }

    /// Frees every allocation made since `mark` that is still live,
    /// charging the usual free latency for each — the rollback of a
    /// multi-buffer setup that failed part-way.
    pub fn free_since(&mut self, mark: AllocMark) -> Result<()> {
        for id in self.pool.live_since(mark.0) {
            self.pool.free(id)?;
            self.elapsed_us += self.pool.alloc_cost_us();
        }
        Ok(())
    }

    // ---------------------------------------------------------------- launch

    /// Launches a kernel: executes `f` once per block of `grid`, with
    /// `block.x` threads per block, then advances the simulated clock by the
    /// modeled kernel time. Returns the timing for this launch.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (zero-sized grid/block, more threads
    /// per block than the device supports, or multi-dimensional thread
    /// blocks, which the simulator does not model) — these are programming
    /// errors in the kernel host code, the analogue of
    /// `cudaErrorInvalidConfiguration`.
    pub fn launch<F>(&mut self, name: &str, grid: Dim3, block: Dim3, f: F) -> KernelTiming
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        // The default stream synchronizes with all async streams first,
        // as in CUDA's legacy default-stream semantics.
        self.sync_streams();
        let timing = self.execute(name, grid, block, f);
        let start = self.elapsed_us;
        self.elapsed_us += timing.time_us;
        self.trace.record(name, start, self.elapsed_us, 0);
        timing
    }

    /// Creates a stream for overlapping independent kernels — the paper's
    /// §5.4 remark that non-dependent kernels "could be used to run two
    /// kernels concurrently to engage more cores".
    ///
    /// Overlap is bounded twice: (1) each stream is sequential, and (2) the
    /// device as a whole cannot exceed its throughput — every overlapped
    /// kernel contributes `body_time × utilization` of busy device-seconds
    /// (utilization = max of achieved occupancy and memory-throughput
    /// fraction), plus its host-serialized launch overhead. A kernel that
    /// saturates the device therefore gains nothing from streams, while
    /// underutilizing kernels overlap almost fully — matching the effect
    /// the paper describes for its small low-occupancy kernels (§5.4).
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(self.elapsed_us);
        StreamId(self.streams.len() - 1)
    }

    /// Launches on `stream`: the kernel executes functionally now, but its
    /// modeled time advances only that stream's clock (subject to the
    /// throughput bound at the next sync). Call [`Device::sync_streams`]
    /// (or any default-stream operation) to join.
    pub fn launch_on<F>(
        &mut self,
        stream: StreamId,
        name: &str,
        grid: Dim3,
        block: Dim3,
        f: F,
    ) -> KernelTiming
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let timing = self.execute(name, grid, block, f);
        if self.stream_busy_us == 0.0 {
            // First async launch since the last sync: anchor the
            // throughput bound at the current clock.
            self.last_sync_us = self.elapsed_us;
        }
        let start = self.streams[stream.0].max(self.elapsed_us);
        self.streams[stream.0] = start + timing.time_us;
        self.trace
            .record(name, start, self.streams[stream.0], stream.0 + 1);
        let utilization = timing
            .achieved_occupancy
            .max(timing.mem_throughput_frac)
            .clamp(0.0, 1.0);
        let body = (timing.time_us - self.cfg.kernel_launch_us).max(0.0);
        self.stream_busy_us += self.cfg.kernel_launch_us + body * utilization;
        timing
    }

    /// Joins all streams: the device clock advances to the later of the
    /// latest stream completion (dependency bound) and the accumulated
    /// busy time since the last sync (throughput bound) — a
    /// `cudaDeviceSynchronize`.
    pub fn sync_streams(&mut self) {
        let wall = self
            .streams
            .iter()
            .fold(self.elapsed_us, |acc, &s| acc.max(s));
        let throughput = self.last_sync_us + self.stream_busy_us;
        self.elapsed_us = wall.max(throughput);
        for s in &mut self.streams {
            *s = self.elapsed_us;
        }
        self.stream_busy_us = 0.0;
        self.last_sync_us = self.elapsed_us;
    }

    fn execute<F>(&mut self, name: &str, grid: Dim3, block: Dim3, f: F) -> KernelTiming
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        assert!(grid.volume() >= 1, "kernel `{name}`: empty grid");
        assert!(
            block.y == 1 && block.z == 1,
            "kernel `{name}`: only 1-D thread blocks are supported"
        );
        assert!(
            (1..=self.cfg.max_threads_per_block).contains(&block.x),
            "kernel `{name}`: {} threads/block exceeds device limit {}",
            block.x,
            self.cfg.max_threads_per_block
        );

        let total_blocks = grid.volume();
        let work = Mutex::new(WorkCounters::default());
        let shared_max = AtomicUsize::new(0);
        // When the sanitizer is on, every block records its access sets and
        // merges them here as it retires; cross-block conflicts fall out of
        // the merge (each block merges exactly once, so pre-existing entries
        // are always from a different block).
        let san =
            (self.sanitizer != SanitizerMode::Off).then(|| Mutex::new(LaunchSanitizer::new()));
        let sanitize = san.is_some();

        let run_block = |lin: u64, acc: &mut WorkCounters, sh: &mut usize| {
            let mut ctx = BlockCtx::new(grid.from_linear(lin), grid, block, lin, sanitize);
            f(&mut ctx);
            acc.merge(&ctx.counters);
            *sh = (*sh).max(ctx.shared_bytes);
            if let (Some(launch_san), Some(block_san)) = (&san, ctx.san.take()) {
                launch_san.lock().expect(POISONED).merge_block(*block_san);
            }
        };

        let workers = self.host_threads.min(total_blocks as usize).max(1);
        if self.deterministic || workers == 1 || total_blocks < 4 {
            let mut acc = WorkCounters::default();
            let mut sh = 0usize;
            for lin in 0..total_blocks {
                run_block(lin, &mut acc, &mut sh);
            }
            work.lock().expect(POISONED).merge(&acc);
            shared_max.fetch_max(sh, Ordering::Relaxed);
        } else {
            let next = AtomicU64::new(0);
            // Chunked dynamic scheduling keeps the fetch_add cost negligible
            // while balancing blocks of uneven cost.
            let chunk = (total_blocks / (workers as u64 * 8)).clamp(1, 1024);
            // The scope joins every worker and re-panics if a kernel did.
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut acc = WorkCounters::default();
                        let mut sh = 0usize;
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total_blocks {
                                break;
                            }
                            let end = (start + chunk).min(total_blocks);
                            for lin in start..end {
                                run_block(lin, &mut acc, &mut sh);
                            }
                        }
                        work.lock().expect(POISONED).merge(&acc);
                        shared_max.fetch_max(sh, Ordering::Relaxed);
                    });
                }
            });
        }

        let work = work.into_inner().expect(POISONED);
        let shared_bytes = shared_max.into_inner();
        let timing = perf::model_kernel(&self.cfg, grid, block, shared_bytes, &work);

        self.launches += 1;
        let agg = self.kernels.entry(name.to_string()).or_default();
        agg.launches += 1;
        agg.total_time_us += timing.time_us;
        agg.work.merge(&work);
        let stats = KernelStats {
            name: name.to_string(),
            grid,
            block,
            shared_bytes_per_block: shared_bytes,
            work,
            timing,
        };
        let replace = agg
            .representative
            .as_ref()
            .map(|r| grid.volume() >= r.grid.volume())
            .unwrap_or(true);
        if replace {
            agg.representative = Some(stats);
        }

        if let Some(san) = san {
            let (findings, truncated) = san.into_inner().expect(POISONED).finish(name);
            self.hazards_truncated += truncated;
            if !findings.is_empty() {
                let first = findings[0].clone();
                self.hazards.extend(findings);
                if self.sanitizer == SanitizerMode::Abort {
                    panic!("kernel sanitizer: {first}");
                }
            }
        }
        timing
    }

    // ---------------------------------------------------------------- clock

    /// Simulated device time consumed so far, in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed_us
    }

    /// Simulated device time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_us / 1e3
    }

    /// Resets the clock and transfer accumulator (not the memory pool).
    pub fn reset_clock(&mut self) {
        self.elapsed_us = 0.0;
        self.transfer_us = 0.0;
    }

    /// Advances the clock by `us` microseconds without executing work —
    /// used by multi-device ensembles to credit their simulated time to
    /// the device the caller handed in, so `elapsed_ms()` stays
    /// meaningful whichever backend ran.
    pub fn advance_clock_us(&mut self, us: f64) {
        self.elapsed_us += us.max(0.0);
    }

    /// Clears per-kernel statistics and the launch counter.
    pub fn reset_stats(&mut self) {
        self.kernels.clear();
        self.launches = 0;
    }

    /// Snapshot of everything the device has done so far.
    pub fn report(&self) -> DeviceReport {
        DeviceReport {
            elapsed_us: self.elapsed_us,
            transfer_us: self.transfer_us,
            launches: self.launches,
            mem_used: self.pool.used(),
            mem_peak: self.pool.peak(),
            kernels: self.kernels.clone(),
            hazards: self.hazards.clone(),
        }
    }

    /// Number of sanitizer findings dropped by per-launch dedup/caps.
    pub fn hazards_truncated(&self) -> u64 {
        self.hazards_truncated
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.cfg.name)
            .field("elapsed_us", &self.elapsed_us)
            .field("mem_used", &self.pool.used())
            .field("launches", &self.launches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(DeviceConfig::gtx_1660_ti())
    }

    #[test]
    fn free_since_rolls_back_only_the_later_allocations() {
        let mut d = dev();
        let kept = d.alloc_zeroed::<f32>("kept", 10).unwrap();
        let mark = d.alloc_mark();
        let a = d.alloc_zeroed::<u32>("a", 20).unwrap();
        d.alloc_zeroed::<f64>("b", 30).unwrap();
        d.free(&a).unwrap();
        d.free_since(mark).unwrap();
        let live = d.live_allocations();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].label, "kept");
        d.free(&kept).unwrap();
        assert_eq!(d.mem_used(), 0);
    }

    #[test]
    fn htod_dtoh_roundtrip_charges_time() {
        let mut d = dev();
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let buf = d.htod("x", &data).unwrap();
        let t_after_up = d.elapsed_us();
        assert!(t_after_up > 0.0);
        let back = d.dtoh(&buf);
        assert_eq!(back, data);
        assert!(d.elapsed_us() > t_after_up);
        assert_eq!(d.mem_used(), 4000);
    }

    #[test]
    fn parallel_and_deterministic_execution_agree_on_integer_work() {
        let run = |det: bool| {
            let mut d = dev();
            d.set_deterministic(det);
            let acc = d.alloc_zeroed::<u64>("acc", 16).unwrap();
            d.launch("sum", Dim3::x(200), Dim3::x(256), |blk| {
                blk.threads(|t| {
                    let g = t.global_id_x() as u64;
                    acc.atomic_add(t, (g % 16) as usize, g);
                });
            });
            acc.peek_all()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn launch_panics_on_oversized_block() {
        let mut d = dev();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.launch("bad", Dim3::x(1), Dim3::x(2048), |_| {});
        }));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic]
    fn kernel_panic_in_a_worker_thread_escalates() {
        let mut d = dev();
        d.set_deterministic(false);
        d.set_host_threads(4);
        d.launch("boom", Dim3::x(64), Dim3::x(32), |blk| {
            assert!(blk.block.x != 37, "boom in block 37");
        });
    }

    #[test]
    fn kernel_aggregates_accumulate() {
        let mut d = dev();
        let buf = d.alloc_zeroed::<f32>("b", 1024).unwrap();
        for _ in 0..3 {
            d.launch("touch", Dim3::x(1), Dim3::x(1024), |blk| {
                blk.threads(|t| {
                    buf.st(t, t.tid as usize, 1.0);
                });
            });
        }
        let rep = d.report();
        assert_eq!(rep.launches, 3);
        assert_eq!(rep.kernels["touch"].launches, 3);
        assert_eq!(rep.kernels["touch"].work.global_stores, 3 * 1024);
    }

    #[test]
    fn free_returns_bytes_to_pool() {
        let mut d = dev();
        let b = d.alloc_zeroed::<f64>("b", 100).unwrap();
        assert_eq!(d.mem_used(), 800);
        d.free(&b).unwrap();
        assert_eq!(d.mem_used(), 0);
        assert!(d.free(&b).is_err(), "double free must fail");
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut d = Device::new(DeviceConfig::tiny_test_device());
        assert!(d.alloc_zeroed::<f64>("huge", 10_000_000).is_err());
    }

    #[test]
    fn memset_fills_and_charges() {
        let mut d = dev();
        let b = d.alloc_zeroed::<u32>("b", 10).unwrap();
        let t0 = d.elapsed_us();
        d.memset(&b, 7);
        assert!(b.peek_all().iter().all(|&v| v == 7));
        assert!(d.elapsed_us() > t0);
    }

    #[test]
    fn underutilizing_kernels_overlap_on_streams() {
        // Compute-heavy kernels with tiny grids (a few percent occupancy):
        // the case streams exist for. Two of them overlapped should cost
        // roughly one, not two.
        let heavy = |buf: &crate::DeviceBuffer<f32>| {
            let b = buf.clone();
            move |blk: &mut BlockCtx| {
                blk.threads(|t| {
                    t.flops(200_000);
                    let v = b.ld(t, t.tid as usize);
                    b.st(t, t.tid as usize, v + 1.0);
                });
            }
        };
        let mut dev1 = dev();
        let buf = dev1.alloc_zeroed::<f32>("b", 256).unwrap();
        let t0 = dev1.elapsed_us();
        dev1.launch("seq", Dim3::x(2), Dim3::x(128), heavy(&buf));
        dev1.launch("seq", Dim3::x(2), Dim3::x(128), heavy(&buf));
        let sequential = dev1.elapsed_us() - t0;

        let mut dev2 = dev();
        let buf2 = dev2.alloc_zeroed::<f32>("b", 256).unwrap();
        let t0 = dev2.elapsed_us();
        let s1 = dev2.create_stream();
        let s2 = dev2.create_stream();
        dev2.launch_on(s1, "par", Dim3::x(2), Dim3::x(128), heavy(&buf2));
        dev2.launch_on(s2, "par", Dim3::x(2), Dim3::x(128), heavy(&buf2));
        dev2.sync_streams();
        let overlapped = dev2.elapsed_us() - t0;
        assert!(
            overlapped < sequential * 0.75,
            "overlap {overlapped} vs sequential {sequential}"
        );
    }

    #[test]
    fn saturating_kernels_gain_nothing_from_streams() {
        // Full-device kernels cannot exceed device throughput: streams must
        // not beat sequential launches by more than launch-overhead hiding.
        let wide = |buf: &crate::DeviceBuffer<f32>| {
            let b = buf.clone();
            move |blk: &mut BlockCtx| {
                blk.threads(|t| {
                    let g = t.global_id_x();
                    if g < b.len() {
                        t.flops(500);
                        let v = b.ld(t, g);
                        b.st(t, g, v + 1.0);
                    }
                });
            }
        };
        let mut dev1 = dev();
        let buf = dev1.alloc_zeroed::<f32>("b", 1 << 17).unwrap();
        let t0 = dev1.elapsed_us();
        dev1.launch("seq", Dim3::x(128), Dim3::x(1024), wide(&buf));
        dev1.launch("seq", Dim3::x(128), Dim3::x(1024), wide(&buf));
        let sequential = dev1.elapsed_us() - t0;

        let mut dev2 = dev();
        let buf2 = dev2.alloc_zeroed::<f32>("b", 1 << 17).unwrap();
        let t0 = dev2.elapsed_us();
        let s1 = dev2.create_stream();
        let s2 = dev2.create_stream();
        dev2.launch_on(s1, "par", Dim3::x(128), Dim3::x(1024), wide(&buf2));
        dev2.launch_on(s2, "par", Dim3::x(128), Dim3::x(1024), wide(&buf2));
        dev2.sync_streams();
        let overlapped = dev2.elapsed_us() - t0;
        assert!(
            overlapped > sequential * 0.85,
            "saturating overlap {overlapped} should approach sequential {sequential}"
        );
    }

    #[test]
    fn default_stream_joins_async_streams() {
        let mut d = dev();
        let buf = d.alloc_zeroed::<u32>("b", 64).unwrap();
        let s = d.create_stream();
        let b = buf.clone();
        d.launch_on(s, "async", Dim3::x(1), Dim3::x(64), move |blk| {
            blk.threads(|t| {
                let v = t.tid;
                b.st(t, t.tid as usize, v);
            });
        });
        let before_join = d.elapsed_us();
        // A default-stream launch must first wait for the async stream.
        let b = buf.clone();
        d.launch("sync", Dim3::x(1), Dim3::x(1), move |blk| {
            blk.thread0(|t| {
                let v = b.ld(t, 63);
                b.st(t, 0, v);
            });
        });
        assert!(d.elapsed_us() > before_join);
        assert_eq!(buf.peek(0), 63);
    }

    #[test]
    fn clock_reset_keeps_memory() {
        let mut d = dev();
        let _b = d.alloc_zeroed::<u32>("b", 10).unwrap();
        d.charge_us(5.0);
        d.reset_clock();
        assert_eq!(d.elapsed_us(), 0.0);
        assert_eq!(d.mem_used(), 40);
    }
}
