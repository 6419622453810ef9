//! The server: a bounded job queue, a pool of worker threads, and the
//! batching scheduler that coalesces queued jobs on the same dataset into
//! one multi-parameter grid run (§3.1 reuse: shared sample, shared
//! `Dist`/`H` caches, shared greedy `M`).
//!
//! ## Scheduling
//!
//! A worker drains the queue head plus every queued job *compatible* with
//! it (same dataset, same backend, [`Algo::Fast`], parameters equal except
//! `(k, l)`), up to [`ServeConfig::max_batch`]. The batch executes as one
//! grid run ordered largest-`k` first — the order for which the shared
//! greedy pass (|M| = B·k_max) and warm-started medoids are valid — through
//! the skip-and-report [`proclus::run_grid`] over the backend's factory,
//! with one cancel token per job. Baseline and FAST* jobs always run solo.
//!
//! ## Robustness
//!
//! * **Admission control**: the queue is bounded; a full queue rejects with
//!   [`ServeError::QueueFull`] (backpressure), never blocks the submitter.
//! * **Deadlines / cancellation**: each job's [`CancelToken`] carries the
//!   optional deadline; the core drivers check it at phase boundaries, and
//!   workers skip jobs already cancelled while queued.
//! * **Panic isolation**: batch execution runs under `catch_unwind`; a
//!   panicking job fails with [`ServeError::WorkerPanicked`], the worker's
//!   GPU device (if any) is discarded, and the worker keeps draining.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use proclus_verify::{TrackedCondvar, TrackedMutex};

use gpu_sim::{Device, DeviceConfig};
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::par::Executor;
use proclus::telemetry::{NullRecorder, Recorder, SpanNode, Telemetry, TelemetryReport};
use proclus::{Algo, CancelToken, Config, DataMatrix};

use crate::job::{JobHandle, JobId, JobOutput, JobRequest, JobResult, JobShared, ServeError};
use crate::metrics::ServiceMetrics;
use crate::registry::DatasetRegistry;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches. Default 2.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected
    /// ([`ServeError::QueueFull`]). Default 64.
    pub queue_capacity: usize,
    /// Byte budget of the dataset LRU cache. Default 256 MiB.
    pub dataset_cache_bytes: usize,
    /// Maximum jobs coalesced into one grid run; 1 disables batching.
    /// Default 16.
    pub max_batch: usize,
    /// Reuse level for coalesced grid runs. Default
    /// [`ReuseLevel::SharedGreedy`]: one sample and one greedy pass serve
    /// the whole batch, so a batch of width ≥ 2 always computes strictly
    /// fewer initialization distances than the same jobs run solo.
    pub reuse: ReuseLevel,
    /// Start with workers paused (jobs queue but do not execute until
    /// [`Server::resume`]); useful for deterministic batching in tests and
    /// demos. Default false.
    pub start_paused: bool,
    /// Record per-job telemetry (span trees + counters). Default true.
    pub telemetry: bool,
    /// CPU threads a job may use, enforced by the shared work-stealing
    /// pool's grain scheduler (`0` = all cores). Jobs never build private
    /// executors: every job and the batching scheduler submit phases to
    /// the one process-wide pool, which interleaves them at phase
    /// granularity — concurrent jobs cannot oversubscribe cores. Default 0.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            dataset_cache_bytes: 256 << 20,
            max_batch: 16,
            reuse: ReuseLevel::SharedGreedy,
            start_paused: false,
            telemetry: true,
            threads: 0,
        }
    }
}

impl ServeConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-job CPU thread cap (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the dataset cache byte budget.
    pub fn with_dataset_cache_bytes(mut self, bytes: usize) -> Self {
        self.dataset_cache_bytes = bytes;
        self
    }

    /// Sets the maximum batch width (1 disables coalescing).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the grid reuse level for coalesced runs.
    pub fn with_reuse(mut self, reuse: ReuseLevel) -> Self {
        self.reuse = reuse;
        self
    }

    /// Starts the server paused.
    pub fn with_start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// Enables or disables per-job telemetry.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }
}

struct Queued {
    spec: JobRequest,
    shared: Arc<JobShared>,
    enqueued: Instant,
}

struct State {
    queue: VecDeque<Queued>,
    paused: bool,
    shutdown: bool,
}

struct ServerInner {
    cfg: ServeConfig,
    registry: DatasetRegistry,
    metrics: ServiceMetrics,
    state: TrackedMutex<State>,
    cv: TrackedCondvar,
    next_id: AtomicU64,
}

/// A running clustering service. Dropping the server shuts it down
/// gracefully (queued jobs finish first).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the service with `cfg.workers` worker threads. Fails with
    /// [`ServeError::Spawn`] when the OS refuses a worker thread; workers
    /// already started are shut down and joined before the error returns.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        let inner = Arc::new(ServerInner {
            registry: DatasetRegistry::new(cfg.dataset_cache_bytes),
            metrics: ServiceMetrics::default(),
            state: TrackedMutex::new(
                "server.state",
                State {
                    queue: VecDeque::new(),
                    paused: cfg.start_paused,
                    shutdown: false,
                },
            ),
            cv: TrackedCondvar::new("server.cv"),
            next_id: AtomicU64::new(0),
            cfg,
        });
        let count = inner.cfg.workers.max(1);
        let mut workers = Vec::with_capacity(count);
        for i in 0..count {
            let worker_inner = Arc::clone(&inner);
            // Long-lived service workers that sleep on the job queue; their
            // per-job compute shares the Executor pool, whose submit lock keeps
            // concurrent jobs from oversubscribing cores.
            // lint:allow(no_raw_scope) -- service worker, not data-parallel fan-out
            let spawned = std::thread::Builder::new()
                .name(format!("proclus-serve-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    inner.state.lock().shutdown = true;
                    inner.cv.notify_all();
                    for w in workers.drain(..) {
                        let _ = w.join();
                    }
                    return Err(ServeError::Spawn {
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(Self {
            inner,
            workers: TrackedMutex::new("server.workers", workers),
        })
    }

    /// Submits a job. Admission control happens here: requests failing
    /// cheap parameter validation, arriving after shutdown, or hitting the
    /// queue bound are rejected without being queued.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, ServeError> {
        if let Err(e) = req.params.validate_basic() {
            self.inner.metrics.inc_jobs_rejected();
            return Err(ServeError::InvalidRequest {
                reason: e.to_string(),
            });
        }
        let mut st = self.inner.state.lock();
        if st.shutdown {
            self.inner.metrics.inc_jobs_rejected();
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            self.inner.metrics.inc_jobs_rejected();
            return Err(ServeError::QueueFull {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let id = JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let cancel = match req.deadline {
            Some(d) => CancelToken::with_deadline(Instant::now() + d),
            None => CancelToken::new(),
        };
        let shared = Arc::new(JobShared::new(id, cancel));
        st.queue.push_back(Queued {
            spec: req,
            shared: Arc::clone(&shared),
            enqueued: Instant::now(),
        });
        self.inner.metrics.inc_jobs_admitted();
        drop(st);
        self.inner.cv.notify_one();
        Ok(JobHandle { shared })
    }

    /// Pauses the workers: queued jobs wait until [`Self::resume`].
    pub fn pause(&self) {
        self.inner.state.lock().paused = true;
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        self.inner.state.lock().paused = false;
        self.inner.cv.notify_all();
    }

    /// Current number of queued (not yet executing) jobs.
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Point-in-time service metrics as a schema-valid telemetry report.
    pub fn metrics(&self) -> TelemetryReport {
        self.inner.metrics.snapshot()
    }

    /// The dataset registry (for cache inspection).
    pub fn registry(&self) -> &DatasetRegistry {
        &self.inner.registry
    }

    /// Graceful shutdown: stops admitting jobs, lets workers drain the
    /// queue, and joins them. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
            st.paused = false;
        }
        self.inner.cv.notify_all();
        let mut ws = self.workers.lock();
        for w in ws.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Jobs are batchable together when they resolve to the same dataset, run
/// FAST-PROCLUS on the same backend, and differ only in `(k, l)`.
fn compatible(a: &JobRequest, b: &JobRequest) -> bool {
    if a.algo != Algo::Fast || b.algo != Algo::Fast {
        return false;
    }
    if a.backend != b.backend || a.dataset.key() != b.dataset.key() {
        return false;
    }
    if a.panic_for_test || b.panic_for_test {
        return false;
    }
    let mut p = b.params.clone();
    p.k = a.params.k;
    p.l = a.params.l;
    p == a.params
}

fn take_batch(queue: &mut VecDeque<Queued>, cfg: &ServeConfig) -> Vec<Queued> {
    let Some(first) = queue.pop_front() else {
        return Vec::new();
    };
    let mut batch = vec![first];
    if cfg.max_batch > 1 && batch[0].spec.algo == Algo::Fast {
        let mut i = 0;
        while i < queue.len() && batch.len() < cfg.max_batch {
            if compatible(&batch[0].spec, &queue[i].spec) {
                match queue.remove(i) {
                    Some(q) => batch.push(q),
                    None => break,
                }
            } else {
                i += 1;
            }
        }
    }
    batch
}

fn worker_loop(inner: &ServerInner) {
    let mut device: Option<Device> = None;
    loop {
        let batch = {
            let mut st = inner.state.lock();
            loop {
                if !st.queue.is_empty() && !st.paused {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner.cv.wait(st);
            }
            take_batch(&mut st.queue, &inner.cfg)
        };
        execute_batch(inner, &mut device, batch);
    }
}

fn classify_and_fulfil(metrics: &ServiceMetrics, q: &Queued, result: JobResult) {
    match &result {
        Ok(_) => metrics.inc_jobs_completed(),
        Err(e) if e.is_cancelled() => metrics.inc_jobs_cancelled(),
        Err(_) => metrics.inc_jobs_failed(),
    }
    q.shared.fulfil(result);
}

fn execute_batch(inner: &ServerInner, device: &mut Option<Device>, batch: Vec<Queued>) {
    let metrics = &inner.metrics;
    let start = Instant::now();

    // Jobs cancelled (or past deadline) while queued are skipped before any
    // compute and do not count toward the executed batch.
    let mut live = Vec::with_capacity(batch.len());
    for q in batch {
        match q.shared.cancel.check() {
            Err(e) => classify_and_fulfil(metrics, &q, Err(ServeError::Algorithm(e))),
            Ok(()) => live.push(q),
        }
    }
    if live.is_empty() {
        return;
    }

    let width = live.len();
    metrics.record_batch(width as u64);
    if width >= 2 {
        metrics.add_jobs_batched(width as u64);
    }
    let queue_waits: Vec<u64> = live
        .iter()
        .map(|q| {
            let us = start.duration_since(q.enqueued).as_micros() as u64;
            metrics.record_queue_wait_us(us);
            us
        })
        .collect();

    let outcome = catch_unwind(AssertUnwindSafe(|| run_batch(inner, device, &live)));
    let service_us = start.elapsed().as_micros() as u64;
    match outcome {
        Ok(results) => {
            debug_assert_eq!(results.len(), live.len());
            for ((q, r), queue_wait_us) in live.iter().zip(results).zip(queue_waits) {
                metrics.record_service_us(service_us);
                let r = r.map(|mut out| {
                    out.batch_width = width;
                    out.queue_wait_us = queue_wait_us;
                    out.service_us = service_us;
                    out
                });
                classify_and_fulfil(metrics, q, r);
            }
        }
        Err(payload) => {
            // The worker's device state is unknown after a panic; discard
            // it so the next GPU job starts from a fresh device.
            *device = None;
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            for q in &live {
                metrics.record_service_us(service_us);
                classify_and_fulfil(
                    metrics,
                    q,
                    Err(ServeError::WorkerPanicked {
                        reason: reason.clone(),
                    }),
                );
            }
        }
    }
}

fn run_batch(inner: &ServerInner, device: &mut Option<Device>, live: &[Queued]) -> Vec<JobResult> {
    let data = match inner.registry.get(&live[0].spec.dataset, &inner.metrics) {
        Ok(d) => d,
        Err(e) => return live.iter().map(|_| Err(e.clone())).collect(),
    };
    if live.len() == 1 {
        vec![run_solo(inner, device, &live[0], &data)]
    } else {
        run_coalesced(inner, device, live, &data)
    }
}

fn gpu_device(device: &mut Option<Device>) -> &mut Device {
    device.get_or_insert_with(|| Device::new(DeviceConfig::gtx_1660_ti()))
}

/// The executor serve jobs run on: the process-wide work-stealing pool,
/// capped at `cfg.threads` participants per phase (`0` = all cores). Jobs
/// never construct private thread pools — every job and the batching
/// scheduler submit phases to the one shared pool, which serializes them
/// at phase granularity, so concurrent jobs cannot oversubscribe cores no
/// matter how many service workers execute at once.
fn job_executor(cfg: &ServeConfig) -> Executor {
    match cfg.threads {
        0 => Executor::all_cores(),
        1 => Executor::Sequential,
        t => Executor::Parallel { threads: t },
    }
}

fn run_solo(
    inner: &ServerInner,
    device: &mut Option<Device>,
    q: &Queued,
    data: &DataMatrix,
) -> JobResult {
    if q.spec.panic_for_test {
        // Deliberate fault injection: the panic-isolation tests need a
        // panic that originates inside a worker.
        // lint:allow(no_panic) -- test-only fault injection path
        panic!("injected test panic (JobRequest::with_worker_panic_for_test)");
    }
    let config = Config::new(q.spec.params.clone())
        .with_algo(q.spec.algo)
        .with_backend(q.spec.backend)
        .with_telemetry(inner.cfg.telemetry)
        .with_threads(job_executor(&inner.cfg).threads());
    match proclus_gpu::run_on_with_cancel(gpu_device(device), data, &config, &q.shared.cancel) {
        Ok(o) => {
            let Some(clustering) = o.clusterings.into_iter().next() else {
                return Err(ServeError::Internal {
                    reason: "solo run returned no clustering".to_string(),
                });
            };
            let telemetry = o.telemetry.map(|mut t| {
                decorate_meta(&mut t, q, 1);
                t
            });
            Ok(JobOutput {
                clustering,
                telemetry,
                batch_width: 1,
                queue_wait_us: 0,
                service_us: 0,
            })
        }
        Err(e) => Err(ServeError::Algorithm(e)),
    }
}

fn run_coalesced(
    inner: &ServerInner,
    device: &mut Option<Device>,
    live: &[Queued],
    data: &DataMatrix,
) -> Vec<JobResult> {
    // Largest-k first: the order under which the shared greedy selection
    // (|M| = B·k_max) and warm-started medoid subsets are valid.
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.sort_by(|&a, &b| live[b].spec.params.k.cmp(&live[a].spec.params.k));
    let config = Config::new(live[order[0]].spec.params.clone())
        .with_algo(live[0].spec.algo)
        .with_backend(live[0].spec.backend)
        .with_threads(job_executor(&inner.cfg).threads());
    let settings: Vec<Setting> = order
        .iter()
        .map(|&i| Setting::new(live[i].spec.params.k, live[i].spec.params.l))
        .collect();
    let cancels: Vec<CancelToken> = order
        .iter()
        .map(|&i| live[i].shared.cancel.clone())
        .collect();

    let tel = inner.cfg.telemetry.then(Telemetry::new);
    let null = NullRecorder;
    let rec: &dyn Recorder = tel.as_ref().map_or(&null as &dyn Recorder, |t| t);

    let mut factory = proclus_gpu::factory_for(gpu_device(device), data, &config);
    let outcomes = proclus::run_grid(
        &mut *factory,
        &config.params,
        &settings,
        inner.cfg.reuse,
        rec,
        &cancels,
    );

    let report = tel.map(Telemetry::finish);
    let mut results: Vec<Option<JobResult>> = (0..live.len()).map(|_| None).collect();
    for (j, outcome) in outcomes.into_iter().enumerate() {
        let i = order[j];
        results[i] = Some(match outcome {
            Ok(clustering) => {
                let telemetry = report.as_ref().map(|r| {
                    let mut t = per_job_report(r, j);
                    decorate_meta(&mut t, &live[i], live.len());
                    t
                });
                Ok(JobOutput {
                    clustering,
                    telemetry,
                    batch_width: live.len(),
                    queue_wait_us: 0,
                    service_us: 0,
                })
            }
            Err(e) => Err(ServeError::Algorithm(e)),
        });
    }
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(ServeError::Internal {
                    reason: "grid run dropped a setting outcome".to_string(),
                })
            })
        })
        .collect()
}

/// Stamps per-job identity into a (split) telemetry report.
fn decorate_meta(t: &mut TelemetryReport, q: &Queued, width: usize) {
    t.meta.insert("component".into(), "proclus-serve".into());
    t.meta.insert("job".into(), q.shared.id.to_string());
    t.meta.insert("dataset".into(), q.spec.dataset.key());
    t.meta.insert("algo".into(), q.spec.algo.name().into());
    t.meta
        .insert("backend".into(), q.spec.backend.name().into());
    t.meta.insert("k".into(), q.spec.params.k.to_string());
    t.meta.insert("l".into(), q.spec.params.l.to_string());
    t.meta.insert("seed".into(), q.spec.params.seed.to_string());
    t.meta.insert("batch_width".into(), width.to_string());
}

/// Splits one job's view out of a batch report: the `j`-th root `run` span
/// (the grid drivers open one per setting, in setting order) plus — for the
/// first setting only — the batch's shared root spans (e.g. the shared
/// greedy `initialization`), so batch overhead is attributed exactly once.
/// Totals are recomputed from the included subtrees.
fn per_job_report(batch: &TelemetryReport, j: usize) -> TelemetryReport {
    let mut spans: Vec<SpanNode> = Vec::new();
    if j == 0 {
        spans.extend(batch.spans.iter().filter(|s| s.name != "run").cloned());
    }
    if let Some(run) = batch.spans.iter().filter(|s| s.name == "run").nth(j) {
        spans.push(run.clone());
    }
    let mut totals = std::collections::BTreeMap::new();
    fn accumulate(n: &SpanNode, totals: &mut std::collections::BTreeMap<String, u64>) {
        for (k, v) in &n.counters {
            *totals.entry(k.clone()).or_insert(0) += v;
        }
        for c in &n.children {
            accumulate(c, totals);
        }
    }
    for s in &spans {
        accumulate(s, &mut totals);
    }
    TelemetryReport {
        meta: batch.meta.clone(),
        totals,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetRef;
    use proclus::{Backend, Params};

    fn data() -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let c = (i % 2) as f32 * 30.0;
                vec![c + (i % 5) as f32 * 0.1, (i % 11) as f32, c]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    fn req(k: usize) -> JobRequest {
        JobRequest::new(
            DatasetRef::inline("t", data()),
            Params::new(k, 2).with_a(10).with_b(3).with_seed(9),
        )
    }

    #[test]
    fn compatibility_requires_fast_same_dataset_same_tail_params() {
        let a = req(2);
        let b = req(3);
        assert!(compatible(&a, &b));
        assert!(!compatible(&a, &b.clone().with_algo(Algo::Baseline)));
        assert!(!compatible(&a, &b.clone().with_backend(Backend::Gpu)));
        let mut c = req(3);
        c.params = c.params.with_seed(1);
        assert!(!compatible(&a, &c));
        let mut d = req(3);
        d.dataset = DatasetRef::inline("other", data());
        assert!(!compatible(&a, &d));
    }

    #[test]
    fn take_batch_respects_max_batch_and_compatibility() {
        let mk = |r: JobRequest| Queued {
            shared: Arc::new(JobShared::new(JobId(0), CancelToken::new())),
            spec: r,
            enqueued: Instant::now(),
        };
        let mut q = VecDeque::from(vec![
            mk(req(2)),
            mk(req(3).with_algo(Algo::Baseline)), // incompatible, stays
            mk(req(4)),
            mk(req(5)),
        ]);
        let cfg = ServeConfig::default().with_max_batch(3);
        let batch = take_batch(&mut q, &cfg);
        assert_eq!(batch.len(), 3);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].spec.algo, Algo::Baseline);
    }

    #[test]
    fn per_job_report_splits_runs_and_attributes_overhead_once() {
        use std::collections::BTreeMap;
        let span = |name: &str, count: u64| SpanNode {
            name: name.into(),
            start_us: 0.0,
            dur_us: 1.0,
            counters: BTreeMap::from([("distances_computed".to_string(), count)]),
            attrs: BTreeMap::new(),
            children: Vec::new(),
        };
        let batch = TelemetryReport {
            meta: BTreeMap::new(),
            totals: BTreeMap::new(),
            spans: vec![
                span("initialization", 100),
                span("run", 10),
                span("run", 20),
            ],
        };
        let first = per_job_report(&batch, 0);
        let second = per_job_report(&batch, 1);
        assert_eq!(first.total("distances_computed"), 110);
        assert_eq!(second.total("distances_computed"), 20);
        assert_eq!(
            first.total("distances_computed") + second.total("distances_computed"),
            130
        );
    }
}
