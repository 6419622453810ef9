//! The backend-generic medoid-search driver.
//!
//! All PROCLUS variants share the control flow of Alg. 1 and differ only in
//! *where the per-phase numerics run* — on the host (every CPU variant,
//! which additionally differ in how `X` is produced: recomputed from
//! scratch for the baseline, served from the `Dist`/`H` caches for FAST
//! §3, or from the slot-local caches for FAST* §3.2), on one simulated
//! device, or partitioned across several. The decision logic — dimension
//! picking, bad-medoid selection, replacement draws, cost comparison,
//! termination — lives here once, on top of the [`Backend`] phase
//! primitives, so for equal seeds every backend visits the same medoid
//! sequence. That is what guarantees the seed-for-seed equivalence the
//! paper asserts ("all our results are fully correct with respect to the
//! PROCLUS definition", §4.1).
//!
//! The driver is also where the phase telemetry is recorded: every phase of
//! Alg. 1 runs inside a span, and the algorithm counters (distances,
//! cache hits, `ΔL` sizes, reassignments, replacements) are attributed to
//! the innermost open span. Counters are computed from closed-form sizes at
//! the orchestration level — never inside the parallel hot loops — so
//! instrumentation cannot perturb the seeded search path. Backends with a
//! simulated clock ([`Backend::clock_us`]) get every numeric phase span
//! annotated with the simulated microseconds it consumed.
//!
//! Above the phase loop sits the one grid runner, [`run_grid`]: the
//! per-setting loop of §3.1 (shared sample, persistent `Dist`/`H`, one
//! greedy pass, warm start), written once over a [`BackendFactory`] that
//! opens and frees backends. A single run is a grid of one setting, and
//! [`dispatch`] maps a [`Config`] onto the grid runner for every backend.

use proclus_telemetry::{attrs, counters, span, Recorder};

use crate::backend::{Backend, CpuBackend};
use crate::baseline::BaselineEngine;
use crate::cancel::CancelToken;
use crate::config::{Algo, Config};
use crate::dataset::DataMatrix;
use crate::error::{ProclusError, Result};
use crate::fast::FastEngine;
use crate::fast_star::FastStarEngine;
use crate::multi_param::{cancel_for, derive_params, warm_start_mcur, ReuseLevel, Setting};
use crate::par::Executor;
use crate::params::Params;
use crate::phases::bad_medoids::{compute_bad_medoids, replace_bad_medoids};
use crate::phases::initialization::sample_data_prime;
use crate::result::Clustering;
use crate::rng::ProclusRng;

/// Strategy object producing `X` and `|L|` for the current medoids — how
/// the CPU backend varies per algorithm.
///
/// `m_data` holds the data indices of all potential medoids `M`; `mcur`
/// holds the current medoids as indices into `m_data` (the paper's `MIdx`).
pub(crate) trait XEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>);
}

/// Opens a phase span, runs `f` against the backend, and annotates the
/// span with the simulated device time the phase consumed (backends
/// without a clock get no annotation).
fn phase<T, B: Backend + ?Sized>(
    backend: &mut B,
    rec: &dyn Recorder,
    name: &'static str,
    f: impl FnOnce(&mut B) -> Result<T>,
) -> Result<T> {
    let g = span(rec, name);
    let t0 = backend.clock_us();
    let out = f(backend)?;
    if let (Some(a), Some(b)) = (t0, backend.clock_us()) {
        rec.annotate(g.id(), attrs::SIM_US, b - a);
    }
    Ok(out)
}

/// Runs the greedy farthest-point pass inside an `initialization` span,
/// recording the closed-form distance count (|M|−1 picks, each evaluating
/// |S| candidate distances). Grid runners with a shared sample call this
/// directly; single runs go through [`initialization_phase`].
pub fn greedy_phase<B: Backend + ?Sized>(
    backend: &mut B,
    sample: &[usize],
    count: usize,
    rng: &mut ProclusRng,
    rec: &dyn Recorder,
) -> Result<Vec<usize>> {
    let g = span(rec, "initialization");
    let t0 = backend.clock_us();
    rec.add(
        counters::DISTANCES_COMPUTED,
        (count.saturating_sub(1) * sample.len()) as u64,
    );
    let m = backend.greedy(sample, count, rng, rec)?;
    if let (Some(a), Some(b)) = (t0, backend.clock_us()) {
        rec.annotate(g.id(), attrs::SIM_US, b - a);
    }
    Ok(m)
}

/// Runs the initialization phase: sample `Data'` and greedily select `M`.
/// Returns the data indices of the potential medoids.
pub fn initialization_phase<B: Backend + ?Sized>(
    backend: &mut B,
    params: &Params,
    rng: &mut ProclusRng,
    rec: &dyn Recorder,
) -> Result<Vec<usize>> {
    let n = backend.n();
    let sample = sample_data_prime(rng, n, params.sample_size(n));
    greedy_phase(backend, &sample, params.num_potential_medoids(n), rng, rec)
}

/// Runs the iterative + refinement phases given an already-selected `M`.
///
/// `init_mcur` (indices into `m_data`) overrides the random initial medoid
/// set — used by multi-parameter level 3 to warm-start from the previous
/// setting's best medoids (§3.1). Returns the clustering together with the
/// best medoids as indices into `m_data`, which the warm start needs.
///
/// `cancel` is checked cooperatively at phase boundaries (top of every
/// iteration and before refinement); a tripped token aborts with
/// [`crate::ProclusError::Cancelled`] and no partial result. Backends
/// whose phase primitives are internally long-running poll their own
/// token clone as well (see the [`Backend`] contract).
#[allow(clippy::too_many_arguments)]
pub fn run_core<B: Backend + ?Sized>(
    backend: &mut B,
    params: &Params,
    rng: &mut ProclusRng,
    m_data: &[usize],
    init_mcur: Option<Vec<usize>>,
    rec: &dyn Recorder,
    cancel: &CancelToken,
) -> Result<(Clustering, Vec<usize>)> {
    let k = params.k;
    let n = backend.n();
    let m_len = m_data.len();

    let mut mcur = match init_mcur {
        Some(m) => {
            debug_assert_eq!(m.len(), k);
            m
        }
        None => rng.sample_distinct(m_len, k),
    };

    let mut best_cost = f64::INFINITY;
    let mut best_mcur = mcur.clone();
    let mut best_sizes: Vec<usize> = Vec::new();
    let mut itr = 0usize;
    let mut total = 0usize;
    let mut converged = false;
    // Previous iteration's assignment, for the points_reassigned counter
    // (only materialized when a real recorder is attached).
    let mut prev_labels: Option<Vec<i32>> = None;

    // Iterative phase (Alg. 1 lines 5–14).
    loop {
        cancel.check()?;
        let iter_span = span(rec, "iteration");
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        phase(backend, rec, "compute_l", |b| {
            b.compute_x(m_data, &mcur, rec)
        })?;
        let dims = phase(backend, rec, "find_dimensions", |b| {
            b.find_dims(k, params.l, rec)
        })?;
        let sizes = phase(backend, rec, "assign_points", |b| {
            rec.add(counters::SEGMENTAL_DISTANCES, (n * k) as u64);
            b.assign(&medoids, &dims, rec)
        })?;
        let cost = phase(backend, rec, "evaluate_clusters", |b| {
            b.evaluate(&dims, &sizes, rec)
        })?;
        total += 1;
        rec.add(counters::ITERATIONS, 1);

        // Label churn: a backend readback only happens when telemetry is
        // on (the first iteration assigns all n points).
        if rec.enabled() {
            let labels = backend.labels()?;
            let changed = match &prev_labels {
                None => n as u64,
                Some(prev) => prev.iter().zip(&labels).filter(|(a, b)| a != b).count() as u64,
            };
            rec.add(counters::POINTS_REASSIGNED, changed);
            prev_labels = Some(labels);
        }

        if cost < best_cost {
            best_cost = cost;
            best_mcur = mcur.clone();
            best_sizes = sizes;
            backend.save_best()?;
            itr = 0;
        } else {
            itr += 1;
        }

        if itr >= params.itr_pat {
            converged = true;
            break;
        }
        if total >= params.max_total_iterations {
            break;
        }

        let g = span(rec, "bad_medoids");
        let bad = compute_bad_medoids(&best_sizes, n, params.min_dev, params.bad_medoid_rule);
        rec.add(counters::MEDOIDS_REPLACED, bad.len() as u64);
        mcur = replace_bad_medoids(&best_mcur, &bad, m_len, rng);
        drop(g);
        drop(iter_span);
    }

    // Refinement phase (Alg. 1 lines 15–19): L ← CBest.
    cancel.check()?;
    let refine_span = span(rec, "refinement");
    let medoids: Vec<usize> = best_mcur.iter().map(|&mi| m_data[mi]).collect();

    phase(backend, rec, "compute_l", |b| b.x_from_best(&medoids, rec))?;
    let dims = phase(backend, rec, "find_dimensions", |b| {
        b.find_dims(k, params.l, rec)
    })?;
    let sizes = phase(backend, rec, "assign_points", |b| {
        rec.add(counters::SEGMENTAL_DISTANCES, (n * k) as u64);
        b.assign(&medoids, &dims, rec)
    })?;
    let refined_cost = phase(backend, rec, "evaluate_clusters", |b| {
        b.evaluate(&dims, &sizes, rec)
    })?;
    phase(backend, rec, "remove_outliers", |b| {
        rec.add(counters::SEGMENTAL_DISTANCES, (n * k) as u64);
        b.remove_outliers(&medoids, &dims, rec)
    })?;
    let labels = backend.labels()?;
    drop(refine_span);

    Ok((
        Clustering {
            medoids,
            subspaces: dims,
            labels,
            cost: best_cost,
            refined_cost,
            iterations: total,
            converged,
        },
        best_mcur,
    ))
}

/// Convenience: full run (init + iterate + refine) against a backend the
/// caller already holds, wrapped in one `run` span. The public entry
/// points go through [`run_grid`] instead, which also owns allocation;
/// this is for drivers that build a backend by hand (the sharded speedup
/// bench). Parameters must be validated before the backend is built.
pub fn run_full<B: Backend + ?Sized>(
    backend: &mut B,
    params: &Params,
    rec: &dyn Recorder,
    cancel: &CancelToken,
) -> Result<Clustering> {
    cancel.check()?;
    let run_span = span(rec, "run");
    let t0 = backend.clock_us();
    let mut rng = ProclusRng::new(params.seed);
    let out = initialization_phase(backend, params, &mut rng, rec).and_then(|m_data| {
        run_core(backend, params, &mut rng, &m_data, None, rec, cancel).map(|(c, _)| c)
    });
    if let (Some(a), Some(b)) = (t0, backend.clock_us()) {
        rec.annotate(run_span.id(), attrs::SIM_US, b - a);
    }
    out
}

/// Opens execution backends for [`run_grid`]: the one seam between the
/// backend-generic per-setting loop and where a backend's state lives.
///
/// Implemented for the host ([`CpuFactory`]), one simulated device
/// (`proclus_gpu::GpuFactory`) and a sharded ensemble
/// (`proclus_gpu::ShardedFactory`).
pub trait BackendFactory {
    /// Checks one setting's parameters against the data and this backend's
    /// limits (kernel shapes on the GPU).
    fn validate(&self, params: &Params) -> Result<()>;

    /// The device clock in microseconds, `None` on the CPU. A setting that
    /// opens its own backend gets its `run` span annotated with the delta
    /// across open → run → free.
    fn clock_us(&self) -> Option<f64> {
        None
    }

    /// Opens a backend sized for `sized_for` — its `k`, `|S| = A·k` and
    /// `|M| = B·k` — runs `f` on it once, and frees it. Once opened, the
    /// backend is freed on every path; `Err` means it could not be opened
    /// (`f` never ran) or could not be freed.
    fn with_backend(
        &mut self,
        sized_for: &Params,
        f: &mut dyn FnMut(&mut dyn Backend),
    ) -> Result<()>;
}

/// Host backends: one [`Executor`] plus the `X` engine the [`Algo`]
/// selects (baseline recompute, FAST `Dist`/`H` cache, FAST* slot cache).
pub struct CpuFactory<'a> {
    data: &'a DataMatrix,
    exec: Executor,
    algo: Algo,
}

impl<'a> CpuFactory<'a> {
    /// A factory running `algo` over `data` on `exec`.
    pub fn new(data: &'a DataMatrix, exec: Executor, algo: Algo) -> Self {
        Self { data, exec, algo }
    }
}

impl BackendFactory for CpuFactory<'_> {
    fn validate(&self, params: &Params) -> Result<()> {
        params.validate(self.data)
    }

    fn with_backend(
        &mut self,
        sized_for: &Params,
        f: &mut dyn FnMut(&mut dyn Backend),
    ) -> Result<()> {
        let engine: Box<dyn XEngine> = match self.algo {
            Algo::Baseline => Box::new(BaselineEngine),
            Algo::Fast => Box::new(FastEngine::new(self.data)),
            Algo::FastStar => Box::new(FastStarEngine::new(self.data, sized_for.k)),
        };
        f(&mut CpuBackend::with_engine(self.data, self.exec, engine));
        Ok(())
    }
}

/// The successful clusterings of a (possibly grid) run plus its
/// per-setting errors, indexed by setting.
pub type PartitionedOutcomes = (Vec<Clustering>, Vec<(usize, ProclusError)>);

/// Runs a [`Config`] through `factory`: a single run is a grid of one
/// setting, whose failure is the outer `Err`; a grid reports per-setting
/// failures in the second half of the result. Grids the algorithm cannot
/// share state across are rejected here, once for every backend.
pub fn dispatch(
    factory: &mut dyn BackendFactory,
    config: &Config,
    rec: &dyn Recorder,
    cancel: &CancelToken,
) -> Result<PartitionedOutcomes> {
    let Some(grid) = &config.grid else {
        let single = Setting::new(config.params.k, config.params.l);
        let one = std::slice::from_ref(cancel);
        let outcomes = run_grid(
            factory,
            &config.params,
            &[single],
            ReuseLevel::Independent,
            rec,
            one,
        );
        let (clusterings, errors) = partition_outcomes(outcomes);
        return match errors.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok((clusterings, Vec::new())),
        };
    };
    match config.algo {
        Algo::Baseline if grid.reuse != ReuseLevel::Independent => Err(ProclusError::unsupported(
            "the baseline cannot share computation across settings; \
             use ReuseLevel::Independent or Algo::Fast",
        )),
        Algo::FastStar => Err(ProclusError::unsupported(
            "multi-parameter grids are defined for Algo::Fast (the \
             Dist/H cache is what settings share, §3.1) and \
             Algo::Baseline (independent runs); FAST* keeps no \
             cross-setting state",
        )),
        _ => {
            let cancels = vec![cancel.clone(); grid.settings.len()];
            let outcomes = run_grid(
                factory,
                &config.params,
                &grid.settings,
                grid.reuse,
                rec,
                &cancels,
            );
            Ok(partition_outcomes(outcomes))
        }
    }
}

fn partition_outcomes(outcomes: Vec<Result<Clustering>>) -> PartitionedOutcomes {
    let mut clusterings = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for (i, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(c) => clusterings.push(c),
            Err(e) => errors.push((i, e)),
        }
    }
    (clusterings, errors)
}

/// Runs every setting of a grid (§3.1) and returns one outcome per
/// setting, in input order.
///
/// * At [`ReuseLevel::Independent`] each setting opens its own backend and
///   runs from scratch. At levels ≥ 1 one backend sized for the largest
///   valid `k` stays open across the grid: one sample `S`, persistent
///   `Dist`/`H` caches, one greedy pass at level ≥ 2 (a free-standing
///   `initialization` span before the first `run`), warm starts at
///   level 3.
/// * An invalid or cancelled setting yields `Err` in its slot, consumes no
///   RNG draws, and the other settings still run — so the valid settings
///   produce the same clusterings as a grid submitted without the invalid
///   ones. Shared sizes derive from the valid settings only.
/// * Every setting, failed ones included, is its own root `run` span, so
///   span `i` always belongs to setting `i`. Settings that open their own
///   backend carry the factory's device-clock delta across open → run →
///   free; settings on a shared backend carry the backend clock's delta
///   across their run.
/// * `cancels` is empty or holds one token per setting. Token `i` is
///   checked before setting `i` and handed to the backend for its run.
pub fn run_grid(
    factory: &mut dyn BackendFactory,
    base: &Params,
    settings: &[Setting],
    level: ReuseLevel,
    rec: &dyn Recorder,
    cancels: &[CancelToken],
) -> Vec<Result<Clustering>> {
    debug_assert!(cancels.is_empty() || cancels.len() == settings.len());
    let validity: Vec<Result<()>> = settings
        .iter()
        .map(|&s| factory.validate(&derive_params(base, s)))
        .collect();
    let mut grid = GridRun {
        base,
        level,
        rec,
        settings,
        validity: &validity,
        cancels,
        rng: ProclusRng::new(base.seed),
        sample: None,
        shared_m: None,
        prev_best: None,
        failed: None,
    };
    let k_max = settings
        .iter()
        .zip(&validity)
        .filter(|(_, v)| v.is_ok())
        .map(|(s, _)| s.k)
        .max();
    let Some(k_max) = k_max.filter(|_| level >= ReuseLevel::SharedCache) else {
        return grid.each_setting(Lease::PerSetting(factory));
    };
    let mut results = Vec::new();
    let sized_for = derive_params(base, Setting::new(k_max, base.l));
    let opened = factory.with_backend(&sized_for, &mut |b: &mut dyn Backend| {
        grid.share(b, k_max);
        results = grid.each_setting(Lease::Shared(b));
    });
    match opened {
        Ok(()) => results,
        // Nothing opened: every runnable setting reports why.
        Err(e) if results.is_empty() => {
            grid.failed = Some(e);
            grid.each_setting(Lease::PerSetting(factory))
        }
        // The grid ran but the shared backend could not be freed.
        Err(e) => results.into_iter().map(|r| r.and(Err(e.clone()))).collect(),
    }
}

/// Where [`GridRun::each_setting`] gets each setting's backend.
enum Lease<'f, 'b> {
    /// Open and free one backend per setting.
    PerSetting(&'f mut dyn BackendFactory),
    /// One backend held open across the grid.
    Shared(&'b mut dyn Backend),
}

/// The state the settings of one grid share: the RNG stream and, at reuse
/// levels ≥ 1, the sample, the shared `M` and the previous best medoids.
struct GridRun<'g> {
    base: &'g Params,
    level: ReuseLevel,
    rec: &'g dyn Recorder,
    settings: &'g [Setting],
    validity: &'g [Result<()>],
    cancels: &'g [CancelToken],
    rng: ProclusRng,
    sample: Option<Vec<usize>>,
    shared_m: Option<Vec<usize>>,
    prev_best: Option<Vec<usize>>,
    /// Fails every runnable setting: the shared backend could not be
    /// opened, or the shared greedy pass failed.
    failed: Option<ProclusError>,
}

impl GridRun<'_> {
    /// The one loop over grid settings.
    fn each_setting(&mut self, mut lease: Lease<'_, '_>) -> Vec<Result<Clustering>> {
        let mut results = Vec::with_capacity(self.settings.len());
        for (i, &s) in self.settings.iter().enumerate() {
            let run_span = span(self.rec, "run");
            let cancel = cancel_for(self.cancels, i);
            let ready = self.validity[i]
                .clone()
                .and_then(|()| self.failed.clone().map_or(Ok(()), Err))
                .and_then(|()| cancel.check());
            if let Err(e) = ready {
                results.push(Err(e));
                continue;
            }
            let params = derive_params(self.base, s);
            let (t0, outcome, t1) = match &mut lease {
                Lease::PerSetting(factory) => {
                    let t0 = factory.clock_us();
                    let mut out = None;
                    let opened = factory.with_backend(&params, &mut |b: &mut dyn Backend| {
                        out = Some(self.run_setting(b, &params, &cancel));
                    });
                    let outcome = opened.and_then(|()| {
                        out.unwrap_or_else(|| {
                            Err(ProclusError::unsupported(
                                "backend factory never ran the setting",
                            ))
                        })
                    });
                    (t0, outcome, factory.clock_us())
                }
                Lease::Shared(b) => {
                    let t0 = b.clock_us();
                    let outcome = self.run_setting(&mut **b, &params, &cancel);
                    (t0, outcome, b.clock_us())
                }
            };
            if let (Some(a), Some(b)) = (t0, t1) {
                self.rec.annotate(run_span.id(), attrs::SIM_US, b - a);
            }
            results.push(outcome);
        }
        results
    }

    /// Draws the shared sample for the largest `k` and, at level ≥ 2, runs
    /// the one shared greedy pass (`|M| = B·k_max`).
    fn share(&mut self, b: &mut dyn Backend, k_max: usize) {
        let n = b.n();
        let sample = sample_data_prime(&mut self.rng, n, (self.base.a * k_max).min(n));
        if self.level >= ReuseLevel::SharedGreedy {
            let count = (self.base.b * k_max).min(sample.len());
            match greedy_phase(b, &sample, count, &mut self.rng, self.rec) {
                Ok(m) => self.shared_m = Some(m),
                Err(e) => self.failed = Some(e),
            }
        }
        self.sample = Some(sample);
    }

    /// One setting on `b`: select `M` (or reuse the shared one), seed the
    /// medoids (warm at level 3), iterate and refine.
    fn run_setting(
        &mut self,
        b: &mut dyn Backend,
        params: &Params,
        cancel: &CancelToken,
    ) -> Result<Clustering> {
        b.set_cancel(cancel);
        let (rng, rec) = (&mut self.rng, self.rec);
        let m_data = match (&self.shared_m, &self.sample) {
            (Some(m), _) => m.clone(),
            (None, Some(sample)) => {
                let count = (self.base.b * params.k).min(sample.len());
                greedy_phase(b, sample, count, rng, rec)?
            }
            (None, None) => initialization_phase(b, params, rng, rec)?,
        };
        let init_mcur = match &self.prev_best {
            Some(prev) if self.level >= ReuseLevel::WarmStart => {
                Some(warm_start_mcur(prev, params.k, m_data.len(), rng))
            }
            _ => None,
        };
        let (c, best_mcur) = run_core(b, params, rng, &m_data, init_mcur, rec, cancel)?;
        self.prev_best = Some(best_mcur);
        Ok(c)
    }
}
