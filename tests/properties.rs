//! Property-based tests on the paper's theorems and structural invariants.
//!
//! * Theorem 3.1 — the band `δ' < dist ≤ δ` (in either direction) is the
//!   symmetric difference of consecutive spheres.
//! * Theorem 3.2 — incrementally maintained `H` equals recomputed `H`.
//! * FindDimensions invariants — subspace totals, per-medoid minimum, tie
//!   determinism.
//! * Cost function invariants — non-negativity, label-permutation
//!   equivariance, scaling.
//! * Full-algorithm invariant — any valid parameters produce a structurally
//!   valid clustering on arbitrary data.

use proclus::distance::{euclidean, manhattan_segmental};
use proclus::par::Executor;
use proclus::phases::evaluate::evaluate_clusters;
use proclus::phases::find_dimensions::{pick_dimensions, spread_stats};
use proclus::{Algo, Clustering, DataMatrix, Params};
use proclus_verify::prop::Gen;

fn cpu(data: &DataMatrix, params: &Params, algo: Algo) -> proclus::Result<Clustering> {
    let config = proclus::Config::new(params.clone()).with_algo(algo);
    proclus::run(data, &config).map(|o| o.clusterings.into_iter().next().expect("one clustering"))
}

fn proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    cpu(data, params, Algo::Baseline)
}

fn fast_proclus(data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    cpu(data, params, Algo::Fast)
}

fn small_matrix(g: &mut Gen) -> DataMatrix {
    // n in 20..60, d in 2..6, values in a bounded range.
    let n = g.range(20usize..60);
    let d = g.range(2usize..6);
    let v = g.vec(n * d, |g| g.range(-100.0f32..100.0));
    DataMatrix::from_flat(v, n, d).unwrap()
}

/// The pseudometric checks behind `segmental_distance_pseudometric`.
fn assert_segmental_pseudometric(a: &[f32], b: &[f32], c: &[f32]) {
    let dims = [0usize, 2, 4];
    let dab = manhattan_segmental(a, b, &dims);
    let dba = manhattan_segmental(b, a, &dims);
    let dac = manhattan_segmental(a, c, &dims);
    let dcb = manhattan_segmental(c, b, &dims);
    assert!((dab - dba).abs() < 1e-12);
    assert!(dab >= 0.0);
    // f32 subtraction rounds each per-dimension term independently, so
    // the triangle inequality holds only up to f32 relative error.
    let tol = 1e-5 * (1.0 + dab.abs() + dac.abs() + dcb.abs());
    assert!(dab <= dac + dcb + tol, "triangle: {dab} > {dac} + {dcb}");
    assert_eq!(manhattan_segmental(a, a, &dims), 0.0);
}

proclus_verify::props! {
    cases = 64;

    /// Theorem 3.1: the band between two radii is exactly the symmetric
    /// difference of the two spheres.
    fn theorem_3_1_band_is_symmetric_difference(g) {
        let data = small_matrix(g);
        let medoid_frac = g.range(0.0f64..1.0);
        let r1 = g.range(0.0f32..300.0);
        let r2 = g.range(0.0f32..300.0);
        let m = ((data.n() - 1) as f64 * medoid_frac) as usize;
        let sphere = |r: f32| -> std::collections::HashSet<usize> {
            (0..data.n())
                .filter(|&p| euclidean(data.row(p), data.row(m)) <= r)
                .collect()
        };
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let band: std::collections::HashSet<usize> = (0..data.n())
            .filter(|&p| {
                let dist = euclidean(data.row(p), data.row(m));
                dist > lo && dist <= hi
            })
            .collect();
        let s1 = sphere(r1);
        let s2 = sphere(r2);
        let sym: std::collections::HashSet<usize> =
            s1.symmetric_difference(&s2).copied().collect();
        assert_eq!(band, sym);
    }

    /// Theorem 3.2 as used by the engines: growing and shrinking a sphere
    /// through arbitrary radii keeps the incremental H equal to the direct
    /// recomputation (up to float error).
    fn theorem_3_2_incremental_h_matches_recompute(g) {
        let data = small_matrix(g);
        let len = g.range(1usize..8);
        let radii = g.vec(len, |g| g.range(0.0f32..200.0));
        let m = 0usize;
        let m_row: Vec<f32> = data.row(m).to_vec();
        let d = data.d();
        // Incremental: walk the radius sequence.
        let mut h = vec![0.0f64; d];
        let mut prev = -1.0f32;
        for &r in &radii {
            let (lo, hi, lambda) = if r >= prev { (prev, r, 1.0) } else { (r, prev, -1.0) };
            for p in 0..data.n() {
                let dist = euclidean(data.row(p), &m_row);
                if dist > lo && dist <= hi {
                    for j in 0..d {
                        h[j] += lambda * ((data.get(p, j) - m_row[j]) as f64).abs();
                    }
                }
            }
            prev = r;
        }
        // Direct at the final radius.
        let r_final = *radii.last().unwrap();
        for j in 0..d {
            let direct: f64 = (0..data.n())
                .filter(|&p| euclidean(data.row(p), &m_row) <= r_final)
                .map(|p| ((data.get(p, j) - m_row[j]) as f64).abs())
                .sum();
            assert!((h[j] - direct).abs() < 1e-6 * (1.0 + direct.abs()),
                "dim {}: incremental {} vs direct {}", j, h[j], direct);
        }
    }

    /// FindDimensions: totals k·l, at least two dims per medoid, all sorted
    /// and in range, deterministic.
    fn pick_dimensions_invariants(g) {
        let k = g.range(1usize..6);
        let d = g.range(2usize..12);
        let l_off = g.range(0usize..10);
        let seed_vals = g.vec(72, |g| g.range(-10.0f64..10.0));
        let l = 2 + l_off.min(d.saturating_sub(2));
        let x: Vec<f64> = (0..k * d).map(|e| seed_vals[e % seed_vals.len()]).collect();
        let stats = spread_stats(&x, k, d);
        let dims_a = pick_dimensions(&stats.z, k, d, l);
        let dims_b = pick_dimensions(&stats.z, k, d, l);
        assert_eq!(&dims_a, &dims_b, "selection must be deterministic");
        let total: usize = dims_a.iter().map(|s| s.len()).sum();
        assert_eq!(total, k * l);
        for s in &dims_a {
            assert!(s.len() >= 2);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&j| j < d));
        }
    }

    /// Cost: non-negative, and invariant under a consistent relabeling of
    /// clusters (with subspaces permuted the same way).
    fn cost_is_nonnegative_and_permutation_equivariant(g) {
        let data = small_matrix(g);
        let labels_seed = g.vec(60, |g| g.range(0usize..3));
        let k = 3;
        let d = data.d();
        let labels: Vec<i32> = (0..data.n()).map(|p| (labels_seed[p % labels_seed.len()] % k) as i32).collect();
        let subspaces: Vec<Vec<usize>> = (0..k).map(|i| {
            let mut s: Vec<usize> = (0..d).filter(|j| (i + j) % 2 == 0).collect();
            if s.is_empty() { s.push(0); }
            s
        }).collect();
        let cost = evaluate_clusters(&data, &labels, &subspaces, &Executor::Sequential);
        assert!(cost >= 0.0 && cost.is_finite());

        // Swap cluster ids 0 <-> 1 together with their subspaces.
        let swapped: Vec<i32> = labels.iter().map(|&c| match c { 0 => 1, 1 => 0, c => c }).collect();
        let mut sub2 = subspaces.clone();
        sub2.swap(0, 1);
        let cost2 = evaluate_clusters(&data, &swapped, &sub2, &Executor::Sequential);
        assert!((cost - cost2).abs() < 1e-9, "{} vs {}", cost, cost2);
    }

    /// Manhattan segmental distance is a pseudometric on the subspace.
    fn segmental_distance_pseudometric(g) {
        let [a, b, c] = std::array::from_fn(|_| g.vec(6, |g| g.range(-50.0f32..50.0)));
        assert_segmental_pseudometric(&a, &b, &c);
    }

    /// Min–max normalization maps every dimension into [0, 1].
    fn minmax_bounds(g) {
        let data = small_matrix(g);
        let mut m = data;
        m.minmax_normalize();
        assert!(m.flat().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// A saved failing case of the triangle check: the f32 rounding of each
/// per-dimension term must stay within the tolerance.
#[test]
fn segmental_distance_triangle_with_f32_rounding() {
    assert_segmental_pseudometric(
        &[28.394049, 0.0, 44.282196, 0.0, 38.741665, 0.0],
        &[0.0, 0.0, 0.0, 0.0, -49.956833, 0.0],
        &[0.0; 6],
    );
}

proclus_verify::props! {
    // Fewer cases: each runs the whole algorithm.
    cases = 12;

    /// End-to-end: arbitrary data + valid parameters always yield a
    /// structurally valid clustering, and FAST matches the baseline.
    fn full_run_is_always_structurally_valid(g) {
        let data = small_matrix(g);
        let k = g.range(2usize..4);
        let seed = g.range(0u64..1000);
        let l = 2;
        let params = Params::new(k, l).with_a(8).with_b(3).with_seed(seed);
        if params.validate(&data).is_err() {
            return; // undersized corner: covered by params tests
        }
        let base = proclus(&data, &params).unwrap();
        base.validate_structure(data.n(), data.d(), l).unwrap_or_else(|e| {
            panic!("invalid structure: {e}")
        });
        let fast = fast_proclus(&data, &params).unwrap();
        assert_eq!(&base.medoids, &fast.medoids);
        assert_eq!(&base.labels, &fast.labels);
    }
}

// ---------------------------------------------------------------------------
// §3.1 multi-parameter reuse vs independent runs.
//
// The naive claim "every reuse level reproduces the independent per-(k, l)
// runs bit-for-bit" is deliberately NOT what the design promises: the
// shared levels draw the sample (and, at level >= 2, the greedy candidate
// set) once, so later settings consume a different RNG stream than a fresh
// run would. What IS guaranteed, and what these properties pin down:
//
// 1. a width-1 grid is a solo run at every reuse level;
// 2. the first setting of a largest-k-first grid is bit-identical to the
//    solo run of its parameters at every level (nothing before it differs);
// 3. the GPU multi runner agrees with the CPU one seed-for-seed at every
//    level and setting.

use gpu_sim::{Device, DeviceConfig};
use proclus::telemetry::NullRecorder;
use proclus::{run_grid, BackendFactory, Config, CpuFactory, ReuseLevel, Setting};
use proclus_gpu::GpuFactory;

/// Runs a FAST grid through `factory`; any failed setting fails the call.
fn fast_grid(
    factory: &mut dyn BackendFactory,
    base: &Params,
    settings: &[Setting],
    level: ReuseLevel,
) -> proclus::Result<Vec<Clustering>> {
    run_grid(factory, base, settings, level, &NullRecorder, &[])
        .into_iter()
        .collect()
}

/// Arbitrary data plus a largest-k-first grid with matching base params.
fn reuse_case(g: &mut Gen) -> (DataMatrix, Params, Vec<Setting>) {
    let n = g.range(40usize..90);
    let d = g.range(4usize..6);
    let seed = g.range(0u64..1000);
    let v = g.vec(n * d, |g| g.range(-50.0f32..50.0));
    let width = g.range(1usize..4);
    let mut settings = g.vec(width, |g| {
        Setting::new(g.range(2usize..6), g.range(2usize..4))
    });
    let data = DataMatrix::from_flat(v, n, d).unwrap();
    settings.sort_by_key(|s| std::cmp::Reverse(s.k));
    let base = Params::new(settings[0].k, settings[0].l)
        .with_a(10)
        .with_b(3)
        .with_seed(seed);
    (data, base, settings)
}

proclus_verify::props! {
    // Each case runs 4 reuse levels x (grid + solo + GPU grid).
    cases = 10;

    fn reuse_levels_agree_with_independent_runs_where_defined(g) {
        let (data, base, settings) = reuse_case(g);
        let exec = Executor::Sequential;
        let mut p0 = base.clone();
        p0.k = settings[0].k;
        p0.l = settings[0].l;
        if p0.validate(&data).is_err() {
            return; // undersized corner: covered by params tests
        }
        let solo_out = proclus::run(&data, &Config::new(p0)).unwrap();
        let solo = solo_out.clustering();

        for level in [
            ReuseLevel::Independent,
            ReuseLevel::SharedCache,
            ReuseLevel::SharedGreedy,
            ReuseLevel::WarmStart,
        ] {
            // (1) width-1 grid == solo run, bit for bit.
            let single =
                fast_grid(&mut CpuFactory::new(&data, exec, Algo::Fast), &base, &settings[..1], level).unwrap();
            assert_eq!(&single[0], solo);

            // (2) first setting of the full grid == solo run.
            let multi = match fast_grid(&mut CpuFactory::new(&data, exec, Algo::Fast), &base, &settings, level) {
                Ok(m) => m,
                // A later setting may be invalid against this data
                // (e.g. k*a exceeds n); the grid then fails, which is out
                // of scope for this property.
                Err(_) => continue,
            };
            assert_eq!(&multi[0], solo);

            // (3) the GPU runner agrees seed-for-seed, every setting.
            let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
            dev.set_deterministic(true);
            let gpu =
                fast_grid(&mut GpuFactory::new(&mut dev, &data, Algo::Fast), &base, &settings, level).unwrap();
            assert_eq!(multi.len(), gpu.len());
            for (c, g) in multi.iter().zip(&gpu) {
                assert_eq!(&c.medoids, &g.medoids);
                assert_eq!(&c.labels, &g.labels);
            }
        }
    }
}
