//! Parameter exploration on the CPU: how the reuse levels of §3.1 and the
//! result quality interact when sweeping `(k, l)`.
//!
//! PROCLUS needs `k` and `l` up front, which users rarely know. This
//! example sweeps a grid, reports cost per setting, and shows the elbow an
//! analyst would use to pick `k` — while demonstrating that all reuse
//! levels return equally valid clusterings.
//!
//! ```text
//! cargo run --release --example parameter_exploration
//! ```

use gpu_fast_proclus::prelude::*;

/// Runs every setting of `grid` at `level` on the CPU.
fn sweep(data: &DataMatrix, base: &Params, grid: &[Setting], level: ReuseLevel) -> Vec<Clustering> {
    let config = Config::new(base.clone()).with_grid(Grid::new(grid.to_vec(), level));
    let out = run(data, &config).expect("valid grid");
    assert!(out.setting_errors.is_empty(), "{:?}", out.setting_errors);
    out.clusterings
}

fn main() {
    // Data with a known answer: 5 clusters in 4-d subspaces of 12-d space.
    let gen = datagen::synthetic::generate(
        &SyntheticConfig::new(8_000, 12)
            .with_clusters(5)
            .with_subspace_dims(4)
            .with_std_dev(4.0)
            .with_seed(77),
    );
    let mut data = gen.data;
    data.minmax_normalize();

    let base = Params::new(5, 4).with_seed(3);
    let grid: Vec<Setting> = (2..=8).map(|k| Setting::new(k, 4)).collect();

    println!("sweeping k = 2..=8 at l = 4 over {} points\n", data.n());
    println!(
        "{:>3} {:>12} {:>12} {:>10}",
        "k", "cost", "refined", "outliers"
    );

    let t0 = std::time::Instant::now();
    let results = sweep(&data, &base, &grid, ReuseLevel::WarmStart);
    let elapsed = t0.elapsed().as_secs_f64() * 1e3;

    let mut best = (0usize, f64::INFINITY);
    for (s, r) in grid.iter().zip(&results) {
        println!(
            "{:>3} {:>12.5} {:>12.5} {:>10}",
            s.k,
            r.cost,
            r.refined_cost,
            r.num_outliers()
        );
        if r.refined_cost < best.1 {
            best = (s.k, r.refined_cost);
        }
    }
    println!(
        "\nwhole sweep (7 settings, warm-started): {elapsed:.1} ms, \
         {:.1} ms/setting",
        elapsed / grid.len() as f64
    );
    println!("lowest refined cost at k = {} (planted: 5)", best.0);

    // Quality check against the planted labels for the planted k.
    let at_5 = &results[grid.iter().position(|s| s.k == 5).unwrap()];
    let ari = proclus::metrics::adjusted_rand_index(&gen.labels, &at_5.labels);
    println!("ARI at k = 5: {ari:.3}");

    // All levels agree on validity, not necessarily on the exact result
    // (they draw different random numbers).
    for level in [
        ReuseLevel::Independent,
        ReuseLevel::SharedCache,
        ReuseLevel::SharedGreedy,
    ] {
        let r = sweep(&data, &base, &grid, level);
        assert_eq!(r.len(), grid.len());
        for (s, c) in grid.iter().zip(&r) {
            c.validate_structure(data.n(), data.d(), 4)
                .unwrap_or_else(|e| panic!("level {level:?}, k = {}: {e}", s.k));
        }
    }
    println!("all reuse levels produce structurally valid clusterings");
}
