//! Sky-survey exploration — the paper's SkyServer workload (§5.5) as an
//! *interactive* session: an analyst sweeps a grid of `(k, l)` settings
//! over a SkyServer-shaped catalog cut, comparing how long the exploration
//! takes per setting with and without the multi-parameter reuse of §3.1.
//!
//! ```text
//! cargo run --release --example sky_survey            # sky 1x1 cut
//! cargo run --release --example sky_survey -- 2       # sky 2x2 cut
//! ```

use gpu_fast_proclus::prelude::*;

fn main() {
    let area: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let gen = datagen::realworld::sky_like(area, 31);
    let data = gen.data; // already min–max normalized
    println!(
        "sky {area}x{area} cut: {} objects x {} features",
        data.n(),
        data.d()
    );

    // The paper's 9-setting exploration grid around k = 10, l = 5.
    let grid: Vec<Setting> = proclus::default_grid(10, 5);
    let base = Params::new(10, 5).with_seed(17);

    let run = |label: &str, level: ReuseLevel| {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        let config = Config::new(base.clone())
            .with_backend(Backend::Gpu)
            .with_grid(Grid::new(grid.clone(), level));
        let out = run_on(&mut dev, &data, &config).expect("valid grid");
        assert!(out.setting_errors.is_empty(), "fits on device");
        let results = out.clusterings;
        let per_setting = dev.elapsed_ms() / grid.len() as f64;
        // Pick the best setting by refined cost (what an analyst would do).
        let best = results
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.refined_cost.total_cmp(&b.1.refined_cost))
            .expect("non-empty grid");
        println!(
            "{label:<26}: {per_setting:>9.3} ms/setting (simulated) | best grid point \
             (k={}, l={}) cost {:.5}",
            grid[best.0].k, grid[best.0].l, best.1.refined_cost
        );
        per_setting
    };

    let independent = run("independent runs", ReuseLevel::Independent);
    let shared_cache = run("multi-param 1 (cache)", ReuseLevel::SharedCache);
    let shared_greedy = run("multi-param 2 (+greedy)", ReuseLevel::SharedGreedy);
    let warm = run("multi-param 3 (+warm start)", ReuseLevel::WarmStart);

    println!("\nreuse speedups vs. independent runs:");
    println!("  level 1: {:.2}x", independent / shared_cache);
    println!("  level 2: {:.2}x", independent / shared_greedy);
    println!("  level 3: {:.2}x", independent / warm);
    println!(
        "\ninteractive budget check: {} (paper target: < 100 ms per query)",
        if warm < 100.0 {
            "PASS"
        } else {
            "needs a bigger GPU"
        }
    );
}
