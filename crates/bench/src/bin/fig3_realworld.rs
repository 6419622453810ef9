//! Fig. 3g: running time on the real-world dataset shapes (glass, vowel,
//! pendigits, SkyServer cuts), each explored with the 9-setting `(k, l)`
//! grid of §5.3.
//!
//! Paper shape to reproduce: GPU-FAST-PROCLUS keeps its large speedup on
//! real-world data, growing with dataset size (paper: 5,490× on sky5×5).
//! The datasets here are shape-identical synthesized stand-ins (see
//! DESIGN.md §2); drop genuine CSVs in via `datagen::io` to re-run on the
//! originals.

use gpu_sim::DeviceConfig;
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::{default_grid, Algo, Grid};
use proclus_bench::runners::{cpu_grid, gpu_grid};
use proclus_bench::workloads::names::PROCLUS;
use proclus_bench::{time_cpu_ms, time_gpu_ms, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let grid: Vec<Setting> = default_grid(10, 5);
    let settings = grid.len() as f64;
    let independent = Grid::new(grid.clone(), ReuseLevel::Independent);
    let warm = Grid::new(grid.clone(), ReuseLevel::WarmStart);

    let datasets: &[&str] = if opts.quick {
        &["glass", "vowel"]
    } else if opts.paper_scale {
        &["glass", "vowel", "pendigits", "sky1x1", "sky2x2", "sky5x5"]
    } else {
        &["glass", "vowel", "pendigits", "sky1x1"]
    };

    let mut table = ExpTable::new("fig3g_realworld", "dataset", &[PROCLUS, "GPU-FAST-L3"]);

    for name in datasets {
        eprintln!("[fig3g] {name} ...");
        table.add_row(*name);
        let gen = datagen::realworld::by_name(name, opts.seed).expect("known dataset");
        let data = gen.data;
        // The paper keeps k=10, l=5 defaults; tiny datasets need smaller
        // samples so A·k does not exceed n (handled by the clamp) and a
        // feasible k relative to n.
        let base = |rep: usize| proclus::Params::new(10, 5).with_seed(opts.seed + rep as u64);

        table.set(
            PROCLUS,
            time_cpu_ms(opts.reps, |r| {
                cpu_grid(&data, &base(r), Algo::Baseline, independent.clone()).unwrap();
            }) / settings,
        );
        table.set(
            "GPU-FAST-L3",
            time_gpu_ms(&gpu_cfg, opts.reps, |r, dev| {
                gpu_grid(dev, &data, &base(r), Algo::Fast, warm.clone()).unwrap();
            }) / settings,
        );
    }

    table.add_speedup_column(PROCLUS, "GPU-FAST-L3");
    table.print("ms per setting; CPU wall-clock, GPU simulated");
    table.write_csv(&opts.out_dir).expect("write csv");
}
