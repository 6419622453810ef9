//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Bad-medoid rule** — the EDBT'22 wording vs. the original SIGMOD'99
//!    rule (which always also discards the smallest cluster): compares
//!    iterations to convergence, final cost and runtime.
//! 2. **Distance caching vs. H-increment** — PROCLUS vs. FAST isolates the
//!    combined effect; FAST vs. FAST* isolates the space/time trade-off of
//!    keeping all rows vs. only the current `k` (how often replaced medoids
//!    recompute).
//! 3. **Deterministic vs. parallel block execution** of the simulated
//!    device — verifies the clustering is unaffected and reports the
//!    functional-execution wall-clock difference (the modeled device time
//!    is identical by construction).
//! 4. **CUDA streams for the per-medoid distance rows** — the paper's §5.4
//!    future-work remark: independent kernels overlapped on streams engage
//!    more cores when each launch underutilizes the device (small `n`).

use gpu_sim::{Device, DeviceConfig};
use proclus::{Algo, BadMedoidRule};
use proclus_bench::runners::{fast_proclus, fast_star_proclus, gpu, proclus};
use proclus_bench::{time_cpu_ms, workloads, ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let n = if opts.paper_scale { 64_000 } else { 16_000 };
    let cfg = workloads::default_synthetic(n, opts.seed);
    let datasets: Vec<_> = (0..opts.reps)
        .map(|r| workloads::synthetic_data(&cfg, r))
        .collect();

    // --- 1. bad-medoid rule -------------------------------------------------
    let mut table = ExpTable::new(
        "ablation_bad_medoid_rule",
        "metric",
        &["PaperEdbt22", "Original99"],
    );
    for (row, f) in [
        ("runtime_ms", 0usize),
        ("iterations", 1),
        ("final_cost_x1000", 2),
    ] {
        table.add_row(row);
        for (col, rule) in [
            ("PaperEdbt22", BadMedoidRule::PaperEdbt22),
            ("Original99", BadMedoidRule::Original99),
        ] {
            let params = |rep: usize| {
                workloads::default_params()
                    .with_seed(opts.seed + rep as u64)
                    .with_bad_medoid_rule(rule)
            };
            let v = match f {
                0 => time_cpu_ms(opts.reps, |r| {
                    fast_proclus(&datasets[r], &params(r)).unwrap();
                }),
                1 => {
                    let total: usize = (0..opts.reps)
                        .map(|r| fast_proclus(&datasets[r], &params(r)).unwrap().iterations)
                        .sum();
                    total as f64 / opts.reps as f64
                }
                _ => {
                    let total: f64 = (0..opts.reps)
                        .map(|r| fast_proclus(&datasets[r], &params(r)).unwrap().cost)
                        .sum();
                    total / opts.reps as f64 * 1000.0
                }
            };
            table.set(col, v);
        }
    }
    table.print("per metric");
    table.write_csv(&opts.out_dir).expect("write csv");
    println!();

    // --- 2. caching strategies ---------------------------------------------
    let mut table = ExpTable::new("ablation_caching", "variant", &["runtime_ms", "vs_PROCLUS"]);
    let params = |rep: usize| workloads::default_params().with_seed(opts.seed + rep as u64);
    let base = time_cpu_ms(opts.reps, |r| {
        proclus(&datasets[r], &params(r)).unwrap();
    });
    for (name, t) in [
        ("PROCLUS (no cache)", base),
        (
            "FAST (Dist cache + H increment)",
            time_cpu_ms(opts.reps, |r| {
                fast_proclus(&datasets[r], &params(r)).unwrap();
            }),
        ),
        (
            "FAST* (k rows only)",
            time_cpu_ms(opts.reps, |r| {
                fast_star_proclus(&datasets[r], &params(r)).unwrap();
            }),
        ),
    ] {
        table.add_row(name);
        table.set("runtime_ms", t);
        table.set("vs_PROCLUS", base / t);
    }
    table.print("ms");
    table.write_csv(&opts.out_dir).expect("write csv");
    println!();

    // --- 3. deterministic vs. parallel block execution ----------------------
    let data = &datasets[0];
    let params = workloads::default_params().with_seed(opts.seed);
    let run = |det: bool| {
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(det);
        let t0 = std::time::Instant::now();
        let c = gpu(&mut dev, data, &params, Algo::Fast).unwrap();
        (c, t0.elapsed().as_secs_f64() * 1e3, dev.elapsed_ms())
    };
    let (c_det, wall_det, sim_det) = run(true);
    let (c_par, wall_par, sim_par) = run(false);
    println!("## ablation_block_execution (n = {n})");
    println!(
        "  deterministic blocks: wall {wall_det:.1} ms, simulated {sim_det:.3} ms\n  \
         parallel blocks:      wall {wall_par:.1} ms, simulated {sim_par:.3} ms"
    );
    println!(
        "  identical clustering: {}",
        c_det.medoids == c_par.medoids && c_det.labels == c_par.labels
    );

    // --- 4. streams for per-medoid distance rows -----------------------------
    use proclus_gpu::kernels::dist::{dist_row_kernel, dist_row_kernel_on};
    println!("\n## ablation_streams (k = 10 distance rows, modeled device time)");
    for n_small in [2_000usize, 16_000, 128_000] {
        let cfg_small = workloads::default_synthetic(n_small, opts.seed);
        let small = workloads::synthetic_data(&cfg_small, 0);
        let medoids: Vec<usize> = (0..10).map(|i| i * (n_small / 10)).collect();

        let mut dev_seq = Device::new(DeviceConfig::gtx_1660_ti());
        let data_d = dev_seq.htod("data", small.flat()).unwrap();
        let rows: Vec<_> = (0..10)
            .map(|i| {
                dev_seq
                    .alloc_zeroed::<f32>(&format!("r{i}"), n_small)
                    .unwrap()
            })
            .collect();
        let t0 = dev_seq.elapsed_us();
        for (i, &m) in medoids.iter().enumerate() {
            dist_row_kernel(&mut dev_seq, &data_d, small.d(), n_small, m, &rows[i]);
        }
        let sequential = dev_seq.elapsed_us() - t0;

        let mut dev_str = Device::new(DeviceConfig::gtx_1660_ti());
        let data_d = dev_str.htod("data", small.flat()).unwrap();
        let rows: Vec<_> = (0..10)
            .map(|i| {
                dev_str
                    .alloc_zeroed::<f32>(&format!("r{i}"), n_small)
                    .unwrap()
            })
            .collect();
        let t0 = dev_str.elapsed_us();
        for (i, &m) in medoids.iter().enumerate() {
            let s = dev_str.create_stream();
            dist_row_kernel_on(&mut dev_str, s, &data_d, small.d(), n_small, m, &rows[i]);
        }
        dev_str.sync_streams();
        let streamed = dev_str.elapsed_us() - t0;
        println!(
            "  n = {n_small:>7}: sequential {sequential:>9.1} us, streamed {streamed:>9.1} us \
             ({:.2}x)",
            sequential / streamed
        );
    }
}
