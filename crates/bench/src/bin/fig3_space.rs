//! Fig. 3f: peak device memory vs. `n` for the three GPU variants, plus the
//! out-of-memory wall of §5.3 (the paper hits it at 8 M points with 4.2 GB
//! of free device memory).
//!
//! Paper shape to reproduce: all three grow linearly in `n`;
//! GPU-FAST uses roughly twice the memory of GPU-FAST* (it caches a
//! `Dist`/`H` row for every *distinct* medoid ever tried, not just the
//! current `k`), and GPU-FAST* ≈ GPU-PROCLUS. Peak memory is a
//! deterministic model output (pool accounting), so one repetition
//! suffices.

use gpu_sim::{Device, DeviceConfig};
use proclus::Algo;
use proclus_bench::runners::gpu;
use proclus_bench::workloads::{self, names::*};
use proclus_bench::{ExpTable, Options};

fn main() {
    let opts = Options::from_args();
    let gpu_cfg = DeviceConfig::gtx_1660_ti();
    let mut table = ExpTable::new(
        "fig3f_peak_device_memory",
        "n",
        &[GPU_PROCLUS, GPU_FAST, GPU_FAST_STAR, "FAST/FAST* ratio"],
    );

    for n in workloads::n_grid(opts.paper_scale, opts.quick) {
        eprintln!("[fig3f] n = {n} ...");
        table.add_row(n);
        let cfg = workloads::default_synthetic(n, opts.seed);
        let data = workloads::synthetic_data(&cfg, 0);
        let params = workloads::default_params().with_seed(opts.seed);

        let mut peaks = [0usize; 3];
        for (slot, algo) in [Algo::Baseline, Algo::Fast, Algo::FastStar]
            .into_iter()
            .enumerate()
        {
            let mut dev = Device::new(gpu_cfg.clone());
            gpu(&mut dev, &data, &params, algo).unwrap();
            peaks[slot] = dev.mem_peak();
        }
        let mb = |b: usize| b as f64 / 1e6;
        table.set(GPU_PROCLUS, mb(peaks[0]));
        table.set(GPU_FAST, mb(peaks[1]));
        table.set(GPU_FAST_STAR, mb(peaks[2]));
        table.set("FAST/FAST* ratio", peaks[1] as f64 / peaks[2] as f64);
    }

    table.print("MB peak device memory (pool accounting)");
    table.write_csv(&opts.out_dir).expect("write csv");

    // The §5.3 memory wall, demonstrated on a proportionally shrunken
    // device: a card with 1/32 of the paper's free memory hits the same
    // wall at 1/32 of the paper's 8M points (≈ 250k).
    let limited = gpu_cfg.clone().with_memory_limit(4_200_000_000 / 32);
    println!(
        "\n## §5.3 memory wall (device limited to {} MB)",
        limited.global_mem_bytes / 1_000_000
    );
    for n in [128_000usize, 256_000, 512_000] {
        let cfg = workloads::default_synthetic(n, opts.seed);
        let data = workloads::synthetic_data(&cfg, 0);
        let params = workloads::default_params().with_seed(opts.seed);
        let mut dev = Device::new(limited.clone());
        match gpu(&mut dev, &data, &params, Algo::Fast) {
            Ok(_) => println!(
                "  n = {n:>8}: ok (peak {:.1} MB)",
                dev.mem_peak() as f64 / 1e6
            ),
            Err(e) => println!("  n = {n:>8}: OUT OF MEMORY — {e}"),
        }
    }
}
