//! A tour of the simulated device: run GPU-FAST-PROCLUS once and inspect
//! what the SIMT simulator recorded — per-kernel time, occupancy, memory
//! throughput, device memory usage, and what happens when the data no
//! longer fits (the paper's 8 M-point wall, §5.3).
//!
//! ```text
//! cargo run --release --example gpu_simulation_tour
//! ```

use gpu_fast_proclus::prelude::*;

/// One GPU-FAST-PROCLUS run on `dev`.
fn gpu_fast(dev: &mut Device, data: &DataMatrix, params: &Params) -> proclus::Result<Clustering> {
    let config = Config::new(params.clone()).with_backend(Backend::Gpu);
    run_on(dev, data, &config).map(|out| out.clusterings[0].clone())
}

fn main() {
    let gen = datagen::synthetic::generate(
        &SyntheticConfig::new(64_000, 15).with_seed(9), // the paper's default workload
    );
    let mut data = gen.data;
    data.minmax_normalize();
    let params = Params::new(10, 5).with_seed(41);

    // Run on both of the paper's cards.
    for cfg in [DeviceConfig::gtx_1660_ti(), DeviceConfig::rtx_3090()] {
        let mut dev = Device::new(cfg);
        let result = gpu_fast(&mut dev, &data, &params).expect("fits");
        let report = dev.report();
        println!("=== {} ===", dev.config().name);
        println!(
            "clustering: {} iterations, cost {:.5}, {} outliers",
            result.iterations,
            result.cost,
            result.num_outliers()
        );
        println!(
            "simulated time {:.3} ms ({} kernel launches, {:.3} ms in transfers)",
            report.elapsed_us / 1e3,
            report.launches,
            report.transfer_us / 1e3
        );
        println!(
            "peak device memory: {:.1} MB of {:.1} GB",
            report.mem_peak as f64 / 1e6,
            dev.config().global_mem_bytes as f64 / 1e9
        );
        println!("{}", report.kernel_table());
    }

    // A traced mini-run: what one iteration's kernel schedule looks like.
    let gen_small = datagen::synthetic::generate(&SyntheticConfig::new(8_000, 15).with_seed(9));
    let mut small = gen_small.data;
    small.minmax_normalize();
    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
    dev.set_tracing(true);
    gpu_fast(&mut dev, &small, &params).expect("fits");
    println!("=== last 14 traced device operations (n = 8,000) ===");
    print!("{}", dev.trace().render_gantt(14, 48));
    println!(
        "(full run: {} events; export with Trace::to_chrome_trace for Perfetto)\n",
        dev.trace().events().len()
    );

    // The memory wall: shrink the device until the same workload dies with
    // a diagnosable out-of-memory error instead of a crash.
    let tiny = DeviceConfig::gtx_1660_ti().with_memory_limit(8_000_000);
    let mut dev = Device::new(tiny);
    match gpu_fast(&mut dev, &data, &params) {
        Ok(_) => println!("unexpectedly fit!"),
        Err(e) => {
            println!("on an 8 MB device the same run fails cleanly:\n  {e}");
            println!(
                "live allocations after the failure: {} (the failed run freed its buffers)",
                dev.live_allocations().len()
            );
        }
    }
}
