//! Pipeline diagnostics: per-benchmark CPI, L1D hit rate, misprediction
//! rate, replays and bypass stalls for the base machine and the repaired
//! cache configurations of Table 6.
//!
//! Usage: `cargo run -p yac-bench --release --bin pipestats [uops]`

#![deny(unsafe_code)]

use yac_cache::{HierarchyConfig, MemoryHierarchy};
use yac_pipeline::{Pipeline, PipelineConfig};
use yac_workload::{spec2000, TraceGenerator};

fn run(
    name: &str,
    cfg: PipelineConfig,
    hier: HierarchyConfig,
    uops: u64,
) -> yac_pipeline::SimStats {
    let mem = MemoryHierarchy::new(hier).expect("valid hierarchy");
    let mut cpu = Pipeline::new(cfg, mem).expect("valid pipeline");
    let trace = TraceGenerator::new(spec2000::profile(name).expect("known benchmark"), 2006);
    cpu.run(trace, uops / 5, uops)
}

fn main() {
    let uops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    println!(
        "{:<10}{:>8}{:>8}{:>8}{:>8}{:>9}{:>9}{:>8}{:>8}{:>8}{:>8}",
        "bench",
        "CPI",
        "l1d%",
        "bpred%",
        "ipc",
        "vreplay",
        "vbypass",
        "+v5",
        "+yapd",
        "+bin5",
        "+bin6"
    );
    let handles: Vec<_> = spec2000::all_profiles()
        .into_iter()
        .map(|p| {
            std::thread::spawn(move || {
                let base = run(
                    p.name,
                    PipelineConfig::paper(),
                    HierarchyConfig::paper(),
                    uops,
                );

                let mut vaca = HierarchyConfig::paper();
                vaca.l1d.way_latency = vec![4, 4, 4, 5];
                let v = run(p.name, PipelineConfig::paper(), vaca, uops);

                let mut yapd = HierarchyConfig::paper();
                yapd.l1d.way_enabled[3] = false;
                let y = run(p.name, PipelineConfig::paper(), yapd, uops);

                let mut bin5 = HierarchyConfig::paper();
                bin5.l1d.way_latency = vec![5; 4];
                let mut cfg5 = PipelineConfig::paper();
                cfg5.assumed_load_latency = 5;
                let b5 = run(p.name, cfg5, bin5, uops);

                let mut bin6 = HierarchyConfig::paper();
                bin6.l1d.way_latency = vec![6; 4];
                let mut cfg6 = PipelineConfig::paper();
                cfg6.assumed_load_latency = 6;
                let b6 = run(p.name, cfg6, bin6, uops);

                (p.name, base, v, y, b5, b6)
            })
        })
        .collect();

    let mut sum_v = 0.0;
    let mut sum_y = 0.0;
    let mut sum_b5 = 0.0;
    let mut sum_b6 = 0.0;
    let mut n = 0.0;
    for h in handles {
        let (name, base, v, y, b5, b6) = h.join().expect("worker");
        let dv = 100.0 * (v.cpi() / base.cpi() - 1.0);
        let dy = 100.0 * (y.cpi() / base.cpi() - 1.0);
        let d5 = 100.0 * (b5.cpi() / base.cpi() - 1.0);
        let d6 = 100.0 * (b6.cpi() / base.cpi() - 1.0);
        sum_v += dv;
        sum_y += dy;
        sum_b5 += d5;
        sum_b6 += d6;
        n += 1.0;
        println!(
            "{:<10}{:>8.3}{:>8.1}{:>8.2}{:>8.2}{:>9}{:>9}{:>7.2}%{:>7.2}%{:>7.2}%{:>7.2}%",
            name,
            base.cpi(),
            100.0 * base.l1d_load_hit_rate(),
            100.0 * base.mispredict_rate(),
            base.ipc(),
            v.replays,
            v.bypass_stalls,
            dv,
            dy,
            d5,
            d6,
        );
    }
    println!(
        "\naverage: VACA 3-1-0 = {:.2}% (paper 1.81) | YAPD = {:.2}% (1.08) | bin5 = {:.2}% (6.42) | bin6 = {:.2}% (12.62)",
        sum_v / n, sum_y / n, sum_b5 / n, sum_b6 / n
    );
}
