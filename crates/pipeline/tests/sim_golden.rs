//! Golden oracle for the cycle-level core: every `SimStats` field of a
//! matrix of runs, folded into one FNV-1a digest.
//!
//! The matrix is 24 benchmarks × 5 L1Ds (healthy, 3-1-0 VACA, 3-1-0
//! YAPD, 0-4-0 VACA, 2-1-1 Hybrid) × 8 machine variants × 2 trace seeds.
//! The variants reach the code paths the paper's configuration leaves
//! cold: a bounded MSHR file, store-to-load forwarding, a scalar core, a
//! binning scheduler that assumes 5-cycle hits, deep load-bypass buffers
//! behind a small ROB and issue queue, a next-line prefetcher, and a
//! zero-depth schedule-to-execute pipe. The last is the only depth at
//! which a load finishing before its assumed latency changes when its
//! dependants may issue, and at which an op books its functional-unit
//! arrival for the cycle whose arrivals were already processed (the
//! arrival ring then delivers it one horizon later).
//!
//! `EXPECTED` was produced by the straightforward simulator that stepped
//! every cycle and rescanned the ROB on each one. Any change to the core
//! — a faster scheduler, skipped idle cycles, a cheaper cache — must
//! reproduce it exactly: the statistics are the product, and a change
//! that moves one counter in one cell changes the digest.

use yac_cache::{CacheConfig, HierarchyConfig, MemoryHierarchy};
use yac_pipeline::{Pipeline, PipelineConfig, SimStats};
use yac_workload::{spec2000, TraceGenerator};

/// Digest of the whole matrix (see the module docs).
const EXPECTED: u64 = 0xfa94_953b_e3c6_3caa;

const WARMUP: u64 = 200;
const MEASURE: u64 = 800;
const SEEDS: [u64; 2] = [2006, 7];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every field of `SimStats`, in declaration order. The exhaustive
/// destructuring makes a new field a compile error here until it joins
/// the digest.
fn fields(s: &SimStats) -> [u64; 12] {
    let SimStats {
        cycles,
        committed,
        replays,
        bypass_stalls,
        mispredicts,
        branches,
        loads,
        l1d_load_hits,
        fetch_stall_cycles,
        dispatch_stalls,
        forwarded_loads,
        mshr_stall_cycles,
    } = *s;
    [
        cycles,
        committed,
        replays,
        bypass_stalls,
        mispredicts,
        branches,
        loads,
        l1d_load_hits,
        fetch_stall_cycles,
        dispatch_stalls,
        forwarded_loads,
        mshr_stall_cycles,
    ]
}

fn l1d(latency: [u32; 4], enabled: [bool; 4]) -> CacheConfig {
    let mut cfg = CacheConfig::l1d_paper();
    cfg.way_latency = latency.to_vec();
    cfg.way_enabled = enabled.to_vec();
    cfg
}

fn l1ds() -> Vec<(&'static str, CacheConfig)> {
    let on = [true; 4];
    let last_off = [true, true, true, false];
    vec![
        ("healthy", CacheConfig::l1d_paper()),
        ("3-1-0 VACA", l1d([4, 4, 4, 5], on)),
        ("3-1-0 YAPD", l1d([4, 4, 4, 5], last_off)),
        ("0-4-0 VACA", l1d([5, 5, 5, 5], on)),
        ("2-1-1 Hybrid", l1d([4, 4, 5, 6], last_off)),
    ]
}

/// Machine variants: the core configuration and whether the L1D has a
/// next-line prefetcher.
fn variants() -> Vec<(&'static str, PipelineConfig, bool)> {
    let paper = PipelineConfig::paper();
    let with = |f: &dyn Fn(&mut PipelineConfig)| {
        let mut cfg = paper.clone();
        f(&mut cfg);
        cfg
    };
    vec![
        ("paper", paper.clone(), false),
        ("mshrs=2", with(&|c| c.mshrs = 2), false),
        (
            "store_forwarding",
            with(&|c| c.store_forwarding = true),
            false,
        ),
        ("width=1", with(&|c| c.width = 1), false),
        (
            "assumed_load_latency=5",
            with(&|c| c.assumed_load_latency = 5),
            false,
        ),
        (
            "bypass_depth=3, small ROB/IQ",
            with(&|c| {
                c.bypass_depth = 3;
                c.rob_size = 48;
                c.iq_size = 24;
                c.lsq_size = 16;
            }),
            false,
        ),
        ("next-line prefetch", paper.clone(), true),
        (
            "sched_to_exec=0, assumed_load_latency=5",
            with(&|c| {
                c.sched_to_exec = 0;
                c.assumed_load_latency = 5;
            }),
            false,
        ),
    ]
}

fn run(
    profile: yac_workload::BenchmarkProfile,
    l1d: &CacheConfig,
    cfg: &PipelineConfig,
    prefetch: bool,
    seed: u64,
) -> SimStats {
    let mut hier = HierarchyConfig::paper();
    hier.l1d = l1d.clone();
    hier.l1d_next_line_prefetch = prefetch;
    let mem = MemoryHierarchy::new(hier).expect("valid hierarchy");
    let mut cpu = Pipeline::new(cfg.clone(), mem).expect("valid pipeline");
    cpu.run(TraceGenerator::new(profile, seed), WARMUP, MEASURE)
}

#[test]
fn sim_stats_match_the_golden_digest() {
    let mut digest = FNV_OFFSET;
    let mut cells = 0u32;
    for profile in spec2000::all_profiles() {
        for (_, l1d) in l1ds() {
            for (_, cfg, prefetch) in variants() {
                for seed in SEEDS {
                    let stats = run(profile.clone(), &l1d, &cfg, prefetch, seed);
                    for word in fields(&stats) {
                        digest = fnv(digest, word);
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 24 * 5 * 8 * 2);
    assert_eq!(
        digest, EXPECTED,
        "SimStats digest {digest:#018x} differs from the golden {EXPECTED:#018x}"
    );
}
