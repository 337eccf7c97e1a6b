//! Property tests for the supervised parallel executor, on the public
//! facade: fault-injected, sharded parallel runs must reproduce the
//! serial study bit-for-bit on every surviving shard, and a killed
//! parallel run must resume to the identical result.

use proptest::prelude::*;
use yield_aware_cache::core::executor::run_checkpointed_workers_budget;
use yield_aware_cache::prelude::*;

const CHIPS: usize = 48;

fn config(seed: u64, fault_rate: f64) -> PopulationConfig {
    let mut cfg = PopulationConfig::paper(seed);
    cfg.chips = CHIPS;
    if fault_rate > 0.0 {
        cfg.faults = Some(FaultPlan::new(fault_rate, seed ^ 0xfa17).expect("rate in range"));
    }
    cfg
}

fn exec(workers: usize, shard_chips: usize) -> ExecutorConfig {
    let mut e = ExecutorConfig::with_workers(workers);
    e.shard_chips = shard_chips;
    e
}

fn bits(pop: &Population) -> Vec<(u64, u64, u64)> {
    pop.chips
        .iter()
        .map(|c| {
            (
                c.index,
                c.regular.delay.to_bits(),
                c.regular.leakage.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard faults degrade exactly the shards the plan selects, and the
    /// survivors equal the serial run restricted to them — chips,
    /// quarantine and LossTable — for any worker count and shard size.
    #[test]
    fn parallel_run_with_faults_matches_serial(
        seed in any::<u64>(),
        workers in 1usize..8,
        shard_chips in 4usize..24,
        fault_step in 0u8..4,
        shard_fault_rate in 0.2f64..0.8,
    ) {
        // fault_step 0 = no chip faults; 1..=3 = 5/10/15% injection.
        let cfg = config(seed, 0.05 * f64::from(fault_step));
        let mut e = exec(workers, shard_chips);
        let plan = FaultPlan::new(shard_fault_rate, seed ^ 0x5a5a).expect("rate in range");
        e.shard_faults = Some(plan);

        let outcome = run_supervised(&cfg, &e).expect("valid config");
        let planned: Vec<u64> = (0..CHIPS.div_ceil(shard_chips) as u64)
            .filter(|&s| plan.fault_for(seed, s).is_some())
            .map(|s| s * shard_chips as u64)
            .collect();
        let degraded: Vec<u64> = outcome.degraded.iter().map(|d| d.start).collect();
        prop_assert_eq!(degraded, planned);

        let lost = |i: u64| outcome.degraded.iter().any(|d| (d.start..d.start + d.len as u64).contains(&i));
        let survivors: Vec<u64> = (0..CHIPS as u64).filter(|&i| !lost(i)).collect();
        let serial = Population::generate_with(&cfg);
        let restricted = serial.restricted_to(&survivors);
        prop_assert_eq!(bits(&outcome.population), bits(&restricted));
        let kept: Vec<_> = serial.quarantine().entries().iter().filter(|q| !lost(q.index)).collect();
        prop_assert_eq!(outcome.population.quarantine().entries().iter().collect::<Vec<_>>(), kept);
        if !serial.is_empty() {
            // `restricted_to` clears the quarantine, so compare the
            // tables over the chips alone.
            let c = YieldConstraints::derive(&serial, ConstraintSpec::NOMINAL);
            prop_assert_eq!(
                render_loss_table(&table2(&outcome.population.restricted_to(&survivors), &c)),
                render_loss_table(&table2(&restricted, &c))
            );
        }
    }

    /// Kill-resume under parallelism round-trips every f64 bit-exactly.
    #[test]
    fn killed_parallel_run_resumes_bit_exactly(
        seed in any::<u64>(),
        workers in 1usize..6,
        kill_after in 1usize..5,
    ) {
        let cfg = config(seed, 0.1);
        let e = exec(workers, 8);
        let dir = std::env::temp_dir().join("yac-supervised-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{seed:016x}-{workers}-{kill_after}.ckpt"));
        let _ = std::fs::remove_file(&path);

        let partial = run_checkpointed_workers_budget(&cfg, &e, &path, 1, Some(kill_after))
            .expect("checkpointing works");
        prop_assert!(partial.is_none(), "6 shards > kill_after");
        let outcome = run_checkpointed_workers(&cfg, &e, &path, 2).expect("resume works");
        let _ = std::fs::remove_file(&path);

        prop_assert!(!outcome.is_degraded());
        let serial = Population::generate_with(&cfg);
        prop_assert_eq!(bits(&outcome.population), bits(&serial));
        prop_assert_eq!(outcome.population.chips, serial.chips);
        prop_assert_eq!(outcome.population.quarantine(), serial.quarantine());
    }
}
