//! Property tests over the batch engine: on randomized topologies the
//! cross-session cache must change probe spend, never observations.

use std::collections::{BTreeMap, BTreeSet};

use evalkit::CollectedSet;
use inet::{Addr, Prefix};
use netsim::{FaultPlan, Network};
use probe::{Prober, RetryPolicy, SimProber};
use proptest::prelude::*;
use sweep::BatchConfig;
use topogen::random_topology;
use tracenet::{Session, TraceReport, TracenetOptions};

fn collect(
    scenario: &topogen::Scenario,
    targets: &[Addr],
    cfg: &BatchConfig,
) -> (CollectedSet, sweep::CacheStats) {
    collect_with_plan(scenario, targets, cfg, None)
}

fn collect_with_plan(
    scenario: &topogen::Scenario,
    targets: &[Addr],
    cfg: &BatchConfig,
    plan: Option<FaultPlan>,
) -> (CollectedSet, sweep::CacheStats) {
    let mut net = Network::new(scenario.topology.clone());
    net.set_fault_plan(plan);
    let batch = sweep::run_batch(
        &net,
        scenario.vantage("vantage"),
        targets,
        cfg,
        &obs::Recorder::disabled(),
    );
    (CollectedSet::from_batch(&batch), batch.cache)
}

/// A moderate seeded fault plan for the robustness properties.
fn plan_from(seed: u64) -> FaultPlan {
    FaultPlan { forward_loss: 0.15, router_loss: 0.08, reply_loss: 0.12, ..FaultPlan::new(seed) }
}

/// Session options for faulty runs: a finite per-hop fault budget.
fn faulty_opts() -> TracenetOptions {
    TracenetOptions { hop_fault_budget: Some(32), ..TracenetOptions::default() }
}

fn subnet_map(set: &CollectedSet) -> BTreeMap<Prefix, BTreeSet<Addr>> {
    set.records().iter().map(|r| (r.prefix(), r.members().iter().copied().collect())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cached run discovers exactly the uncached run's subnet set
    /// (same prefixes, same members, same addresses) while never
    /// spending more probes.
    #[test]
    fn cache_changes_probes_not_observations(seed in 0u64..64, size in 8usize..=11) {
        let scenario = random_topology(seed, size);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(16).collect();
        let uncached =
            collect(&scenario, &targets, &BatchConfig { use_cache: false, ..BatchConfig::default() });
        let cached = collect(&scenario, &targets, &BatchConfig::default());

        prop_assert_eq!(subnet_map(&cached.0), subnet_map(&uncached.0), "seed {}", seed);
        prop_assert_eq!(cached.0.addresses(), uncached.0.addresses(), "seed {}", seed);
        prop_assert!(
            cached.0.probes <= uncached.0.probes,
            "seed {}: cache added probes ({} > {})",
            seed, cached.0.probes, uncached.0.probes
        );
        prop_assert_eq!(uncached.1, sweep::CacheStats::default());
    }

    /// Accounting invariants: every target gets a session, every lookup
    /// is counted exactly once, and hits plus sessions can only exceed
    /// the target count (each hit stands in for work a session skipped).
    #[test]
    fn cache_accounting_is_complete(seed in 64u64..128, jobs in 1usize..=8) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let (set, stats) =
            collect(&scenario, &targets, &BatchConfig { jobs, ..BatchConfig::default() });

        prop_assert_eq!(set.sessions, targets.len(), "seed {}", seed);
        prop_assert_eq!(stats.lookups(), stats.hits + stats.skips + stats.misses);
        prop_assert!(
            stats.hits + set.sessions as u64 >= targets.len() as u64,
            "seed {}: sessions ran but accounting lost hits", seed
        );
        // Every miss is a hop the engine went on to explore and admit.
        prop_assert!(
            stats.admitted >= stats.misses,
            "seed {}: {} misses but only {} admissions",
            seed, stats.misses, stats.admitted
        );
    }

    /// Thread count is invisible in the output: jobs=1 and jobs=8 cached
    /// runs produce identical collected sets on fluctuation-free nets.
    #[test]
    fn thread_count_is_invisible(seed in 128u64..160) {
        let scenario = random_topology(seed, 10);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let seq = collect(&scenario, &targets, &BatchConfig::default());
        let par = collect(&scenario, &targets, &BatchConfig { jobs: 8, ..BatchConfig::default() });
        prop_assert_eq!(subnet_map(&par.0), subnet_map(&seq.0), "seed {}", seed);
        prop_assert_eq!(par.0.addresses(), seq.0.addresses(), "seed {}", seed);
    }

    /// Soundness under faults: whatever a seeded fault plan does, the
    /// batch never reports an address the topology does not assign, and
    /// every session completes (no aborted sentinel reports).
    #[test]
    fn faulty_runs_discover_only_assigned_addresses(seed in 160u64..200) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(10).collect();
        let cfg = BatchConfig { opts: faulty_opts(), ..BatchConfig::default() };
        let (set, _) = collect_with_plan(&scenario, &targets, &cfg, Some(plan_from(seed)));
        prop_assert_eq!(set.sessions, targets.len(), "seed {}", seed);
        for &addr in set.addresses() {
            prop_assert!(
                scenario.topology.iface_by_addr(addr).is_some(),
                "seed {}: faulty run invented address {}", seed, addr
            );
        }
    }

    /// Monotone degradation: scaling the loss knobs up (same seed) never
    /// lets the batch discover more than a lighter-loss run.
    #[test]
    fn degradation_is_monotone_in_the_loss_knobs(seed in 200u64..230) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(10).collect();
        let cfg = BatchConfig { opts: faulty_opts(), ..BatchConfig::default() };
        let base = plan_from(seed);
        let mut prev = usize::MAX;
        for factor in [0.0, 0.5, 1.0] {
            let plan = base.scaled_loss(factor);
            let (set, _) = collect_with_plan(&scenario, &targets, &cfg, Some(plan));
            let count = set.addresses().len();
            prop_assert!(
                count <= prev,
                "seed {}: loss factor {} discovered {} > lighter run's {}",
                seed, factor, count, prev
            );
            prev = count;
        }
    }

    /// ProbeStats identities hold for every retry policy shape, with and
    /// without faults: wire sends decompose into requests plus retries,
    /// requests decompose into the four outcomes, and fault attribution
    /// never exceeds the timeout count.
    #[test]
    fn probe_stats_identities_hold_for_every_retry_policy(
        seed in 230u64..250,
        policy_idx in 0usize..5,
        faulty in any::<bool>(),
    ) {
        let policies = [
            RetryPolicy::Fixed { retries: 0 },
            RetryPolicy::Fixed { retries: 2 },
            RetryPolicy::Backoff { retries: 3, base: 4 },
            RetryPolicy::Adaptive { min: 0, max: 3 },
            RetryPolicy::Adaptive { min: 1, max: 1 },
        ];
        let scenario = random_topology(seed, 9);
        let mut net = Network::new(scenario.topology.clone());
        if faulty {
            net.set_fault_plan(Some(plan_from(seed)));
        }
        let mut prober = SimProber::new(&net, scenario.vantage("vantage"))
            .retry_policy(policies[policy_idx]);
        for &target in scenario.targets.iter().take(6) {
            for ttl in 1..=6u8 {
                let _ = prober.probe(target, ttl);
            }
        }
        let s = prober.stats();
        prop_assert_eq!(s.sent, s.requests + s.retries, "seed {}", seed);
        prop_assert_eq!(
            s.requests,
            s.direct_replies + s.ttl_exceeded + s.unreachable + s.timeouts,
            "seed {}", seed
        );
        prop_assert!(
            s.timeouts_loss + s.timeouts_rate_limited <= s.timeouts,
            "seed {}: attributed more timeouts than happened", seed
        );
        if !faulty {
            prop_assert_eq!(s.timeouts_loss + s.timeouts_rate_limited, 0, "seed {}", seed);
        }
    }

    /// The jobs=1 identity contract: a single-job `run_batch` renders
    /// byte-identical reports (and records a byte-identical probe-event
    /// stream) to a plain session-per-target loop over `SimProber` — the
    /// conformance suite's reference, with the batch's session tags — on
    /// random topologies with and without a fault plan.
    #[test]
    fn single_job_batch_is_byte_identical_to_the_sequential_engine(
        seed in 250u64..270,
        faulty in any::<bool>(),
    ) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(8).collect();
        let vantage = scenario.vantage("vantage");
        let plan = faulty.then(|| plan_from(seed));
        let cfg = BatchConfig {
            use_cache: false,
            opts: faulty_opts(),
            ..BatchConfig::default()
        };

        let seq_sink = obs::VecSink::new();
        let seq_reader = seq_sink.clone();
        let recorder = obs::Recorder::new().with_sink(obs::SinkHandle::new(seq_sink));
        let mut net = Network::new(scenario.topology.clone());
        net.set_fault_plan(plan);
        let seq: Vec<TraceReport> = targets
            .iter()
            .enumerate()
            .map(|(k, &target)| {
                let recorder = recorder.clone().with_session(k as u64);
                let mut prober = SimProber::new(&net, vantage)
                    .ident(k as u16)
                    .retry_policy(cfg.retry)
                    .recorder(recorder.clone());
                Session::new(&mut prober, cfg.opts).with_recorder(recorder).run(target)
            })
            .collect();

        let par_sink = obs::VecSink::new();
        let par_reader = par_sink.clone();
        let mut net = Network::new(scenario.topology.clone());
        net.set_fault_plan(plan);
        let par = sweep::run_batch(
            &net,
            vantage,
            &targets,
            &cfg,
            &obs::Recorder::new().with_sink(obs::SinkHandle::new(par_sink)),
        );

        let seq_probes: u64 = seq.iter().map(|r| r.total_probes).sum();
        prop_assert_eq!(seq_probes, par.probes, "seed {}", seed);
        prop_assert_eq!(seq.len(), par.reports.len(), "seed {}", seed);
        for (k, (a, b)) in seq.iter().zip(&par.reports).enumerate() {
            prop_assert_eq!(
                format!("{a:?}"), format!("{b:?}"),
                "seed {}: target {} diverged", seed, k
            );
        }
        let seq_events: Vec<String> =
            seq_reader.events().iter().map(|e| e.to_json().to_string()).collect();
        let par_events: Vec<String> =
            par_reader.events().iter().map(|e| e.to_json().to_string()).collect();
        prop_assert_eq!(seq_events, par_events, "seed {}: event streams diverged", seed);
    }
}
