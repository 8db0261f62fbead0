//! Scheduler equivalence: the concurrent branch executor must produce
//! byte-identical stage outputs and a monotone non-increasing makespan
//! versus the serial reference executor, across the four representative
//! systems (CPU, NMP-rand, NMP-seq, Mondrian — covering both probe
//! families and both partitioning mechanisms). The example DAGs also
//! check, in every concurrency mode, the schedule report's accounting
//! and the wave events a run emits.

use std::sync::{Mutex, OnceLock};

use mondrian_core::SystemKind;
use mondrian_noc::{MeshStats, SerDesStats};
use mondrian_obs::{ProgressEvent, ProgressSink};
use mondrian_pipeline::{
    BuildSide, Concurrency, Pipeline, PipelineConfig, PipelineReport, Stage, StageInput, StageSpec,
};
use proptest::prelude::*;

/// The four representative systems the equivalence property sweeps.
const SYSTEMS: [SystemKind; 4] =
    [SystemKind::Cpu, SystemKind::NmpRand, SystemKind::NmpSeq, SystemKind::Mondrian];

/// The second stage of a generated branch.
fn branch_tail(sel: u64) -> StageSpec {
    match sel % 4 {
        0 => StageSpec::GroupByKey,
        1 => StageSpec::ReduceByKey,
        2 => StageSpec::CountByKey,
        _ => StageSpec::SortByKey,
    }
}

/// A join over two independent scan→tail chains, with generated
/// predicates and tails.
fn two_branch_pipeline(mod_a: u64, tail_a: u64, mod_b: u64, tail_b: u64) -> Pipeline {
    Pipeline::from_stages(vec![
        Stage::chained(StageSpec::Filter { modulus: mod_a, remainder: 0 }),
        Stage::chained(branch_tail(tail_a)),
        Stage::with_input(StageSpec::Filter { modulus: mod_b, remainder: 1 }, StageInput::Source),
        Stage::chained(branch_tail(tail_b)),
        Stage::with_input(StageSpec::Join { build: BuildSide::Stage(3) }, StageInput::Stage(1)),
    ])
}

proptest! {
    /// For random two-branch DAGs, seeds and dataset scales, branch
    /// execution is functionally indistinguishable from serial execution
    /// (identical per-stage digests and final relation) and never slower.
    #[test]
    fn branch_outputs_byte_identical_and_makespan_monotone(
        params in (0u64..4, 2u64..9, 0u64..4, 2u64..9, 0u64..4, 0u64..1000, 16usize..48)
    ) {
        let (sys, mod_a, tail_a, mod_b, tail_b, seed, tpv) = params;
        let pipeline = two_branch_pipeline(mod_a, tail_a, mod_b, tail_b);
        let mut cfg = PipelineConfig::tiny(SYSTEMS[sys as usize]);
        cfg.tuples_per_vault = tpv;
        cfg.seed = seed;
        let serial = pipeline.run(&cfg);
        cfg.concurrency = Concurrency::Branch;
        let branch = pipeline.run(&cfg);

        prop_assert!(serial.verified(), "serial run failed on {}", cfg.system);
        prop_assert!(branch.verified(), "branch run failed on {}", cfg.system);
        // Byte-identical stage outputs between the two schedules.
        for (s, b) in serial.stages.iter().zip(&branch.stages) {
            prop_assert_eq!(s.output_digest, b.output_digest, "stage {} diverged", s.spec);
            prop_assert_eq!(s.output_rows, b.output_rows);
            prop_assert!(b.matches_serial);
        }
        prop_assert_eq!(&serial.output, &branch.output, "final relations diverged");
        // Monotone non-increasing makespan.
        prop_assert!(
            branch.makespan_ps() <= serial.makespan_ps(),
            "branch schedule slower on {}: {} > {} ps",
            cfg.system,
            branch.makespan_ps(),
            serial.makespan_ps()
        );
        // The serial schedule is a sum of its stages in both reports.
        prop_assert_eq!(serial.makespan_ps(), serial.runtime_ps());
    }
}

/// A DAG whose second wave holds two *multi-input* stages — a union and a
/// cogroup of the same two feeder chains — so the branch scheduler feeds
/// concurrent stages from multiple DAG edges.
fn multi_input_wave_pipeline(mod_a: u64, mod_b: u64, fanout: u64) -> Pipeline {
    Pipeline::from_stages(vec![
        Stage::chained(StageSpec::Filter { modulus: mod_a, remainder: 0 }),
        Stage::chained(StageSpec::FlatMap { fanout }),
        Stage::with_input(StageSpec::Filter { modulus: mod_b, remainder: 1 }, StageInput::Source),
        Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(1), StageInput::Stage(2)]),
        Stage::with_inputs(StageSpec::Cogroup, vec![StageInput::Stage(1), StageInput::Stage(2)]),
        Stage::with_input(StageSpec::SortByKey, StageInput::Stage(3)),
    ])
}

proptest! {
    /// Multi-input stages inside a branch wave: for random predicates,
    /// fanouts, seeds and scales, the union and cogroup branches execute
    /// concurrently on leases yet stay byte-identical to serial, and the
    /// makespan stays monotone — on all four representative systems.
    #[test]
    fn multi_input_branch_wave_byte_identical_and_monotone(
        params in (0u64..4, 2u64..9, 2u64..9, 1u64..5, 0u64..1000, 16usize..48)
    ) {
        let (sys, mod_a, mod_b, fanout, seed, tpv) = params;
        let pipeline = multi_input_wave_pipeline(mod_a, mod_b, fanout);
        let mut cfg = PipelineConfig::tiny(SYSTEMS[sys as usize]);
        cfg.tuples_per_vault = tpv;
        cfg.seed = seed;
        let serial = pipeline.run(&cfg);
        cfg.concurrency = Concurrency::Branch;
        let branch = pipeline.run(&cfg);

        prop_assert!(serial.verified(), "serial run failed on {}", cfg.system);
        prop_assert!(branch.verified(), "branch run failed on {}", cfg.system);
        for (s, b) in serial.stages.iter().zip(&branch.stages) {
            prop_assert_eq!(s.output_digest, b.output_digest, "stage {} diverged", s.spec);
            prop_assert!(b.matches_serial);
        }
        prop_assert_eq!(&serial.output, &branch.output);
        prop_assert!(branch.makespan_ps() <= serial.makespan_ps());
        // The union and cogroup stages share a wave (mutually
        // independent branches fed from the same two DAG edges).
        prop_assert_eq!(branch.stages[3].wave, branch.stages[4].wave);
        prop_assert!(branch.stages[3].branch != branch.stages[4].branch);
    }
}

/// The acceptance scenario, deterministically: a two-branch DAG on the
/// tiny topology must see a strict makespan win on at least one system
/// while producing byte-identical artifacts on all of them.
#[test]
fn branch_schedule_strictly_faster_on_some_system() {
    let pipeline = two_branch_pipeline(10, 0, 3, 0);
    let mut strictly_faster = Vec::new();
    for system in SystemKind::ALL {
        let mut cfg = PipelineConfig::tiny(system);
        cfg.tuples_per_vault = 128;
        cfg.seed = 7;
        let serial = pipeline.run(&cfg);
        cfg.concurrency = Concurrency::Branch;
        let branch = pipeline.run(&cfg);
        assert!(branch.verified(), "branch run failed on {system}");
        assert!(branch.makespan_ps() <= serial.makespan_ps(), "slower on {system}");
        assert_eq!(serial.output, branch.output);
        if branch.makespan_ps() < serial.makespan_ps() {
            strictly_faster.push(system);
            assert!(
                branch.schedule.any_concurrent(),
                "a strict win must come from a concurrent wave"
            );
        }
    }
    assert!(
        !strictly_faster.is_empty(),
        "no system gained from branch concurrency on the two-branch DAG"
    );
}

/// Wave structure and lease accounting of a concurrent run.
#[test]
fn concurrent_waves_lease_disjoint_partitions() {
    let pipeline = two_branch_pipeline(10, 0, 3, 0);
    let mut cfg = PipelineConfig::tiny(SystemKind::Cpu);
    cfg.tuples_per_vault = 128;
    cfg.concurrency = Concurrency::Branch;
    let report = pipeline.run(&cfg);
    assert!(report.verified());
    assert_eq!(report.schedule.waves.len(), 2, "two chains, then the join");
    let wave0 = &report.schedule.waves[0];
    assert_eq!(wave0.branches.len(), 2);
    if wave0.concurrent {
        let (a, b) = (&wave0.branches[0], &wave0.branches[1]);
        assert_eq!(a.first_vault, 0);
        assert_eq!(b.first_vault, a.vaults, "leases are disjoint and contiguous");
        assert_eq!(a.vaults + b.vaults, 4, "tiny topology splits its 4 vaults");
        assert_eq!(wave0.runtime_ps, a.runtime_ps.max(b.runtime_ps));
        assert!(wave0.branches.iter().any(|br| br.critical));
        assert!(a.mesh.messages > 0, "mesh traffic attributed to the branch's lease");
    }
    // The join runs alone on the whole machine.
    let wave1 = &report.schedule.waves[1];
    assert!(!wave1.concurrent);
    assert_eq!(wave1.branches[0].vaults, 4);
    // Makespan is the sum of charged wave times.
    let sum: u64 = report.schedule.waves.iter().map(|w| w.runtime_ps).sum();
    assert_eq!(report.makespan_ps(), sum);
}

/// The stage lists of the three example DAG manifests
/// (`examples/manifests/{branch_join,cogroup_union,stream_chain}.toml`),
/// with their tuples per vault and seed.
fn example_dags() -> [(&'static str, Pipeline, usize, u64); 3] {
    [
        ("branch_join", two_branch_pipeline(10, 0, 3, 0), 128, 7),
        ("cogroup_union", multi_input_wave_pipeline(10, 3, 3), 96, 11),
        (
            "stream_chain",
            Pipeline::from_stages(vec![
                Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
                Stage::chained(StageSpec::GroupByKey),
                Stage::chained(StageSpec::Map { key_mul: 1, key_add: 1 }),
                Stage::chained(StageSpec::SortByKey),
            ]),
            128,
            7,
        ),
    ]
}

/// One example run: its label, report, and the wave events it emitted.
type ExampleRun = (String, PipelineReport, Vec<ProgressEvent>);

/// Every example DAG in every concurrency mode on the tiny topology of
/// CPU, NMP-perm and Mondrian (both partitioning mechanisms), run once
/// and shared by the tests that inspect them.
fn example_runs() -> &'static [ExampleRun] {
    #[derive(Default)]
    struct Collect(Mutex<Vec<ProgressEvent>>);
    impl ProgressSink for Collect {
        fn emit(&self, _run: &str, event: &ProgressEvent) {
            if matches!(event, ProgressEvent::WaveCompleted { .. }) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
    }
    static RUNS: OnceLock<Vec<ExampleRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs = Vec::new();
        for (name, pipeline, tpv, seed) in example_dags() {
            for system in [SystemKind::Cpu, SystemKind::NmpPerm, SystemKind::Mondrian] {
                for mode in [
                    Concurrency::Serial,
                    Concurrency::Branch,
                    Concurrency::Stream,
                    Concurrency::Auto,
                ] {
                    let mut cfg = PipelineConfig::tiny(system);
                    cfg.tuples_per_vault = tpv;
                    cfg.seed = seed;
                    cfg.concurrency = mode;
                    let sink = Collect::default();
                    let report = pipeline.run_observed(&cfg, &Default::default(), "", &sink);
                    let run = format!("{name} {system} {mode:?}");
                    assert!(report.verified(), "{run} failed");
                    runs.push((run, report, sink.0.into_inner().unwrap()));
                }
            }
        }
        runs
    })
}

/// Progress events report the schedule the artifact charges: one
/// `wave_completed` per wave, in wave order, in every mode.
#[test]
fn wave_events_match_the_charged_schedule_in_every_mode() {
    for (run, report, events) in example_runs() {
        let expected: Vec<ProgressEvent> = report
            .schedule
            .waves
            .iter()
            .map(|w| ProgressEvent::WaveCompleted {
                wave: w.wave,
                concurrent: w.concurrent,
                runtime_ps: w.runtime_ps,
            })
            .collect();
        assert_eq!(events, &expected, "{run}");
    }
}

/// The schedule report's accounting invariants hold in every mode.
#[test]
fn schedule_reports_hold_their_invariants_in_every_mode() {
    let total_vaults = PipelineConfig::tiny(SystemKind::Cpu).system_config().total_vaults();
    for (run, report, _) in example_runs() {
        let schedule = &report.schedule;
        let wave_sum: u64 = schedule.waves.iter().map(|w| w.runtime_ps).sum();
        assert_eq!(schedule.makespan_ps, wave_sum, "{run}: makespan is the sum of the waves");
        for (w, wave) in schedule.waves.iter().enumerate() {
            assert_eq!(wave.wave, w, "{run}");
            let mut serdes = SerDesStats::default();
            for branch in &wave.branches {
                let mut mesh = MeshStats::default();
                for &i in &branch.stages {
                    mesh.merge(&report.stages[i].report.mesh_totals);
                    serdes.merge(&report.stages[i].report.serdes_totals);
                    assert_eq!(report.stages[i].wave, w, "{run}: stage {i}");
                    assert_eq!(report.stages[i].concurrent, wave.concurrent, "{run}: stage {i}");
                }
                assert_eq!(branch.mesh, mesh, "{run}: wave {w} branch {}", branch.branch);
                let leased = branch.vaults < total_vaults;
                assert_eq!(leased, wave.concurrent, "{run}: wave {w} branch {}", branch.branch);
                if !leased {
                    assert_eq!(branch.first_vault, 0, "{run}");
                }
            }
            assert_eq!(wave.serdes, serdes, "{run}: wave {w}");
            let max = wave.branches.iter().map(|b| b.runtime_ps).max();
            let first_max = wave.branches.iter().position(|b| Some(b.runtime_ps) == max);
            let critical: Vec<usize> =
                (0..wave.branches.len()).filter(|&b| wave.branches[b].critical).collect();
            assert_eq!(critical, first_max.into_iter().collect::<Vec<_>>(), "{run}: wave {w}");
        }
        match schedule.mode {
            Concurrency::Serial => {
                assert!(schedule.fused.is_empty() && !schedule.any_concurrent(), "{run}");
            }
            Concurrency::Branch => assert!(schedule.fused.is_empty(), "{run}"),
            Concurrency::Stream | Concurrency::Auto => {}
        }
    }
}
