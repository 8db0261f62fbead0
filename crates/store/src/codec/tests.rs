use super::*;

use mondrian_pipeline::{Pipeline, PipelineConfig};

const SYSTEMS: [SystemKind; 7] = [
    SystemKind::Cpu,
    SystemKind::Nmp,
    SystemKind::NmpPerm,
    SystemKind::NmpRand,
    SystemKind::NmpSeq,
    SystemKind::MondrianNoperm,
    SystemKind::Mondrian,
];

const OPS: [OperatorKind; 7] = [
    OperatorKind::Scan,
    OperatorKind::Join,
    OperatorKind::GroupBy,
    OperatorKind::Sort,
    OperatorKind::Union,
    OperatorKind::Cogroup,
    OperatorKind::FlatMap,
];

const MODES: [Concurrency; 4] =
    [Concurrency::Serial, Concurrency::Branch, Concurrency::Stream, Concurrency::Auto];

const INPUTS: [StageInput; 3] = [StageInput::Prev, StageInput::Source, StageInput::Stage(0)];

const SPECS: [StageSpec; 13] = [
    StageSpec::Filter { modulus: 10, remainder: 3 },
    StageSpec::LookupKey { key: 42 },
    StageSpec::Map { key_mul: 3, key_add: 7 },
    StageSpec::MapValues { mul: 5, add: 11 },
    StageSpec::Union,
    StageSpec::FlatMap { fanout: 4 },
    StageSpec::Cogroup,
    StageSpec::GroupByKey,
    StageSpec::ReduceByKey,
    StageSpec::CountByKey,
    StageSpec::AggregateByKey,
    StageSpec::SortByKey,
    StageSpec::Join { build: BuildSide::Dimension },
];

fn tuples(n: u64) -> Vec<Tuple> {
    (0..n).map(|i| Tuple { key: i * 3 + 1, payload: i ^ 0xdead_beef }).collect()
}

fn aggregates(k: u64) -> Aggregates {
    Aggregates { count: k, sum: 10 * k, sum_sq: u128::from(k) << 70, min: k, max: u64::MAX - k }
}

/// One value of each [`OpOutput`] variant.
fn output(i: usize) -> OpOutput {
    match i % 5 {
        0 => OpOutput::Tuples(tuples(2)),
        1 => OpOutput::Expanded { tuples: tuples(1), fanout: 3 },
        2 => OpOutput::Groups(BTreeMap::from([(4, aggregates(1)), (9, aggregates(2))])),
        3 => OpOutput::CoGroups(BTreeMap::from([(5, (aggregates(3), aggregates(4)))])),
        _ => OpOutput::Rows(vec![(1, 2, 3), (4, 5, 6)]),
    }
}

fn mesh(i: u64) -> MeshStats {
    MeshStats { messages: 5 + i, hops: 9, bit_mm: 1.75, busy_time: 33 }
}

fn serdes(i: u64) -> SerDesStats {
    SerDesStats { packets: 6 + i, busy_bits: 512, busy_time: 44 }
}

/// A hand-built report: `i` picks the operator, system, output variant
/// and whether the run streamed.
fn report(i: usize) -> Report {
    let mut stats = Stats::new();
    stats.set("dram.activations", Stat::Count(i as u64 + 7));
    stats.set("energy.j", Stat::Value(0.5 + i as f64));
    Report {
        op: OPS[i % 7],
        system: SYSTEMS[i % 7],
        phases: vec![PhaseOutcome {
            label: format!("phase{i}"),
            start: 1,
            end: 100 + i as u64,
            instructions: 40,
            simd_ops: 2,
            core_busy: vec![0.25, 1.0],
            overflows: 1,
            events: 12,
        }],
        runtime_ps: 1000 + i as u64,
        instructions: 77,
        energy: EnergyBreakdown {
            cores_j: 1.5,
            llc_j: 0.25,
            dram_dynamic_j: 2.0,
            dram_static_j: 0.125,
            serdes_j: 3.0,
            noc_j: 0.0625,
        },
        stats,
        verified: i.is_multiple_of(2),
        shuffle_retries: i as u32,
        summary: format!("ok{i}"),
        output: output(i),
        partition: PartitionSpec { index: 1, first_vault: 4, vaults: 4, total_vaults: 16 },
        mesh_totals: mesh(i as u64),
        serdes_totals: serdes(i as u64),
        stream: (i % 2 == 1).then(|| StreamInfo { chunks: 2, chunk_partition_ps: vec![10, 20] }),
    }
}

/// The smallest report: every sequence empty, every option `None`.
fn minimal_report() -> Report {
    Report {
        op: OperatorKind::Scan,
        system: SystemKind::Cpu,
        phases: Vec::new(),
        runtime_ps: 0,
        instructions: 0,
        energy: EnergyBreakdown::default(),
        stats: Stats::new(),
        verified: false,
        shuffle_retries: 0,
        summary: String::new(),
        output: OpOutput::Tuples(Vec::new()),
        partition: PartitionSpec { index: 0, first_vault: 0, vaults: 0, total_vaults: 0 },
        mesh_totals: MeshStats::default(),
        serdes_totals: SerDesStats::default(),
        stream: None,
    }
}

fn stage(i: usize) -> StageOutcome {
    StageOutcome {
        spec: SPECS[i],
        inputs: vec![INPUTS[i % 3], INPUTS[(i + 1) % 3]],
        wave: i,
        branch: i % 2,
        concurrent: i % 2 == 1,
        streamed: i % 3 == 1,
        serial_runtime_ps: 500 + i as u64,
        matches_serial: i % 4 != 3,
        output_digest: 0x1234_5678_9abc_def0 ^ i as u64,
        input_rows: 8 + i,
        output_rows: 4 + i,
        reference_ok: !i.is_multiple_of(3),
        report: report(i),
    }
}

fn schedule(mode: Concurrency) -> ScheduleReport {
    ScheduleReport {
        mode,
        waves: vec![WaveReport {
            wave: 0,
            concurrent: true,
            runtime_ps: 900,
            serial_runtime_ps: 1200,
            branches: vec![BranchSchedule {
                branch: 1,
                stages: vec![0, 2],
                first_vault: 8,
                vaults: 8,
                runtime_ps: 900,
                critical: true,
                mesh: mesh(2),
            }],
            serdes: serdes(3),
        }],
        fused: vec![FusedEdge {
            producer: 0,
            consumer: 1,
            chunks: 8,
            streamed: true,
            streamed_ps: 700,
            unfused_ps: 800,
        }],
        makespan_ps: 900,
    }
}

fn plan() -> PlanReport {
    PlanReport {
        stage_predicted_ps: vec![300, 600],
        predicted_makespan_ps: 850,
        planner_won: true,
        waves: vec![PlannedWaveReport {
            wave: 0,
            leases: vec![PlannedLease { branch: 0, first_vault: 0, vaults: 8 }],
        }],
        edges: vec![PlannedEdgeReport { producer: 0, consumer: 1, chunks: 4 }],
    }
}

/// Every persisted value the layout pin covers, built without running the
/// engine: one run report per [`Concurrency`] mode sharing the 13 stage
/// variants (the `auto` one with a plan) plus an empty one, a full and a
/// minimal stage entry, and a reference relation.
fn samples() -> (Vec<PipelineReport>, Vec<StageEntry>, Vec<Tuple>) {
    let mut runs: Vec<PipelineReport> = MODES
        .iter()
        .enumerate()
        .map(|(k, &mode)| PipelineReport {
            system: SYSTEMS[k],
            source_rows: 64 + k,
            stages: (0..SPECS.len()).filter(|i| i % MODES.len() == k).map(stage).collect(),
            schedule: schedule(mode),
            planned: (mode == Concurrency::Auto).then(plan),
            output: tuples(k as u64 + 1),
        })
        .collect();
    runs[0]
        .stages
        .push(StageOutcome { spec: StageSpec::Join { build: BuildSide::Stage(1) }, ..stage(12) });
    runs.push(PipelineReport {
        system: SystemKind::Cpu,
        source_rows: 0,
        stages: Vec::new(),
        schedule: ScheduleReport {
            mode: Concurrency::Serial,
            waves: Vec::new(),
            fused: Vec::new(),
            makespan_ps: 0,
        },
        planned: None,
        output: Vec::new(),
    });
    let entries = vec![
        StageEntry {
            input_rows: 3,
            reference_ok: true,
            report: report(13),
            projected: tuples(3).into(),
        },
        StageEntry {
            input_rows: 0,
            reference_ok: false,
            report: minimal_report(),
            projected: Vec::new().into(),
        },
    ];
    (runs, entries, tuples(5))
}

/// Every sample's encoding, in [`samples`] order.
fn sample_encodings() -> Vec<Vec<u8>> {
    let (runs, entries, rel) = samples();
    let mut out: Vec<Vec<u8>> = runs.iter().map(encode).collect();
    out.extend(entries.iter().map(encode));
    out.push(encode_seq(&rel));
    out
}

/// Total length and FNV-1a digest of every sample encoding, recorded from
/// the hand-written writer/reader codec this layout replaced. Changing
/// either number is an on-disk format change: bump
/// [`crate::STORE_FORMAT_VERSION`] with it.
const LAYOUT_BYTES: usize = 8721;
const LAYOUT_DIGEST: u64 = 0xf065_21a7_0776_d4cd;

#[test]
fn sample_layout_is_pinned() {
    let encodings = sample_encodings();
    let all: Vec<u8> = encodings.concat();
    assert_eq!((all.len(), crate::fnv1a(all.iter().copied())), (LAYOUT_BYTES, LAYOUT_DIGEST));
}

#[test]
fn samples_cover_every_variant_and_roundtrip() {
    let (runs, entries, rel) = samples();
    let stages: Vec<&StageOutcome> = runs.iter().flat_map(|r| &r.stages).collect();
    let reports: Vec<&Report> =
        stages.iter().map(|s| &s.report).chain(entries.iter().map(|e| &e.report)).collect();
    // The first encoded byte of an enum is its tag.
    let tags = |values: Vec<Vec<u8>>| {
        values.iter().map(|bytes| bytes[0]).collect::<std::collections::BTreeSet<_>>().len()
    };
    assert_eq!(tags(reports.iter().map(|r| encode(&r.system)).collect()), 7);
    assert_eq!(tags(reports.iter().map(|r| encode(&r.op)).collect()), 7);
    assert_eq!(tags(reports.iter().map(|r| encode(&r.output)).collect()), 5);
    assert_eq!(tags(runs.iter().map(|r| encode(&r.schedule.mode)).collect()), 4);
    assert_eq!(tags(stages.iter().map(|s| encode(&s.spec)).collect()), 13);
    assert_eq!(tags(stages.iter().flat_map(|s| &s.inputs).map(encode).collect()), 3);
    let builds = stages.iter().filter_map(|s| match s.spec {
        StageSpec::Join { build } => Some(encode(&build)),
        _ => None,
    });
    assert_eq!(tags(builds.collect()), 2);
    let stats = reports.iter().flat_map(|r| r.stats.iter().map(|(_, s)| encode(&s)));
    assert_eq!(tags(stats.collect()), 2);
    assert!(
        reports.iter().any(|r| r.stream.is_some()) && reports.iter().any(|r| r.stream.is_none())
    );
    assert!(runs.iter().any(|r| r.planned.is_some()) && runs.iter().any(|r| r.planned.is_none()));

    for run in &runs {
        let bytes = encode(run);
        let back: PipelineReport = decode(&bytes).expect("run sample decodes");
        assert_eq!(format!("{back:?}"), format!("{run:?}"));
        assert_eq!(encode(&back), bytes);
    }
    for entry in &entries {
        let bytes = encode(entry);
        let back: StageEntry = decode(&bytes).expect("stage sample decodes");
        assert_eq!(format!("{back:?}"), format!("{entry:?}"));
        assert_eq!(encode(&back), bytes);
    }
    let back: Arc<[Tuple]> = decode(&encode_seq(&rel)).expect("relation decodes");
    assert_eq!(back[..], rel[..]);
}

#[test]
fn corrupt_payloads_fail_the_decode_cleanly() {
    let pipeline =
        Pipeline::new(vec![StageSpec::Filter { modulus: 10, remainder: 0 }, StageSpec::CountByKey]);
    let mut cfg = PipelineConfig::tiny(SystemKind::Mondrian);
    cfg.tuples_per_vault = 8;
    let bytes = encode(&pipeline.run(&cfg));
    assert!(decode::<PipelineReport>(&bytes).is_some());
    // Every strict prefix is short somewhere; trailing bytes are garbage.
    for end in 0..bytes.len() {
        assert!(decode::<PipelineReport>(&bytes[..end]).is_none(), "prefix of {end} bytes");
    }
    assert!(decode::<PipelineReport>(&[&bytes[..], &[0]].concat()).is_none());
    // A flipped byte may still decode (a flipped count is a valid count),
    // but it never panics.
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0xff;
        let _ = decode::<PipelineReport>(&flipped);
    }
    // The stage count follows the system tag and `source_rows`: a huge
    // length prefix fails the bound check instead of reserving memory.
    let mut huge = bytes.clone();
    huge[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode::<PipelineReport>(&huge).is_none());
    assert!(decode::<Vec<Tuple>>(&u64::MAX.to_le_bytes()).is_none());
    assert!(decode::<String>(&u64::MAX.to_le_bytes()).is_none());
}
