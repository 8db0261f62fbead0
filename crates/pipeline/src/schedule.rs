//! Branch-wave scheduling of pipeline DAGs onto machine leases.
//!
//! A pipeline's stages form a DAG: every stage depends on the stage that
//! produces its input relation, and join stages additionally depend on
//! their build side. The scheduler decomposes the DAG into **branches**
//! (maximal single-successor chains) and groups the branches into
//! topological **waves**: every branch in a wave has all of its external
//! dependencies satisfied by earlier waves, so the branches of one wave
//! are mutually independent and can execute concurrently on disjoint
//! vault partitions of the same machine ([`mondrian_core::PartitionSpec`]).
//!
//! The concurrent executor in [`crate::Pipeline::run`] always keeps the
//! serial schedule as its reference: every partitioned stage's output is
//! verified byte-identical to the serial run, and a wave only charges the
//! concurrent makespan when it actually beats executing its stages back
//! to back (otherwise it falls back to the serial schedule, so a branch
//! run is never reported slower than a serial one).

use crate::stage::{BuildSide, Stage, StageInput, StageSpec};

/// How the executor schedules a pipeline's stages onto the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// One stage at a time over all vaults — the reference executor.
    #[default]
    Serial,
    /// Independent DAG branches run concurrently on disjoint vault
    /// partitions, verified against (and never slower than) the serial
    /// schedule.
    Branch,
    /// Branch scheduling plus intra-stage pipelining: eligible
    /// producer→consumer edges ([`Dag::fused_pairs`]) stream the
    /// producer's output through a bounded chunk channel into the
    /// consumer's partition phase, overlapping the two instead of
    /// materializing at a wave barrier. Every streamed stage is verified
    /// byte-identical to the serial reference, and a per-pair fallback
    /// keeps the schedule never slower than the branch one.
    Stream,
    /// Cost-model-driven planning ([`crate::plan`]): the planner predicts
    /// per-stage makespans from `OpProfile` cost hints, the serial pass's
    /// cardinalities and the system's timing parameters, then picks the
    /// vault-lease split per wave and the chunk count per fused edge. The
    /// executor runs the default stream schedule *and* the planned one and
    /// charges whichever is faster, so `auto` is never slower than the
    /// best of serial/branch/stream while staying byte-identical to the
    /// serial reference.
    Auto,
}

impl Concurrency {
    /// The manifest spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Concurrency::Serial => "serial",
            Concurrency::Branch => "branch",
            Concurrency::Stream => "stream",
            Concurrency::Auto => "auto",
        }
    }

    /// The mode spelled `name` (the inverse of [`Concurrency::name`]), or
    /// `None` for an unknown spelling.
    pub fn from_name(name: &str) -> Option<Concurrency> {
        [Concurrency::Serial, Concurrency::Branch, Concurrency::Stream, Concurrency::Auto]
            .into_iter()
            .find(|c| c.name() == name)
    }
}

/// The stage a pipeline input edge reads, if any (`Source` edges read
/// the pipeline's source relation).
fn edge_target(input: StageInput, stage: usize) -> Option<usize> {
    match input {
        StageInput::Prev => stage.checked_sub(1),
        StageInput::Source => None,
        StageInput::Stage(j) => Some(j),
    }
}

/// The scheduled shape of a pipeline: dependencies, branch decomposition
/// and topological waves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    /// Per stage: the earlier stages it reads (input and build edges),
    /// ascending and deduplicated.
    pub deps: Vec<Vec<usize>>,
    /// Per stage: the branch it belongs to.
    pub branch_of: Vec<usize>,
    /// Per branch: its stages in execution order.
    pub branches: Vec<Vec<usize>>,
    /// Per wave: the branches it runs, all mutually independent.
    pub waves: Vec<Vec<usize>>,
}

impl Dag {
    /// Builds the schedule shape for a validated stage list.
    pub fn build(stages: &[Stage]) -> Dag {
        let n = stages.len();
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (i, stage) in stages.iter().enumerate() {
            let mut d = Vec::new();
            // Every input edge contributes a dependency — multi-input
            // stages (union, cogroup) depend on all of their feeders.
            for &input in &stage.inputs {
                if let Some(j) = edge_target(input, i) {
                    d.push(j);
                }
            }
            if let StageSpec::Join { build: BuildSide::Stage(j) } = stage.spec {
                d.push(j);
            }
            d.sort_unstable();
            d.dedup();
            deps.push(d);
        }

        // Branch decomposition: a stage continues its sole dependency's
        // branch if it is the first stage to do so; everything else —
        // source readers, multi-input stages, second consumers of a shared
        // stage — opens a new branch.
        let mut branch_of: Vec<usize> = Vec::with_capacity(n);
        let mut branches: Vec<Vec<usize>> = Vec::new();
        let mut extended = vec![false; n];
        for (i, d) in deps.iter().enumerate() {
            match d.as_slice() {
                [d] if !extended[*d] => {
                    extended[*d] = true;
                    let b = branch_of[*d];
                    branch_of.push(b);
                    branches[b].push(i);
                }
                _ => {
                    branch_of.push(branches.len());
                    branches.push(vec![i]);
                }
            }
        }

        // Topological levels over branches. Branch ids are assigned in
        // stage order, so every cross-branch dependency points at a lower
        // branch id and one ascending pass suffices.
        let mut level = vec![0usize; branches.len()];
        for i in 0..n {
            let b = branch_of[i];
            for &d in &deps[i] {
                let db = branch_of[d];
                if db != b {
                    level[b] = level[b].max(level[db] + 1);
                }
            }
        }
        let wave_count = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
        for (b, &l) in level.iter().enumerate() {
            waves[l].push(b);
        }
        Dag { deps, branch_of, branches, waves }
    }

    /// The wave a stage executes in.
    pub fn wave_of(&self, stage: usize) -> usize {
        let b = self.branch_of[stage];
        self.waves.iter().position(|w| w.contains(&b)).expect("every branch is scheduled")
    }

    /// Producer→consumer edges eligible for intra-stage pipelining
    /// ([`Concurrency::Stream`]), in consumer order. An edge fuses when:
    ///
    /// * the producer's operator streams its output phase (the scan
    ///   family: scan, union, flat_map — `OpProfile::streams_output`),
    /// * the consumer's partition phase streams its primary input (the
    ///   partition-phase family: sort, group-by, join, cogroup —
    ///   `OpProfile::streams_input`),
    /// * the consumer is the producer's **only** reader (any second
    ///   reader — input edge or join build side — needs the materialized
    ///   relation at the wave barrier), and
    /// * the consumer reads the producer through its **primary** (first)
    ///   input edge — the side the engine chunks: a join's probe side, a
    ///   cogroup's side A.
    ///
    /// The operator typing makes pairs disjoint by construction: no
    /// operator both streams its output and its input, so a stage can
    /// appear in at most one pair on each side.
    pub fn fused_pairs(&self, stages: &[Stage]) -> Vec<(usize, usize)> {
        // Readers of each stage: every input edge plus join build
        // references, duplicates kept (a double reader disqualifies).
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); stages.len()];
        for (i, stage) in stages.iter().enumerate() {
            for &input in &stage.inputs {
                if let Some(j) = edge_target(input, i) {
                    readers[j].push(i);
                }
            }
            if let StageSpec::Join { build: BuildSide::Stage(j) } = stage.spec {
                readers[j].push(i);
            }
        }
        let mut pairs = Vec::new();
        for (c, stage) in stages.iter().enumerate() {
            let Some(p) = stage.inputs.first().and_then(|&edge| edge_target(edge, c)) else {
                continue;
            };
            let producer = mondrian_ops::operator(stages[p].basic_operator()).profile();
            let consumer = mondrian_ops::operator(stage.basic_operator()).profile();
            if producer.streams_output && consumer.streams_input && readers[p] == [c] {
                pairs.push((p, c));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_names_round_trip() {
        for mode in
            [Concurrency::Serial, Concurrency::Branch, Concurrency::Stream, Concurrency::Auto]
        {
            assert_eq!(Concurrency::from_name(mode.name()), Some(mode));
        }
        for unknown in ["warp", "", "Serial", "auto "] {
            assert_eq!(Concurrency::from_name(unknown), None, "{unknown:?}");
        }
    }

    fn two_branch_join() -> Vec<Stage> {
        vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Join { build: BuildSide::Stage(3) }, StageInput::Stage(1)),
        ]
    }

    #[test]
    fn chain_is_one_branch_per_wave() {
        let stages = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::ReduceByKey),
            Stage::chained(StageSpec::SortByKey),
        ];
        let dag = Dag::build(&stages);
        assert_eq!(dag.branches, vec![vec![0, 1, 2]]);
        assert_eq!(dag.waves, vec![vec![0]]);
        assert_eq!(dag.deps[2], vec![1]);
    }

    #[test]
    fn join_over_two_chains_makes_two_concurrent_branches() {
        let dag = Dag::build(&two_branch_join());
        assert_eq!(dag.branches, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(dag.waves, vec![vec![0, 1], vec![2]], "two independent chains, then the join");
        assert_eq!(dag.deps[4], vec![1, 3]);
        assert_eq!(dag.wave_of(3), 0);
        assert_eq!(dag.wave_of(4), 1);
    }

    #[test]
    fn multi_input_stages_wait_for_all_feeders() {
        // Two source chains, then a union of both and a cogroup of both:
        // the multi-input stages depend on both feeders, open their own
        // branches, and (being mutually independent) share a wave.
        let stages = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::with_inputs(StageSpec::Union, vec![StageInput::Stage(0), StageInput::Stage(1)]),
            Stage::with_inputs(
                StageSpec::Cogroup,
                vec![StageInput::Stage(0), StageInput::Stage(1)],
            ),
        ];
        let dag = Dag::build(&stages);
        assert_eq!(dag.deps[2], vec![0, 1]);
        assert_eq!(dag.deps[3], vec![0, 1]);
        assert_eq!(dag.branches.len(), 4);
        assert_eq!(dag.waves, vec![vec![0, 1], vec![2, 3]], "union ∥ cogroup in one wave");
    }

    #[test]
    fn fused_pairs_follow_the_streamable_facts() {
        // filter → group_by → sort_by: the scan streams into the
        // group-by; the group-by (not a streaming producer) does not
        // stream into the sort.
        let chain = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::chained(StageSpec::SortByKey),
        ];
        let dag = Dag::build(&chain);
        assert_eq!(dag.fused_pairs(&chain), vec![(0, 1)]);

        // flat_map → cogroup fuses through the cogroup's primary edge
        // even though the pair crosses a branch boundary.
        let cg = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::FlatMap { fanout: 2 }),
            Stage::with_input(StageSpec::Filter { modulus: 3, remainder: 1 }, StageInput::Source),
            Stage::with_inputs(
                StageSpec::Cogroup,
                vec![StageInput::Stage(1), StageInput::Stage(2)],
            ),
        ];
        let dag = Dag::build(&cg);
        assert_eq!(dag.fused_pairs(&cg), vec![(1, 3)], "cogroup streams its primary edge only");
        assert!(dag.branch_of[1] != dag.branch_of[3], "the pair crosses branches");

        // A second reader of the producer (here: the join's build side)
        // disqualifies the pair, and so does reading the producer through
        // a non-primary edge.
        let shared = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::Map { key_mul: 1, key_add: 1 }, StageInput::Source),
            Stage::with_inputs(
                StageSpec::Join { build: BuildSide::Stage(2) },
                vec![StageInput::Stage(2)],
            ),
        ];
        let dag = Dag::build(&shared);
        assert_eq!(dag.fused_pairs(&shared), vec![(0, 1)], "stage 2 is read twice by stage 3");
    }

    #[test]
    fn shared_stage_consumers_fork_branches() {
        // Stage 1 and 2 both read stage 0: 1 continues the branch, 2 forks.
        let stages = vec![
            Stage::chained(StageSpec::Filter { modulus: 10, remainder: 0 }),
            Stage::chained(StageSpec::GroupByKey),
            Stage::with_input(StageSpec::SortByKey, StageInput::Stage(0)),
        ];
        let dag = Dag::build(&stages);
        assert_eq!(dag.branches.len(), 2);
        assert_eq!(dag.branch_of, vec![0, 0, 1]);
        // The fork depends on branch 0's stage 0, which shares a branch
        // with stage 1 — so it must wait for wave 1.
        assert_eq!(dag.waves[0], vec![0]);
        assert_eq!(dag.waves[1], vec![1]);
    }
}
