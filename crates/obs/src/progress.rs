//! The progress hook surface: a [`ProgressSink`] receives structured
//! execution events as a campaign runs — the event stream behind the
//! CLI's `--progress jsonl` and any future daemon frontend.
//!
//! Emission order is deterministic *within* one run (stages in serial
//! reference order, waves in schedule order); events from different runs
//! interleave freely under parallel execution. The hard determinism
//! contract covers artifacts and traces, never the live event stream.

use mondrian_sim::Time;

/// One structured execution event.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A stage entered the serial reference pass.
    StageStarted {
        /// Stage index in plan order.
        stage: usize,
        /// Stage name (`"filter"`, `"cogroup"`, ...).
        op: String,
    },
    /// A stage finished its serial reference pass.
    StageFinished {
        /// Stage index in plan order.
        stage: usize,
        /// Stage name.
        op: String,
        /// Rows the stage produced (after projection).
        output_rows: usize,
        /// The stage's simulated runtime.
        runtime_ps: Time,
    },
    /// A wave of the run's schedule, emitted in wave order once the
    /// schedule is assembled, in every concurrency mode.
    WaveCompleted {
        /// Wave index (topological level).
        wave: usize,
        /// Whether the wave charged the concurrent schedule.
        concurrent: bool,
        /// The wave's charged simulated time, as the artifact records it.
        runtime_ps: Time,
    },
    /// One sweep point of a campaign finished (fired in manifest order).
    SweepPointDone {
        /// End-to-end makespan of the run.
        makespan_ps: Time,
        /// Whether every stage verified.
        verified: bool,
        /// Whether the run was served from the full-run memo.
        memoized: bool,
    },
}

impl ProgressEvent {
    /// Renders the event as one JSON line (no trailing newline), tagged
    /// with the run label it belongs to.
    pub fn to_jsonl(&self, run: &str) -> String {
        let run = crate::escape_json(run);
        match self {
            ProgressEvent::StageStarted { stage, op } => format!(
                "{{\"event\":\"stage_started\",\"run\":\"{run}\",\"stage\":{stage},\
                 \"op\":\"{}\"}}",
                crate::escape_json(op)
            ),
            ProgressEvent::StageFinished { stage, op, output_rows, runtime_ps } => format!(
                "{{\"event\":\"stage_finished\",\"run\":\"{run}\",\"stage\":{stage},\
                 \"op\":\"{}\",\"output_rows\":{output_rows},\"runtime_ps\":{runtime_ps}}}",
                crate::escape_json(op)
            ),
            ProgressEvent::WaveCompleted { wave, concurrent, runtime_ps } => format!(
                "{{\"event\":\"wave_completed\",\"run\":\"{run}\",\"wave\":{wave},\
                 \"concurrent\":{concurrent},\"runtime_ps\":{runtime_ps}}}"
            ),
            ProgressEvent::SweepPointDone { makespan_ps, verified, memoized } => format!(
                "{{\"event\":\"sweep_point_done\",\"run\":\"{run}\",\
                 \"makespan_ps\":{makespan_ps},\"verified\":{verified},\
                 \"memoized\":{memoized}}}"
            ),
        }
    }
}

/// Receives [`ProgressEvent`]s as a campaign executes. Implementations
/// must be `Sync`: campaign workers emit from their own threads.
pub trait ProgressSink: Sync {
    /// Handles one event from the run labeled `run`.
    fn emit(&self, run: &str, event: &ProgressEvent);
}

/// The null sink: events are dropped.
impl ProgressSink for () {
    fn emit(&self, _run: &str, _event: &ProgressEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_lines() {
        let ev = ProgressEvent::StageFinished {
            stage: 2,
            op: "group_by_key".into(),
            output_rows: 41,
            runtime_ps: 1500,
        };
        let line = ev.to_jsonl("cpu s1");
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"event\":\"stage_finished\",\"run\":\"cpu s1\",\"stage\":2,\
             \"op\":\"group_by_key\",\"output_rows\":41,\"runtime_ps\":1500}"
        );
        let done =
            ProgressEvent::SweepPointDone { makespan_ps: 9, verified: true, memoized: false };
        assert!(done.to_jsonl("r\"x").contains("\\\"x"));
    }

    #[test]
    fn unit_sink_is_a_null_sink() {
        ().emit("run", &ProgressEvent::StageStarted { stage: 0, op: "scan".into() });
    }
}
