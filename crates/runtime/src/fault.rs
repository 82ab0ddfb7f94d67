//! Deterministic fault injection (the chaos harness) and the typed
//! failure report workers send to a supervisor.
//!
//! A [`FaultPlan`] is a finite list of [`FaultPoint`]s, each keyed by the
//! *logical* position where it fires — stage name, subtask index, and a
//! per-subtask batch (or send / checkpoint) ordinal — never by wall-clock
//! time. Two runs over the same input with the same plan therefore fault
//! at exactly the same record boundary, which is what lets the chaos
//! equivalence suite compare a self-healed run against an uninterrupted
//! one. Every point is one-shot: it fires at most once per plan *instance*
//! (an `AtomicBool` latch), so a pipeline relaunched around the same
//! `Arc<FaultPlan>` does not re-trigger the fault it just recovered from.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What happens when a fault point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the subtask worker (supervised workers report and exit;
    /// unsupervised ones propagate to the driver as before).
    Panic,
    /// Stall the worker for this many milliseconds, then continue —
    /// exercises backpressure and barrier alignment under a slow stage.
    Stall(u64),
    /// Delay one outbound exchange send by this many milliseconds.
    DelaySend(u64),
    /// Silently drop one outbound exchange batch. **Loses data by
    /// design** — used to test detection, never equivalence.
    DropSend,
    /// Fail the next matching checkpoint capture/write.
    CheckpointFail,
    /// Torn-write the next matching checkpoint (the file is truncated
    /// mid-payload, as if the process died during the write).
    CheckpointTorn,
}

/// One armed fault: fires when execution reaches the keyed position.
#[derive(Debug)]
pub struct FaultPoint {
    /// Stage name the fault targets (e.g. `"grid-query"`); ignored for
    /// checkpoint faults.
    pub stage: String,
    /// Subtask index within the stage; ignored for checkpoint faults.
    pub subtask: usize,
    /// Per-subtask ordinal: the n-th batch processed (worker faults), the
    /// n-th batch sent (send faults), or the checkpoint sequence number
    /// (checkpoint faults). Zero-based except checkpoint seqs, which use
    /// the pipeline's own numbering.
    pub ordinal: u64,
    /// What to do there.
    pub kind: FaultKind,
    fired: AtomicBool,
}

impl FaultPoint {
    fn fire_once(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }

    /// Whether this point has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

/// A deterministic set of fault points, shared (via `Arc`) by every worker
/// of every generation of a pipeline.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault point (builder style).
    pub fn point(
        mut self,
        stage: impl Into<String>,
        subtask: usize,
        ordinal: u64,
        kind: FaultKind,
    ) -> FaultPlan {
        self.points.push(FaultPoint {
            stage: stage.into(),
            subtask,
            ordinal,
            kind,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Wraps the plan for sharing across workers and generations.
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(self)
    }

    /// The armed points (for reporting / assertions).
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }

    /// True when every point has fired.
    pub fn exhausted(&self) -> bool {
        self.points.iter().all(FaultPoint::fired)
    }

    /// Consulted by a worker before processing its `batch`-th input batch.
    /// Returns a [`FaultKind::Panic`] or [`FaultKind::Stall`] to apply,
    /// firing the point.
    pub fn worker_fault(&self, stage: &str, subtask: usize, batch: u64) -> Option<FaultKind> {
        self.match_fire(stage, subtask, batch, |k| {
            matches!(k, FaultKind::Panic | FaultKind::Stall(_))
        })
    }

    /// Consulted by an exchange router before its `send`-th outbound batch
    /// from (`stage`, `subtask`). Returns a [`FaultKind::DelaySend`] or
    /// [`FaultKind::DropSend`] to apply, firing the point.
    pub fn send_fault(&self, stage: &str, subtask: usize, send: u64) -> Option<FaultKind> {
        self.match_fire(stage, subtask, send, |k| {
            matches!(k, FaultKind::DelaySend(_) | FaultKind::DropSend)
        })
    }

    /// Consulted before capturing/writing checkpoint `seq`. Returns a
    /// [`FaultKind::CheckpointFail`] or [`FaultKind::CheckpointTorn`] to
    /// apply, firing the point. Stage and subtask keys are ignored here —
    /// a checkpoint is a whole-pipeline cut.
    pub fn checkpoint_fault(&self, seq: u64) -> Option<FaultKind> {
        for p in &self.points {
            let matches_kind = matches!(
                p.kind,
                FaultKind::CheckpointFail | FaultKind::CheckpointTorn
            );
            if matches_kind && p.ordinal == seq && p.fire_once() {
                return Some(p.kind);
            }
        }
        None
    }

    fn match_fire(
        &self,
        stage: &str,
        subtask: usize,
        ordinal: u64,
        want: impl Fn(FaultKind) -> bool,
    ) -> Option<FaultKind> {
        for p in &self.points {
            if want(p.kind)
                && p.stage == stage
                && p.subtask == subtask
                && p.ordinal == ordinal
                && p.fire_once()
            {
                return Some(p.kind);
            }
        }
        None
    }

    /// Parses a compact fault spec, for wiring plans through environment
    /// variables (CI smoke jobs): a `;`-separated list of points, each
    ///
    /// ```text
    /// panic@STAGE:SUBTASK:BATCH
    /// stall@STAGE:SUBTASK:BATCH:MILLIS
    /// delay@STAGE:SUBTASK:SEND:MILLIS
    /// drop@STAGE:SUBTASK:SEND
    /// ckptfail@SEQ
    /// ckpttorn@SEQ
    /// ```
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault spec `{part}`: missing `@`"))?;
            let fields: Vec<&str> = rest.split(':').collect();
            let num = |s: &str| -> Result<u64, String> {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("fault spec `{part}`: {e}"))
            };
            plan = match (kind.trim(), fields.as_slice()) {
                ("panic", [stage, sub, batch]) => {
                    plan.point(*stage, num(sub)? as usize, num(batch)?, FaultKind::Panic)
                }
                ("stall", [stage, sub, batch, ms]) => plan.point(
                    *stage,
                    num(sub)? as usize,
                    num(batch)?,
                    FaultKind::Stall(num(ms)?),
                ),
                ("delay", [stage, sub, send, ms]) => plan.point(
                    *stage,
                    num(sub)? as usize,
                    num(send)?,
                    FaultKind::DelaySend(num(ms)?),
                ),
                ("drop", [stage, sub, send]) => {
                    plan.point(*stage, num(sub)? as usize, num(send)?, FaultKind::DropSend)
                }
                ("ckptfail", [seq]) => plan.point("", 0, num(seq)?, FaultKind::CheckpointFail),
                ("ckpttorn", [seq]) => plan.point("", 0, num(seq)?, FaultKind::CheckpointTorn),
                _ => return Err(format!("fault spec `{part}`: unknown form")),
            };
        }
        Ok(plan)
    }
}

/// A worker's typed report that it died: sent to the supervisor channel
/// instead of unwinding across the runtime when supervision is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailure {
    /// Stage name of the dead worker.
    pub stage: String,
    /// Subtask index of the dead worker.
    pub subtask: usize,
    /// Rendered panic payload (best effort).
    pub cause: String,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage `{}` subtask {} failed: {}",
            self.stage, self.subtask, self.cause
        )
    }
}

/// Renders a caught panic payload as a string (best effort).
pub fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_fire_exactly_once() {
        let plan = FaultPlan::new().point("grid-query", 1, 2, FaultKind::Panic);
        assert_eq!(plan.worker_fault("grid-query", 1, 1), None);
        assert_eq!(plan.worker_fault("grid-query", 0, 2), None);
        assert_eq!(plan.worker_fault("enumerate", 1, 2), None);
        assert_eq!(
            plan.worker_fault("grid-query", 1, 2),
            Some(FaultKind::Panic)
        );
        assert_eq!(
            plan.worker_fault("grid-query", 1, 2),
            None,
            "one-shot: the relaunched generation must not re-fault"
        );
        assert!(plan.exhausted());
    }

    #[test]
    fn kinds_route_to_their_hook() {
        let plan = FaultPlan::new()
            .point("a", 0, 0, FaultKind::Panic)
            .point("a", 0, 0, FaultKind::DropSend)
            .point("", 0, 3, FaultKind::CheckpointTorn);
        // The send hook must not consume the panic point and vice versa.
        assert_eq!(plan.send_fault("a", 0, 0), Some(FaultKind::DropSend));
        assert_eq!(plan.worker_fault("a", 0, 0), Some(FaultKind::Panic));
        assert_eq!(plan.checkpoint_fault(2), None);
        assert_eq!(plan.checkpoint_fault(3), Some(FaultKind::CheckpointTorn));
        assert_eq!(plan.checkpoint_fault(3), None);
    }

    #[test]
    fn spec_round_trip() {
        let plan = FaultPlan::from_spec("panic@grid-query:0:2; stall@enumerate:1:0:50;ckptfail@4")
            .unwrap();
        assert_eq!(plan.points().len(), 3);
        assert_eq!(
            plan.worker_fault("grid-query", 0, 2),
            Some(FaultKind::Panic)
        );
        assert_eq!(
            plan.worker_fault("enumerate", 1, 0),
            Some(FaultKind::Stall(50))
        );
        assert_eq!(plan.checkpoint_fault(4), Some(FaultKind::CheckpointFail));
        assert!(FaultPlan::from_spec("boom@x").is_err());
        assert!(FaultPlan::from_spec("panic@x:y:z").is_err());
    }

    #[test]
    fn panic_cause_renders_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_cause(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_cause(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(panic_cause(s.as_ref()), "panic (non-string payload)");
    }
}
