//! Turning recorded telemetry into a diagnosis (the `bamboo-doctor`
//! analysis layer).
//!
//! The recording half of this crate answers *what happened*; this
//! module answers *why it was slow*. The pipeline, one submodule per
//! stage:
//!
//! 1. [`graph`] — fold the flat event stream back into the causal
//!    invocation DAG ([`ObservedGraph`]): who enabled whom, through
//!    which message, with steal attribution preserved.
//! 2. [`ledger`] — a per-core time-breakdown [`Ledger`] (compute /
//!    lock-wait / queue-wait / steal / routing / idle) built as a
//!    constructive partition of the session span, so the buckets sum
//!    to wall time *exactly*.
//! 3. [`path`] — the observed critical path ([`ObservedPath`]),
//!    computed by converting the observed graph into the scheduler's
//!    trace shape and reusing `bamboo_schedule::critpath` unchanged
//!    (paper §4.5.1, applied to a real execution).
//! 4. [`divergence`] — ranked [`Finding`]s: local pathologies (lock
//!    contention, steal storms, load imbalance, wait-dominated paths)
//!    and predicted-vs-observed divergence against the virtual
//!    executor's trace (rate-matching violations, task-weight drift).
//! 5. [`gate`] — the CI regression gate: fresh observations and their
//!    same-process references in (no recorded file), pass/fail
//!    [`gate::Verdict`] out.
//!
//! [`diagnose`] runs stages 1–4 in one call; the `bamboo-doctor` CLI in
//! the bench crate is a thin shell around it.

pub mod divergence;
pub mod estimate;
pub mod findings;
pub mod gate;
pub mod graph;
pub mod ledger;
pub mod path;
pub mod scope;
pub mod serving;
#[cfg(test)]
pub(crate) mod testutil;

pub use estimate::{profile_fingerprint, rate_divergence, LiveEstimator};
pub use findings::{Evidence, Finding, Severity};
pub use graph::{ObsEdge, ObsInvocation, ObservedGraph};
pub use ledger::{CoreLedger, Ledger};
pub use path::{ObservedPath, PathStep};
pub use scope::{span_trees, SpanBreakdown, SpanTree};
pub use serving::{LatencyHistogram, RequestTimeline, ServingStats};

use crate::report::TelemetryReport;
use bamboo_lang::spec::ProgramSpec;
use bamboo_schedule::trace::ExecutionTrace;
use std::fmt::Write as _;

/// The complete analysis of one recorded execution.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The reconstructed causal graph.
    pub graph: ObservedGraph,
    /// Per-core time breakdown over the session span.
    pub ledger: Ledger,
    /// The observed critical path (`None` when the report carries no
    /// causal linkage, e.g. a virtual-executor cycle trace).
    pub path: Option<ObservedPath>,
    /// Ranked findings, most severe first.
    pub findings: Vec<Finding>,
}

/// Runs the full analysis pipeline over a recorded report. When
/// `predicted` is given (the virtual executor's [`ExecutionTrace`] over
/// the same deployment), predicted-vs-observed divergence findings are
/// included.
pub fn diagnose(report: &TelemetryReport, predicted: Option<&ExecutionTrace>) -> Diagnosis {
    let graph = ObservedGraph::from_report(report);
    let ledger = Ledger::from_report(report);
    let path = (!graph.invocations.is_empty()).then(|| ObservedPath::from_graph(&graph));
    let mut all = divergence::local_findings(&graph, &ledger, path.as_ref());
    if let Some(predicted) = predicted {
        all.extend(divergence::predicted_vs_observed(&graph, predicted));
    }
    // Chaos runs carry fault/recover events; attribute slowdown to the
    // injected faults by name before ranking.
    all.extend(divergence::fault_findings(report));
    // Serving runs carry request lifecycle events; attribute the tail
    // cohort's latency to its dominant span component.
    all.extend(scope::latency_attribution(report));
    findings::rank(&mut all);
    Diagnosis {
        graph,
        ledger,
        path,
        findings: all,
    }
}

impl Diagnosis {
    /// Human-readable report: reconstruction stats, the per-core time
    /// ledger, the critical path (task names resolved through `spec`
    /// when given), and the ranked findings table.
    pub fn summary(&self, spec: Option<&ProgramSpec>) -> String {
        let mut out = format!(
            "bamboo-doctor: {} invocations reconstructed ({} incomplete, {} stolen)\n\n",
            self.graph.invocations.len(),
            self.graph.incomplete,
            self.graph.stolen().count(),
        );
        out.push_str(&self.ledger.table());
        out.push('\n');
        match &self.path {
            Some(path) => out.push_str(&path.table(spec)),
            None => out.push_str("no causal linkage recorded; critical path unavailable\n"),
        }
        out.push('\n');
        out.push_str(&findings::render_table(&self.findings));
        out
    }

    /// Machine-readable verdict of the whole diagnosis as one JSON
    /// document (ledger, path, findings).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"invocations\":{},\"incomplete\":{},\"stolen\":{},",
            self.graph.invocations.len(),
            self.graph.incomplete,
            self.graph.stolen().count()
        );
        out.push_str("\"ledger\":");
        out.push_str(&self.ledger.json());
        out.push_str(",\"critical_path\":");
        match &self.path {
            Some(path) => out.push_str(&path.json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"findings\":");
        out.push_str(&findings::findings_json(&self.findings));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn diagnose_runs_the_full_pipeline() {
        let report = testutil::two_core_report();
        let diagnosis = diagnose(&report, None);
        assert_eq!(diagnosis.graph.invocations.len(), 4);
        let path = diagnosis.path.as_ref().expect("causal linkage present");
        assert_eq!(path.makespan, 9_000);
        assert!(
            !diagnosis.findings.is_empty(),
            "at least one ranked finding"
        );
        // Severities are ranked, most severe first.
        for pair in diagnosis.findings.windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
    }

    #[test]
    fn summary_renders_every_section() {
        let report = testutil::two_core_report();
        let diagnosis = diagnose(&report, None);
        let text = diagnosis.summary(None);
        assert!(text.contains("bamboo-doctor: 4 invocations"), "{text}");
        assert!(text.contains("per-core time breakdown"), "{text}");
        assert!(text.contains("observed critical path"), "{text}");
        assert!(text.contains("findings"), "{text}");
    }

    #[test]
    fn json_verdict_parses_back() {
        let report = testutil::two_core_report();
        let diagnosis = diagnose(&report, None);
        let doc = json::parse(&diagnosis.json()).unwrap();
        assert_eq!(doc.get("invocations").unwrap().as_f64(), Some(4.0));
        assert_eq!(doc.get("stolen").unwrap().as_f64(), Some(1.0));
        assert!(doc.get("ledger").unwrap().get("span").is_some());
        assert!(doc.get("critical_path").unwrap().get("makespan").is_some());
        assert!(doc.get("findings").unwrap().as_arr().is_some());
    }

    #[test]
    fn empty_report_diagnoses_to_nothing() {
        let diagnosis = diagnose(&TelemetryReport::empty(), None);
        assert!(diagnosis.graph.invocations.is_empty());
        assert!(diagnosis.path.is_none());
        let doc = json::parse(&diagnosis.json()).unwrap();
        assert_eq!(doc.get("critical_path"), Some(&json::Value::Null));
    }
}
