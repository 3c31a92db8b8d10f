//! Turning recorded telemetry into a diagnosis (the `bamboo-doctor`
//! analysis layer).
//!
//! The recording half of this crate answers *what happened*; this
//! module answers *why it was slow*. Only two functions read the event
//! stream, each in one pass; every other stage is a view over them:
//!
//! 1. [`graph`] — the fold ([`ObservedGraph::from_report`]): the causal
//!    invocation DAG (who enabled whom, through which message, with
//!    steal attribution and each invocation's first lock failure), one
//!    row per serving request, and the injected faults and recoveries.
//! 2. [`ledger`] — the per-core walk ([`Ledger::from_report`]): a
//!    time breakdown (compute / lock-wait / queue-wait / steal /
//!    routing / idle) built as a constructive partition of the covered
//!    window, so the buckets sum to wall time *exactly*, plus per-core
//!    task, retry, traffic, queue and steal counts.
//! 3. [`path`] — the observed critical path ([`ObservedPath`]),
//!    computed by converting the fold's graph into the scheduler's
//!    trace shape and reusing `bamboo_schedule::critpath` unchanged
//!    (paper §4.5.1, applied to a real execution).
//! 4. [`scope`] — per-request span trees with an exact latency
//!    partition, and the tail cohort's latency attribution.
//! 5. [`divergence`] — ranked [`Finding`]s: local pathologies (lock
//!    contention, steal storms, load imbalance, wait-dominated paths),
//!    injected faults, and predicted-vs-observed divergence against the
//!    virtual executor's trace (rate-matching violations, task-weight
//!    drift).
//!
//! [`diagnose`] builds the fold and the ledger once and runs stages
//! 3–5 over them; the `bamboo-doctor` CLI in the bench crate is a thin
//! shell around it. The doctor diagnoses; it does not gate. What the
//! repository promises is asserted by its cargo tests.

pub mod divergence;
pub mod estimate;
pub mod findings;
pub mod graph;
pub mod ledger;
pub mod path;
pub mod scope;
pub mod serving;
#[cfg(test)]
pub(crate) mod testutil;

pub use estimate::{profile_fingerprint, rate_divergence, LiveEstimator};
pub use findings::{Evidence, Finding, Severity};
pub use graph::{ObsEdge, ObsInvocation, ObsRequest, ObservedGraph};
pub use ledger::{CoreLedger, Ledger};
pub use path::{ObservedPath, PathStep};
pub use scope::{span_trees, SpanBreakdown, SpanTree};
pub use serving::LatencyHistogram;

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
    all.extend(divergence::fault_findings(&graph));
    // Serving runs carry request lifecycle events; attribute the tail
    // cohort's latency to its dominant span component.
    all.extend(scope::latency_attribution(&graph));
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

    /// The analyzers' text outputs over a report that reaches every
    /// view, byte for byte: the reconstruction header, the critical
    /// path and findings sections of the summary, every span tree, and
    /// the latency-attribution finding.
    #[test]
    fn analyzer_outputs_are_pinned() {
        let report = testutil::serving_report();
        let diagnosis = diagnose(&report, None);
        let summary = diagnosis.summary(None);
        let header = summary.lines().next().unwrap();
        let path_at = summary.find("observed critical path").unwrap();
        let trees: String = span_trees(&report, &[1, 2, 3])
            .iter()
            .map(|t| t.render("ns"))
            .collect();
        let attribution = diagnosis
            .findings
            .iter()
            .find(|f| f.rule == "latency-attribution")
            .unwrap();
        assert_eq!(header, PINNED_HEADER);
        assert_eq!(&summary[path_at..], PINNED_PATH_AND_FINDINGS);
        assert_eq!(trees, PINNED_SPAN_TREES);
        assert_eq!(format!("{attribution:?}"), PINNED_ATTRIBUTION);
    }

    const PINNED_HEADER: &str =
        "bamboo-doctor: 4 invocations reconstructed (0 incomplete, 1 stolen)";
    const PINNED_PATH_AND_FINDINGS: &str = concat!(
        "observed critical path: 2 steps, makespan 3000, compute 2090 (69.7%), wait 910, 2 resource-delayed\n",
        "   # task             inv  core        start          end   queue-wait\n",
        "   0 task0               3     1          750         1050          100  (stolen)\n",
        "   1 task1               4     0         1210         3000          130\n",
        "\n",
        "findings (5):\n",
        "  1. [WARN] lock-contention          3 failed try-lock-all attempts across 4 invocations (0.75/invocation)\n",
        "       - task 1 invocation 2: 2 retries [core 1, 1100..1450]\n",
        "       - task 1 invocation 4: 1 retries [core 0, 1080..1210]\n",
        "  2. [INFO] critical-path            critical path covers 2 of 4 invocations; compute is 69.7% of makespan 3000\n",
        "       - longest path step: task 1 (invocation 4) [core 0, 1210..3000]\n",
        "       - path compute 2090 vs wait 910 (2 resource-delayed steps)\n",
        "  3. [INFO] latency-attribution      tail cohort (1 requests >= p99) is dominated by compute: 80.4% of end-to-end latency\n",
        "       - compute 80.4% | lock-wait 4.6% | queue-wait 4.2% | routing 1.2% | idle 9.6%\n",
        "       - slowest sampled request 2 (2600 end-to-end, 2 invocations) [600..3200]\n",
        "  4. [INFO] injected-message-drops   1 message(s) were dropped by the fault plan (2 simulated retransmission(s), 1 redelivered with backoff)\n",
        "       - worst message 101 needed 2 attempt(s) [core 0, 950..950]\n",
        "  5. [INFO] steal-storm              1 of 4 invocations were work-stolen (25%) — the planned layout underfeeds some cores\n",
        "       - invocation 3 of task 0 stolen from core 0 [core 1, 650..750]\n",
    );
    const PINNED_SPAN_TREES: &str = concat!(
        "request 1: 2400ns admit->complete (2 invocations)\n",
        "  compute 1550ns | lock-wait 300ns | queue-wait 150ns | routing 100ns | idle 300ns\n",
        "  - inv 1 task 0 core 0: queued +100ns start +200ns end +800ns\n",
        "    - inv 2 task 1 core 1: queued +900ns start +1250ns end +2200ns (retries 2)\n",
        "request 2: 2600ns admit->complete (2 invocations)\n",
        "  compute 2090ns | lock-wait 120ns | queue-wait 110ns | routing 30ns | idle 250ns\n",
        "  - inv 3 task 0 core 1: queued +50ns start +150ns end +450ns (stolen from core 0)\n",
        "    - inv 4 task 1 core 0: queued +480ns start +610ns end +2400ns (retries 1)\n",
    );
    const PINNED_ATTRIBUTION: &str = "Finding { rule: \"latency-attribution\", severity: Info, score: 80.38461538461539, message: \"tail cohort (1 requests >= p99) is dominated by compute: 80.4% of end-to-end latency\", evidence: [Evidence { detail: \"compute 80.4% | lock-wait 4.6% | queue-wait 4.2% | routing 1.2% | idle 9.6%\", span: None, core: None }, Evidence { detail: \"slowest sampled request 2 (2600 end-to-end, 2 invocations)\", span: Some((600, 3200)), core: None }] }";

    #[test]
    fn empty_report_diagnoses_to_nothing() {
        let diagnosis = diagnose(&TelemetryReport::empty(), None);
        assert!(diagnosis.graph.invocations.is_empty());
        assert!(diagnosis.path.is_none());
        let doc = json::parse(&diagnosis.json()).unwrap();
        assert_eq!(doc.get("critical_path"), Some(&json::Value::Null));
    }
}
