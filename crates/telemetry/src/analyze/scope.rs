//! Per-request span trees: the causal path of one serving request with
//! an exact latency partition.
//!
//! The serving driver stamps `ReqAdmit`/`ReqComplete`, and every
//! invocation formed on a request's behalf carries the request id in
//! its `InvQueued` word (see [`crate::event::pack_inv_request`]). The
//! fold ([`ObservedGraph`]) pairs those, so each span tree is a view
//! over it: per request, the admit→complete span and the invocations
//! (with their queue/lock/dispatch windows and message deps) that
//! produced it — the request-scoped analogue of the per-core
//! [`Ledger`] partition.
//!
//! The partition is *constructive*: the admit→complete span is swept
//! over elementary segments, each attributed to the highest-priority
//! activity covering it (compute > lock-wait > queue-wait > routing),
//! and whatever no activity covers is idle. The five buckets therefore
//! sum to the end-to-end latency **exactly** — the invariant
//! `tests/scope.rs` pins.
//!
//! [`Ledger`]: crate::analyze::ledger::Ledger

use crate::analyze::findings::{Evidence, Finding, Severity};
use crate::analyze::graph::{ObsInvocation, ObservedGraph};
use crate::report::TelemetryReport;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Exact partition of one request's admit→complete span, in the
/// report's time base. `compute + lock_wait + queue_wait + routing +
/// idle == total` by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanBreakdown {
    /// End-to-end admit→complete latency.
    pub total: u64,
    /// Some invocation of the request was executing a task body.
    pub compute: u64,
    /// No body running, but an invocation was waiting out try-lock-all
    /// retries (first `LockFailed` → `TaskStart`).
    pub lock_wait: u64,
    /// No body running, an invocation sat formed in a run queue.
    pub queue_wait: u64,
    /// No invocation active, but an object of the request was in
    /// flight between cores (`ObjSend` → `ObjRecv`).
    pub routing: u64,
    /// Remainder: nothing attributable to this request was happening
    /// (e.g. the ledger refcount drained while the driver's completion
    /// poll lagged).
    pub idle: u64,
}

impl SpanBreakdown {
    /// Sum of the named components (equals [`SpanBreakdown::total`]).
    pub fn component_sum(&self) -> u64 {
        self.compute + self.lock_wait + self.queue_wait + self.routing + self.idle
    }

    /// The dominant *named* component — the latency-attribution verdict
    /// (idle is excluded from dominance; it is reported alongside).
    pub fn dominant(&self) -> (&'static str, u64) {
        let named = [
            ("compute", self.compute),
            ("lock-wait", self.lock_wait),
            ("queue-wait", self.queue_wait),
            ("routing", self.routing),
        ];
        named
            .into_iter()
            .max_by_key(|&(_, v)| v)
            .unwrap_or(("compute", 0))
    }
}

/// One request's reconstructed causal path with timing.
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// Request id.
    pub request: u64,
    /// `ReqArrive` timestamp, when recorded.
    pub arrived: Option<u64>,
    /// `ReqAdmit` timestamp (span start).
    pub admitted: u64,
    /// `ReqComplete` timestamp (span end).
    pub completed: u64,
    /// The request's invocations, ordered by body start.
    pub invocations: Vec<ObsInvocation>,
    /// Exact partition of `completed - admitted`.
    pub breakdown: SpanBreakdown,
}

impl SpanTree {
    /// Renders the tree as indented text: the request span line, the
    /// partition line, then each invocation under its in-request
    /// producer (forest order; `unit` labels timestamps, e.g. "ns").
    pub fn render(&self, unit: &str) -> String {
        let b = &self.breakdown;
        let mut out = format!(
            "request {}: {}{unit} admit->complete ({} invocations)\n  compute {}{unit} | lock-wait {}{unit} | queue-wait {}{unit} | routing {}{unit} | idle {}{unit}\n",
            self.request,
            b.total,
            self.invocations.len(),
            b.compute,
            b.lock_wait,
            b.queue_wait,
            b.routing,
            b.idle,
        );
        let ids: HashMap<u64, usize> = self
            .invocations
            .iter()
            .enumerate()
            .map(|(i, inv)| (inv.id, i))
            .collect();
        // children[i] = invocations whose first in-request producer is i.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.invocations.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, inv) in self.invocations.iter().enumerate() {
            let parent = inv
                .deps
                .iter()
                .filter_map(|d| d.producer)
                .filter_map(|p| ids.get(&p).copied())
                .find(|&p| p != i);
            match parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn walk(
            out: &mut String,
            tree: &SpanTree,
            children: &[Vec<usize>],
            i: usize,
            depth: usize,
            unit: &str,
        ) {
            let inv = &tree.invocations[i];
            let _ = write!(
                out,
                "  {}- inv {} task {} core {}: queued +{}{unit} start +{}{unit} end +{}{unit}",
                "  ".repeat(depth),
                inv.id,
                inv.task,
                inv.core,
                inv.queued.saturating_sub(tree.admitted),
                inv.start.saturating_sub(tree.admitted),
                inv.end.saturating_sub(tree.admitted),
            );
            if inv.retries > 0 {
                let _ = write!(out, " (retries {})", inv.retries);
            }
            if let Some(victim) = inv.stolen_from {
                let _ = write!(out, " (stolen from core {victim})");
            }
            out.push('\n');
            for &c in &children[i] {
                walk(out, tree, children, c, depth + 1, unit);
            }
        }
        for &r in &roots {
            walk(&mut out, self, &children, r, 0, unit);
        }
        out
    }
}

fn clip(lo: u64, hi: u64, start: u64, end: u64) -> Option<(u64, u64)> {
    let s = start.max(lo);
    let e = end.min(hi);
    (s < e).then_some((s, e))
}

/// Sweeps `[lo, hi]` over the prioritized interval classes and returns
/// the exact partition. `classes` is ordered highest priority first;
/// the remainder is returned last (idle).
fn partition(lo: u64, hi: u64, classes: &[Vec<(u64, u64)>]) -> Vec<u64> {
    let mut bounds: Vec<u64> = vec![lo, hi];
    for class in classes {
        for &(s, e) in class {
            bounds.push(s);
            bounds.push(e);
        }
    }
    bounds.retain(|&b| (lo..=hi).contains(&b));
    bounds.sort_unstable();
    bounds.dedup();
    let mut totals = vec![0u64; classes.len() + 1];
    for pair in bounds.windows(2) {
        let (s, e) = (pair[0], pair[1]);
        // Bounds include every interval endpoint, so coverage of the
        // elementary segment [s, e) is all-or-nothing per interval.
        let class = classes
            .iter()
            .position(|c| c.iter().any(|&(cs, ce)| cs <= s && e <= ce));
        match class {
            Some(k) => totals[k] += e - s,
            None => *totals.last_mut().unwrap() += e - s,
        }
    }
    totals
}

/// Reconstructs span trees for `requests` from a drained report: the
/// fold plus [`ObservedGraph::span_trees`].
pub fn span_trees(report: &TelemetryReport, requests: &[u64]) -> Vec<SpanTree> {
    ObservedGraph::from_report(report).span_trees(requests)
}

impl ObservedGraph {
    /// Span trees for `requests` (ascending by request id). Requests
    /// with no recorded admit/complete pair are skipped — the scope
    /// plane samples ids online, and this materializes trees for
    /// exactly the sampled survivors.
    pub fn span_trees(&self, requests: &[u64]) -> Vec<SpanTree> {
        // The request's invocations, grouped once (in start order).
        let mut by_request: HashMap<u64, Vec<&ObsInvocation>> = HashMap::new();
        for inv in &self.invocations {
            by_request.entry(inv.request).or_default().push(inv);
        }
        let mut wanted: Vec<u64> = requests.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut trees = Vec::with_capacity(wanted.len());
        for request in wanted {
            let Some(row) = self.request(request) else {
                continue;
            };
            let (Some(admitted), Some(completed)) = (row.admitted, row.completed) else {
                continue;
            };
            let invocations: Vec<ObsInvocation> = by_request
                .get(&request)
                .map(|invs| invs.iter().map(|&inv| inv.clone()).collect())
                .unwrap_or_default();
            let mut compute = Vec::new();
            let mut lock = Vec::new();
            let mut queue = Vec::new();
            let mut routing = Vec::new();
            for inv in &invocations {
                compute.extend(clip(admitted, completed, inv.start, inv.end));
                if let Some(failed) = inv.lock_failed {
                    lock.extend(clip(admitted, completed, failed, inv.start));
                }
                queue.extend(clip(admitted, completed, inv.queued, inv.start));
                for dep in &inv.deps {
                    if let (Some(sent), Some(received)) = (dep.sent, dep.received) {
                        routing.extend(clip(admitted, completed, sent, received));
                    }
                }
            }
            let totals = partition(admitted, completed, &[compute, lock, queue, routing]);
            trees.push(SpanTree {
                request,
                arrived: row.arrived,
                admitted,
                completed,
                invocations,
                breakdown: SpanBreakdown {
                    total: completed - admitted,
                    compute: totals[0],
                    lock_wait: totals[1],
                    queue_wait: totals[2],
                    routing: totals[3],
                    idle: totals[4],
                },
            });
        }
        trees
    }

    /// Every completed request id, ascending.
    pub fn completed_requests(&self) -> Vec<u64> {
        self.requests
            .iter()
            .filter(|r| r.latency().is_some())
            .map(|r| r.id)
            .collect()
    }
}

/// The `latency-attribution` analysis: names the dominant span
/// component for the tail cohort (completions at or above the p99
/// latency). Empty when the fold holds no completed requests.
pub fn latency_attribution(graph: &ObservedGraph) -> Vec<Finding> {
    let p99 = graph.latency().p99();
    let tail: Vec<u64> = graph
        .requests
        .iter()
        .filter(|r| r.latency().is_some_and(|latency| latency >= p99))
        .map(|r| r.id)
        .collect();
    let trees = graph.span_trees(&tail);
    if trees.is_empty() {
        return Vec::new();
    }
    let mut agg = SpanBreakdown::default();
    for t in &trees {
        agg.total += t.breakdown.total;
        agg.compute += t.breakdown.compute;
        agg.lock_wait += t.breakdown.lock_wait;
        agg.queue_wait += t.breakdown.queue_wait;
        agg.routing += t.breakdown.routing;
        agg.idle += t.breakdown.idle;
    }
    let (name, value) = agg.dominant();
    let share = if agg.total == 0 {
        0.0
    } else {
        value as f64 / agg.total as f64
    };
    let pct = |v: u64| {
        if agg.total == 0 {
            0.0
        } else {
            v as f64 * 100.0 / agg.total as f64
        }
    };
    // A tail dominated by waiting (not computing) is actionable: it
    // points at contention or queueing, not at the workload itself.
    let severity = if name != "compute" && share > 0.5 {
        Severity::Warning
    } else {
        Severity::Info
    };
    let slowest = &trees[trees
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.breakdown.total)
        .map(|(i, _)| i)
        .unwrap_or(0)];
    vec![Finding {
        rule: "latency-attribution",
        severity,
        score: share * 100.0,
        message: format!(
            "tail cohort ({} requests >= p99) is dominated by {name}: {:.1}% of end-to-end latency",
            trees.len(),
            share * 100.0,
        ),
        evidence: vec![
            Evidence::note(format!(
                "compute {:.1}% | lock-wait {:.1}% | queue-wait {:.1}% | routing {:.1}% | idle {:.1}%",
                pct(agg.compute),
                pct(agg.lock_wait),
                pct(agg.queue_wait),
                pct(agg.routing),
                pct(agg.idle),
            )),
            Evidence {
                detail: format!(
                    "slowest sampled request {} ({} end-to-end, {} invocations)",
                    slowest.request,
                    slowest.breakdown.total,
                    slowest.invocations.len(),
                ),
                span: Some((slowest.admitted, slowest.completed)),
                core: None,
            },
        ],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{pack_inv_request, Event, EventKind, NO_ID};
    use crate::TimeUnit;

    fn ev(ts: u64, core: u32, kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts,
            kind,
            core,
            a,
            b,
            c,
        }
    }

    /// One request (id 7) through two invocations with every activity
    /// class represented: queue wait, a lock retry, a message hop, and
    /// trailing idle before the completion stamp.
    fn one_request_report() -> TelemetryReport {
        let mut events = vec![
            ev(100, 8, EventKind::ReqArrive, 7, 1, 0),
            ev(1_000, 8, EventKind::ReqAdmit, 7, 1, 0),
            // inv 1: queued at 1200, starts 1500, ends 2500.
            ev(1_200, 0, EventKind::InvQueued, 1, pack_inv_request(4, 7), 2),
            ev(1_200, 0, EventKind::InvLink, 1, NO_ID, 100),
            ev(1_500, 0, EventKind::TaskStart, 2, 4, 1),
            ev(2_000, 0, EventKind::ObjSend, 64, 1, 101),
            ev(2_500, 0, EventKind::TaskEnd, 2, 4, 1),
            // Message in flight 2000→3000 (500ns beyond inv 1's end).
            ev(3_000, 1, EventKind::ObjRecv, 64, 0, 101),
            // inv 2: queued 3000, lock-fails at 3100, starts 3600.
            ev(3_000, 1, EventKind::InvQueued, 2, pack_inv_request(5, 7), 3),
            ev(3_000, 1, EventKind::InvLink, 2, 1, 101),
            ev(3_100, 1, EventKind::LockFailed, 1, 3, 2),
            ev(3_550, 1, EventKind::LockAcquired, 1, 1, 2),
            ev(3_600, 1, EventKind::TaskStart, 3, 5, 2),
            ev(4_400, 1, EventKind::TaskEnd, 3, 5, 2),
            // Completion stamped 600ns later (driver poll lag → idle).
            ev(5_000, 8, EventKind::ReqComplete, 7, 2, 0),
        ];
        events.sort_by_key(|e| (e.ts, e.core));
        TelemetryReport {
            unit: TimeUnit::Nanos,
            wall_ns: 6_000,
            cores: 2,
            events,
            dropped: 0,
            covered_from: 0,
            metrics: Default::default(),
        }
    }

    #[test]
    fn partition_is_exact_and_prioritized() {
        let report = one_request_report();
        let trees = span_trees(&report, &[7]);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.request, 7);
        assert_eq!(t.invocations.len(), 2);
        let b = &t.breakdown;
        assert_eq!(b.total, 4_000, "admit 1000 → complete 5000");
        assert_eq!(b.component_sum(), b.total, "exact partition");
        // compute: [1500,2500] + [3600,4400] = 1800.
        assert_eq!(b.compute, 1_800);
        // lock-wait: [3100,3600] = 500 (not double-counted as queue).
        assert_eq!(b.lock_wait, 500);
        // queue-wait: [1200,1500] + [3000,3100] = 400 (the rest of inv
        // 2's queue window is covered by the higher-priority lock-wait).
        assert_eq!(b.queue_wait, 400);
        // routing: [2500,3000] — the message hop minus the overlap
        // with inv 1's compute.
        assert_eq!(b.routing, 500);
        // idle: [1000,1200] pre-formation + [4400,5000] poll lag.
        assert_eq!(b.idle, 800);
    }

    #[test]
    fn unknown_and_incomplete_requests_are_skipped() {
        let report = one_request_report();
        assert!(span_trees(&report, &[42]).is_empty());
        // Duplicate ids collapse to one tree.
        assert_eq!(span_trees(&report, &[7, 7, 42]).len(), 1);
        assert_eq!(
            ObservedGraph::from_report(&report).completed_requests(),
            vec![7]
        );
    }

    #[test]
    fn render_shows_the_causal_forest() {
        let report = one_request_report();
        let trees = span_trees(&report, &[7]);
        let text = trees[0].render("ns");
        assert!(text.contains("request 7: 4000ns"), "{text}");
        assert!(text.contains("compute 1800ns"), "{text}");
        // inv 2 is indented under inv 1 (its in-request producer).
        let inv1 = text.find("- inv 1 ").expect("inv 1 line");
        let inv2 = text.find("  - inv 2 ").expect("inv 2 indented");
        assert!(inv2 > inv1);
        assert!(text.contains("(retries 1)"), "{text}");
    }

    #[test]
    fn latency_attribution_names_the_dominant_component() {
        let report = one_request_report();
        let findings = latency_attribution(&ObservedGraph::from_report(&report));
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.rule, "latency-attribution");
        // compute (1800) is the dominant named component at 45%.
        assert!(f.message.contains("dominated by compute"), "{}", f.message);
        assert_eq!(f.severity, Severity::Info);
        assert!(f.evidence[0].detail.contains("lock-wait 12.5%"));
        // No serving events → no finding.
        assert!(latency_attribution(&ObservedGraph::default()).is_empty());
    }
}
