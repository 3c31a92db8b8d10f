//! The analysis fold: one pass over the event stream.
//!
//! The threaded executor records, per invocation, a formation event
//! ([`EventKind::InvQueued`]), one causal edge per consumed object
//! ([`EventKind::InvLink`], carrying the producing invocation's id and
//! the delivering message's id), the dispatch window
//! ([`EventKind::TaskStart`]/[`EventKind::TaskEnd`]), lock outcomes,
//! and thefts ([`EventKind::Steal`]); the serving driver stamps each
//! request's lifecycle (`Req*`), and a chaos plan its faults and
//! recoveries. [`ObservedGraph::from_report`] folds that flat stream,
//! once, into the who-enabled-whom invocation DAG the paper's
//! critical-path analysis needs, the per-request rows, and the
//! fault/recover record. Every other analysis (span trees, latency
//! attribution, fault findings, the critical path) is a view over the
//! fold; [`ObservedGraph::to_trace`] converts the graph into the
//! scheduler's [`ExecutionTrace`] shape so `bamboo_schedule::critpath`
//! runs on observed data unchanged.

use crate::analyze::serving::LatencyHistogram;
use crate::event::{Event, EventKind, Timestamp, NO_ID};
use crate::report::TelemetryReport;
use bamboo_lang::ids::TaskId;
use bamboo_machine::CoreId;
use bamboo_schedule::trace::{DataDep, ExecutionTrace, TraceTask};
use bamboo_schedule::InstanceId;
use std::collections::HashMap;

/// One causal (data) edge into an invocation: the object it consumed,
/// traced back to the invocation that released or created it.
#[derive(Clone, Debug)]
pub struct ObsEdge {
    /// The producing invocation's id; `None` for external inputs (the
    /// injected startup object).
    pub producer: Option<u64>,
    /// Id of the message that delivered the object ([`NO_ID`] when the
    /// recording executor does not track messages).
    pub msg: u64,
    /// When the delivering message was sent ([`EventKind::ObjSend`]).
    pub sent: Option<Timestamp>,
    /// When it was delivered at the consuming worker
    /// ([`EventKind::ObjRecv`]).
    pub received: Option<Timestamp>,
}

/// One observed invocation with its causal inputs and timing.
#[derive(Clone, Debug)]
pub struct ObsInvocation {
    /// Runtime-minted invocation id (the events' linkage key).
    pub id: u64,
    /// Task id word.
    pub task: u64,
    /// Group-instance id word.
    pub instance: u64,
    /// The serving request the invocation belongs to (0 for batch
    /// runs), recovered from the packed [`EventKind::InvQueued`]
    /// instance word.
    pub request: u64,
    /// The core that executed the body.
    pub core: u32,
    /// The core that formed and first enqueued the invocation.
    pub formed_core: u32,
    /// Queue-enter timestamp (formation).
    pub queued: Timestamp,
    /// Body start.
    pub start: Timestamp,
    /// Body end (exit actions + routing included).
    pub end: Timestamp,
    /// Failed try-lock-all attempts this invocation survived.
    pub retries: u64,
    /// The first failed try-lock-all: where its lock-wait window opens
    /// (`None` when every attempt succeeded).
    pub lock_failed: Option<Timestamp>,
    /// The victim core, when the invocation was work-stolen.
    pub stolen_from: Option<u32>,
    /// Causal inputs (one per consumed object).
    pub deps: Vec<ObsEdge>,
}

impl ObsInvocation {
    /// Formation-to-start latency (queue wait + lock retries).
    pub fn queue_wait(&self) -> u64 {
        self.start.saturating_sub(self.queued)
    }

    /// Body duration.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One serving request's lifecycle milestones, in the report's time
/// base.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsRequest {
    /// Request id.
    pub id: u64,
    /// `ReqArrive` timestamp, if recorded.
    pub arrived: Option<Timestamp>,
    /// `ReqAdmit` timestamp, if recorded.
    pub admitted: Option<Timestamp>,
    /// Whether admission shed the request (`ReqShed`).
    pub shed: bool,
    /// `ReqComplete` timestamp, if recorded.
    pub completed: Option<Timestamp>,
    /// Invocations the request executed (from the complete event).
    pub invocations: u64,
}

impl ObsRequest {
    /// Admit→complete latency, when both ends were recorded.
    pub(crate) fn latency(&self) -> Option<u64> {
        Some(self.completed?.saturating_sub(self.admitted?))
    }
}

/// The fold of one recorded execution: its causal graph, its requests,
/// and its injected faults.
#[derive(Clone, Debug, Default)]
pub struct ObservedGraph {
    /// Completed invocations, ordered by start timestamp.
    pub invocations: Vec<ObsInvocation>,
    /// Event records that could not be assembled into a complete
    /// invocation (formed but never started, or start/end lost to ring
    /// overwrites). Non-zero means the graph under-approximates.
    pub incomplete: usize,
    /// Every request with at least one lifecycle event, sorted by id.
    pub requests: Vec<ObsRequest>,
    /// Injected faults ([`EventKind::Fault`]), in stream order.
    pub faults: Vec<Event>,
    /// Completed recovery actions ([`EventKind::Recover`]), in stream
    /// order.
    pub recoveries: Vec<Event>,
}

#[derive(Default)]
struct Builder {
    task: u64,
    instance: u64,
    request: u64,
    formed_core: u32,
    queued: Option<Timestamp>,
    start: Option<Timestamp>,
    end: Option<Timestamp>,
    core: u32,
    retries: u64,
    stolen_from: Option<u32>,
    deps: Vec<(u64, u64)>, // (producer inv id word, msg id)
}

impl ObservedGraph {
    /// Folds a recorded report in one pass. Invocation events whose
    /// id word is [`NO_ID`] (executors that predate causal linkage, or
    /// the virtual executor's cycle traces) are skipped; an empty graph
    /// means the report carries no linkage.
    pub fn from_report(report: &TelemetryReport) -> Self {
        let mut builders: HashMap<u64, Builder> = HashMap::new();
        let mut sent: HashMap<u64, Timestamp> = HashMap::new();
        let mut received: HashMap<u64, Timestamp> = HashMap::new();
        let mut lock_failed: HashMap<u64, Timestamp> = HashMap::new();
        let mut requests: HashMap<u64, ObsRequest> = HashMap::new();
        let mut faults = Vec::new();
        let mut recoveries = Vec::new();
        fn request(rows: &mut HashMap<u64, ObsRequest>, id: u64) -> &mut ObsRequest {
            rows.entry(id).or_insert(ObsRequest {
                id,
                ..ObsRequest::default()
            })
        }
        for e in &report.events {
            match e.kind {
                EventKind::InvQueued => {
                    let (instance, request) = crate::event::unpack_inv_request(e.b);
                    let b = builders.entry(e.a).or_default();
                    b.instance = instance;
                    b.request = request;
                    b.task = e.c;
                    b.formed_core = e.core;
                    b.queued = Some(e.ts);
                }
                EventKind::InvLink => {
                    builders.entry(e.a).or_default().deps.push((e.b, e.c));
                }
                EventKind::TaskStart if e.c != NO_ID => {
                    let b = builders.entry(e.c).or_default();
                    b.start = Some(e.ts);
                    b.core = e.core;
                    b.task = e.a;
                    b.instance = e.b;
                }
                EventKind::TaskEnd if e.c != NO_ID => {
                    builders.entry(e.c).or_default().end = Some(e.ts);
                }
                EventKind::LockAcquired if e.c != NO_ID => {
                    builders.entry(e.c).or_default().retries = e.b;
                }
                EventKind::LockFailed if e.c != NO_ID => {
                    lock_failed.entry(e.c).or_insert(e.ts);
                }
                EventKind::Steal => {
                    builders.entry(e.a).or_default().stolen_from = Some(e.b as u32);
                }
                EventKind::ObjSend if e.c != NO_ID => {
                    sent.insert(e.c, e.ts);
                }
                EventKind::ObjRecv if e.c != NO_ID => {
                    received.insert(e.c, e.ts);
                }
                EventKind::ReqArrive => request(&mut requests, e.a).arrived = Some(e.ts),
                EventKind::ReqAdmit => request(&mut requests, e.a).admitted = Some(e.ts),
                EventKind::ReqShed => request(&mut requests, e.a).shed = true,
                EventKind::ReqComplete => {
                    let row = request(&mut requests, e.a);
                    row.completed = Some(e.ts);
                    row.invocations = e.b;
                }
                EventKind::Fault => faults.push(*e),
                EventKind::Recover => recoveries.push(*e),
                _ => {}
            }
        }
        let mut incomplete = 0;
        let mut invocations: Vec<ObsInvocation> = Vec::with_capacity(builders.len());
        for (id, b) in builders {
            let (Some(start), Some(end)) = (b.start, b.end) else {
                incomplete += 1;
                continue;
            };
            invocations.push(ObsInvocation {
                id,
                task: b.task,
                instance: b.instance,
                request: b.request,
                core: b.core,
                formed_core: b.formed_core,
                queued: b.queued.unwrap_or(start),
                start,
                end,
                retries: b.retries,
                lock_failed: lock_failed.get(&id).copied(),
                stolen_from: b.stolen_from,
                deps: b
                    .deps
                    .into_iter()
                    .map(|(producer, msg)| ObsEdge {
                        producer: (producer != NO_ID).then_some(producer),
                        msg,
                        sent: sent.get(&msg).copied(),
                        received: received.get(&msg).copied(),
                    })
                    .collect(),
            });
        }
        invocations.sort_by_key(|inv| (inv.start, inv.id));
        let mut requests: Vec<ObsRequest> = requests.into_values().collect();
        requests.sort_unstable_by_key(|r| r.id);
        ObservedGraph {
            invocations,
            incomplete,
            requests,
            faults,
            recoveries,
        }
    }

    /// The row of request `id`, if it recorded any lifecycle event.
    pub(crate) fn request(&self, id: u64) -> Option<&ObsRequest> {
        let at = self.requests.binary_search_by_key(&id, |r| r.id).ok()?;
        Some(&self.requests[at])
    }

    /// Admit→complete latency of every completed request.
    pub fn latency(&self) -> LatencyHistogram {
        let mut latency = LatencyHistogram::new();
        for sample in self.requests.iter().filter_map(ObsRequest::latency) {
            latency.record(sample);
        }
        latency
    }

    /// Invocations executed on a core other than the one that formed
    /// them (the work-stolen subset).
    pub fn stolen(&self) -> impl Iterator<Item = &ObsInvocation> {
        self.invocations
            .iter()
            .filter(|inv| inv.stolen_from.is_some())
    }

    /// The causal edge list as a `(producer task, consumer task)`
    /// multiset. External (startup) edges are excluded. This is the
    /// rate-matching fingerprint: for a deterministic program it must
    /// equal the virtual executor's edge list over the same deployment,
    /// regardless of stealing or interleaving.
    pub fn edge_task_pairs(&self) -> HashMap<(u64, u64), u64> {
        let task_of: HashMap<u64, u64> = self
            .invocations
            .iter()
            .map(|inv| (inv.id, inv.task))
            .collect();
        let mut pairs: HashMap<(u64, u64), u64> = HashMap::new();
        for inv in &self.invocations {
            for dep in &inv.deps {
                if let Some(producer) = dep.producer {
                    if let Some(&ptask) = task_of.get(&producer) {
                        *pairs.entry((ptask, inv.task)).or_insert(0) += 1;
                    }
                }
            }
        }
        pairs
    }

    /// Per-task invocation counts.
    pub fn task_counts(&self) -> HashMap<u64, u64> {
        let mut counts = HashMap::new();
        for inv in &self.invocations {
            *counts.entry(inv.task).or_insert(0) += 1;
        }
        counts
    }

    /// Converts the observed graph into the scheduler's
    /// [`ExecutionTrace`] shape (trace ids = positions in
    /// [`Self::invocations`]), so `bamboo_schedule::critpath` runs on
    /// observed executions unchanged. Dep arrivals use the delivering
    /// message's receive timestamp when recorded, else the formation
    /// timestamp.
    pub fn to_trace(&self) -> ExecutionTrace {
        let index: HashMap<u64, usize> = self
            .invocations
            .iter()
            .enumerate()
            .map(|(i, inv)| (inv.id, i))
            .collect();
        let mut last_on_core: HashMap<u32, usize> = HashMap::new();
        let mut trace = ExecutionTrace::default();
        for (i, inv) in self.invocations.iter().enumerate() {
            let deps: Vec<DataDep> = inv
                .deps
                .iter()
                .map(|dep| DataDep {
                    producer: dep.producer.and_then(|p| index.get(&p).copied()),
                    arrival: dep.received.unwrap_or(inv.queued),
                })
                .collect();
            trace.push_task(
                TraceTask {
                    id: i,
                    task: TaskId::new(inv.task as usize),
                    instance: InstanceId(inv.instance as u32),
                    core: CoreId::new(inv.core as usize),
                    start: inv.start,
                    end: inv.end,
                    deps: bamboo_schedule::trace::DepRange::default(),
                    prev_on_core: last_on_core.insert(inv.core, i),
                },
                &deps,
            );
        }
        trace.makespan = trace.tasks.iter().map(|t| t.end).max().unwrap_or(0);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::testutil::two_core_report;

    #[test]
    fn reconstructs_invocations_and_edges() {
        let report = two_core_report();
        let graph = ObservedGraph::from_report(&report);
        assert_eq!(graph.invocations.len(), 4);
        assert_eq!(graph.incomplete, 0);
        // Ordered by start.
        let ids: Vec<u64> = graph.invocations.iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        // The startup invocation has one external dep.
        let startup = &graph.invocations[0];
        assert_eq!(startup.deps.len(), 1);
        assert!(startup.deps[0].producer.is_none());
        // Both workers link back to the startup invocation.
        for worker in &graph.invocations[1..3] {
            assert_eq!(worker.deps[0].producer, Some(1));
            assert!(worker.deps[0].sent.is_some());
            assert!(worker.deps[0].received.is_some());
        }
    }

    #[test]
    fn steal_attribution_survives_reconstruction() {
        let report = two_core_report();
        let graph = ObservedGraph::from_report(&report);
        let stolen: Vec<&ObsInvocation> = graph.stolen().collect();
        assert_eq!(stolen.len(), 1);
        let inv = stolen[0];
        assert_eq!(inv.id, 3);
        assert_eq!(inv.stolen_from, Some(0));
        assert_eq!(inv.core, 1, "executed by the thief");
        assert_eq!(inv.formed_core, 0, "formed at the victim");
        // The stolen invocation's causal edge still points at the true
        // producer, not at the thief.
        assert_eq!(inv.deps[0].producer, Some(1));
    }

    #[test]
    fn edge_task_pairs_form_the_rate_fingerprint() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let pairs = graph.edge_task_pairs();
        // startup(task 0) -> work(task 1) twice; both works feed the
        // reduce(task 2); the accumulator edge is startup -> reduce.
        assert_eq!(pairs.get(&(0, 1)), Some(&2));
        assert_eq!(pairs.get(&(1, 2)), Some(&2));
        assert_eq!(pairs.get(&(0, 2)), Some(&1));
    }

    #[test]
    fn to_trace_feeds_the_critical_path_analysis() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let trace = graph.to_trace();
        assert_eq!(trace.tasks.len(), 4);
        assert_eq!(trace.makespan, 9_000);
        let path = bamboo_schedule::critpath::critical_path(&trace);
        assert!(!path.is_empty());
        // The path ends at the reduce invocation (finishes last).
        let last = *path.last().unwrap();
        assert_eq!(graph.invocations[last].task, 2);
        // And starts at the startup invocation.
        assert_eq!(graph.invocations[path[0]].task, 0);
    }

    #[test]
    fn incomplete_records_are_counted_not_invented() {
        let mut report = two_core_report();
        // Drop every TaskEnd for invocation 4: it must vanish from the
        // graph and be counted incomplete.
        report
            .events
            .retain(|e| !(e.kind == EventKind::TaskEnd && e.c == 4));
        let graph = ObservedGraph::from_report(&report);
        assert_eq!(graph.invocations.len(), 3);
        assert_eq!(graph.incomplete, 1);
    }

    #[test]
    fn empty_report_yields_empty_graph() {
        let graph = ObservedGraph::from_report(&TelemetryReport::empty());
        assert!(graph.invocations.is_empty());
        assert_eq!(graph.incomplete, 0);
        assert!(graph.requests.is_empty());
    }
}
