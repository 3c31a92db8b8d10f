//! Per-core time-breakdown ledger: the one per-core table.
//!
//! Every core's covered window (`[covered_from, end]`, see
//! [`TelemetryReport::covered_from`]) is partitioned into six buckets
//! in one walk over the event stream: each gap between a core's
//! consecutive events is attributed to the activity that *ended* with
//! the later event (inside a task body it is compute regardless). The
//! partition is constructive — nothing is estimated, every moment
//! lands in exactly one bucket — so per-core buckets sum to the span
//! exactly, and the whole ledger sums to `span × cores`. The same walk
//! counts each core's tasks, lock retries, traffic, deepest queue and
//! steals.

use crate::event::EventKind;
use crate::report::TelemetryReport;
use crate::TimeUnit;
use std::fmt::Write as _;

/// One core's time partition. All fields are in the report's
/// [`TimeUnit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreLedger {
    /// The core index.
    pub core: u32,
    /// Time inside task bodies (includes exit actions and routing done
    /// by the body's worker — the executor's unit of useful work).
    pub compute: u64,
    /// Time ended by a lock failure, or by an acquisition that needed
    /// retries: the parameter-lock protocol stalling progress.
    pub lock_wait: u64,
    /// Time between an invocation being runnable and its body starting
    /// (dispatch latency, contention-free).
    pub queue_wait: u64,
    /// Time ended by a successful steal: scanning and popping remote
    /// queues.
    pub steal: u64,
    /// Time ended by message/bookkeeping work outside a body (sends,
    /// invocation formation, queue samples).
    pub routing: u64,
    /// Time ended by an object arrival, plus the tail after the last
    /// event: the core genuinely had nothing to do.
    pub idle: u64,
    /// Task bodies finished (`TaskEnd` events).
    pub tasks: u64,
    /// Failed try-lock-all attempts (`LockFailed` events).
    pub retries: u64,
    /// Objects sent.
    pub sends: u64,
    /// Objects received.
    pub recvs: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// The deepest queue-occupancy sample.
    pub max_queue: u64,
    /// Invocations this core stole.
    pub steals: u64,
}

impl CoreLedger {
    /// Sum of the six time buckets; equals the ledger's span by
    /// construction.
    pub fn total(&self) -> u64 {
        self.compute + self.lock_wait + self.queue_wait + self.steal + self.routing + self.idle
    }

    /// Compute share of the span (0 when the span is empty).
    pub fn utilization(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.compute as f64 / total as f64
        }
    }
}

/// The per-core time breakdown of one recorded session.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Start of the partitioned window: the report's
    /// [`TelemetryReport::covered_from`].
    pub start: u64,
    /// The partitioned span (per core), from `start` to the end of the
    /// session.
    pub span: u64,
    /// Time base of `span` and every bucket.
    pub unit: TimeUnit,
    /// One row per core the session was created with (cores that never
    /// recorded an event are fully idle).
    pub cores: Vec<CoreLedger>,
}

impl Ledger {
    /// Builds the ledger in one walk over the report's events.
    pub fn from_report(report: &TelemetryReport) -> Self {
        let start = report.covered_from;
        let end = match report.unit {
            TimeUnit::Nanos => report.wall_ns.max(report.last_ts()),
            TimeUnit::Cycles => report.last_ts(),
        };
        let max_core = report.events.iter().map(|e| e.core + 1).max().unwrap_or(0) as usize;
        let n = report.cores.max(max_core);
        let mut cores: Vec<CoreLedger> = (0..n)
            .map(|core| CoreLedger {
                core: core as u32,
                ..CoreLedger::default()
            })
            .collect();
        // Per core: the end of the last attributed gap, and whether a
        // task body is open.
        let mut cursor = vec![start; n];
        let mut in_task = vec![false; n];
        for e in &report.events {
            let core = e.core as usize;
            let row = &mut cores[core];
            let gap = e.ts.saturating_sub(cursor[core]);
            let bucket = if in_task[core] {
                &mut row.compute
            } else {
                match e.kind {
                    EventKind::TaskStart => &mut row.queue_wait,
                    // An end without a recorded start: the body was
                    // running even though the opening event was lost.
                    EventKind::TaskEnd => &mut row.compute,
                    EventKind::LockFailed => &mut row.lock_wait,
                    EventKind::LockAcquired if e.b > 0 => &mut row.lock_wait,
                    EventKind::LockAcquired => &mut row.queue_wait,
                    EventKind::Steal => &mut row.steal,
                    // Time leading up to a fault firing is ordinary
                    // idleness; time leading up to a completed
                    // recovery action was spent re-routing work.
                    // Serving ingress events land on the driver's
                    // pseudo-core: the gap leading up to an arrival
                    // or a detected completion is time the core was
                    // not doing its own work (idle); admitting or
                    // shedding a request is routing-side work.
                    EventKind::ObjRecv
                    | EventKind::Fault
                    | EventKind::ReqArrive
                    | EventKind::ReqComplete => &mut row.idle,
                    EventKind::ObjSend
                    | EventKind::QueueDepth
                    | EventKind::InvQueued
                    | EventKind::InvLink
                    | EventKind::Recover
                    | EventKind::ReqAdmit
                    | EventKind::ReqShed
                    | EventKind::Relayout => &mut row.routing,
                }
            };
            *bucket += gap;
            cursor[core] = e.ts.max(cursor[core]);
            match e.kind {
                EventKind::TaskStart => in_task[core] = true,
                EventKind::TaskEnd => {
                    in_task[core] = false;
                    row.tasks += 1;
                }
                EventKind::LockFailed => row.retries += 1,
                EventKind::ObjSend => {
                    row.sends += 1;
                    row.bytes_out += e.a;
                }
                EventKind::ObjRecv => row.recvs += 1,
                EventKind::QueueDepth => row.max_queue = row.max_queue.max(e.a),
                EventKind::Steal => row.steals += 1,
                _ => {}
            }
        }
        // Tail after each core's last event. A body left open (lost end
        // event) still counts as compute.
        for (row, (&cursor, &in_task)) in cores.iter_mut().zip(cursor.iter().zip(&in_task)) {
            let tail = end.saturating_sub(cursor);
            if in_task {
                row.compute += tail;
            } else {
                row.idle += tail;
            }
        }
        Ledger {
            start,
            span: end.saturating_sub(start),
            unit: report.unit,
            cores,
        }
    }

    /// The whole-session aggregate (core field is meaningless;
    /// `max_queue` is the deepest sample on any core).
    pub fn totals(&self) -> CoreLedger {
        let mut total = CoreLedger::default();
        for row in &self.cores {
            total.compute += row.compute;
            total.lock_wait += row.lock_wait;
            total.queue_wait += row.queue_wait;
            total.steal += row.steal;
            total.routing += row.routing;
            total.idle += row.idle;
            total.tasks += row.tasks;
            total.retries += row.retries;
            total.sends += row.sends;
            total.recvs += row.recvs;
            total.bytes_out += row.bytes_out;
            total.max_queue = total.max_queue.max(row.max_queue);
            total.steals += row.steals;
        }
        total
    }

    /// Renders the breakdown as two aligned tables, time buckets then
    /// counts, each with one row per core plus a totals row.
    pub fn table(&self) -> String {
        let label = match self.unit {
            TimeUnit::Nanos => "ns",
            TimeUnit::Cycles => "cycles",
        };
        let mut out = format!(
            "per-core time breakdown (span {} {} per core",
            self.span, label
        );
        if self.start > 0 {
            let _ = write!(out, ", covered from {}", self.start);
        }
        out.push_str(")\n");
        let _ = writeln!(
            out,
            "core      compute    lock-wait   queue-wait        steal      routing         idle  util%"
        );
        let totals = self.totals();
        let rows = || {
            let named = self.cores.iter().map(|row| (row.core.to_string(), row));
            named.chain(std::iter::once(("all".to_string(), &totals)))
        };
        for (name, row) in rows() {
            let _ = writeln!(
                out,
                "{name:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6.1}",
                row.compute,
                row.lock_wait,
                row.queue_wait,
                row.steal,
                row.routing,
                row.idle,
                100.0 * row.utilization(),
            );
        }
        let _ = writeln!(
            out,
            "core   tasks  retries   sends   recvs    bytes-out  max-queue  steals"
        );
        for (name, row) in rows() {
            let _ = writeln!(
                out,
                "{name:>4} {:>7} {:>8} {:>7} {:>7} {:>12} {:>10} {:>7}",
                row.tasks,
                row.retries,
                row.sends,
                row.recvs,
                row.bytes_out,
                row.max_queue,
                row.steals,
            );
        }
        out
    }

    /// Serializes the ledger as a JSON object (`span`, `unit`, `cores`
    /// array of bucket objects).
    pub fn json(&self) -> String {
        let unit = match self.unit {
            TimeUnit::Nanos => "ns",
            TimeUnit::Cycles => "cycles",
        };
        let mut out = format!("{{\"span\":{},\"unit\":\"{unit}\",\"cores\":[", self.span);
        for (i, row) in self.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"core\":{},\"compute\":{},\"lock_wait\":{},\"queue_wait\":{},\"steal\":{},\"routing\":{},\"idle\":{}}}",
                row.core, row.compute, row.lock_wait, row.queue_wait, row.steal, row.routing, row.idle
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::testutil::two_core_report;
    use crate::json;

    #[test]
    fn buckets_sum_exactly_to_the_span() {
        let report = two_core_report();
        let ledger = Ledger::from_report(&report);
        assert_eq!(ledger.span, 10_000);
        assert_eq!(ledger.cores.len(), 2);
        for row in &ledger.cores {
            assert_eq!(
                row.total(),
                ledger.span,
                "core {} partition leaks",
                row.core
            );
        }
        assert_eq!(ledger.totals().total(), ledger.span * 2);
    }

    #[test]
    fn buckets_attribute_the_right_activities() {
        let ledger = Ledger::from_report(&two_core_report());
        let core0 = &ledger.cores[0];
        let core1 = &ledger.cores[1];
        // Core 0 survived a failed try-lock-all and a retried acquire.
        assert!(core0.lock_wait > 0);
        assert!(core0.compute > core1.compute, "core 0 ran startup + reduce");
        // Core 1's only acquisition path was a steal; its tail is idle.
        assert!(core1.steal > 0);
        assert!(core1.idle > core0.idle);
        assert_eq!(core0.steal, 0);
    }

    #[test]
    fn idle_cores_are_fully_idle() {
        let mut report = two_core_report();
        report.cores = 3; // session created with a third, silent worker
        let ledger = Ledger::from_report(&report);
        assert_eq!(ledger.cores.len(), 3);
        assert_eq!(ledger.cores[2].idle, ledger.span);
        assert_eq!(ledger.cores[2].total(), ledger.span);
    }

    #[test]
    fn table_and_json_render() {
        let ledger = Ledger::from_report(&two_core_report());
        let table = ledger.table();
        assert!(table.contains("span 10000 ns"), "{table}");
        assert!(table.lines().any(|l| l.trim_start().starts_with("all ")));
        let doc = json::parse(&ledger.json()).unwrap();
        assert_eq!(doc.get("span").unwrap().as_f64(), Some(10_000.0));
        assert_eq!(doc.get("cores").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn the_walk_counts_per_core_activity() {
        let ev = |ts, kind, core, a| crate::event::Event {
            ts,
            kind,
            core,
            a,
            b: 0,
            c: 0,
        };
        let mut report = TelemetryReport {
            unit: TimeUnit::Cycles,
            events: vec![
                ev(0, EventKind::TaskStart, 0, 1),
                ev(80, EventKind::TaskEnd, 0, 1),
                ev(10, EventKind::LockFailed, 1, 2),
                ev(20, EventKind::ObjSend, 1, 128),
                ev(30, EventKind::QueueDepth, 1, 7),
                ev(100, EventKind::TaskEnd, 1, 1),
            ],
            ..TelemetryReport::empty()
        };
        report.events.sort_by_key(|e| e.ts);
        let ledger = Ledger::from_report(&report);
        assert_eq!(ledger.span, 100);
        let core0 = &ledger.cores[0];
        assert_eq!((core0.tasks, core0.compute), (1, 80));
        assert_eq!(core0.utilization(), 0.8);
        let core1 = &ledger.cores[1];
        assert_eq!((core1.retries, core1.sends, core1.bytes_out), (1, 1, 128));
        assert_eq!(core1.max_queue, 7);
        let totals = ledger.totals();
        assert_eq!((totals.tasks, totals.max_queue), (2, 7));
        let table = ledger.table();
        assert!(table.contains("span 100 cycles"), "{table}");
        let counts: Vec<&str> = table
            .lines()
            .filter(|l| l.trim_start().starts_with("1 "))
            .nth(1)
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(counts, ["1", "1", "1", "1", "0", "128", "7", "0"]);
    }

    #[test]
    fn empty_report_yields_empty_ledger() {
        let ledger = Ledger::from_report(&crate::report::TelemetryReport::empty());
        assert_eq!(ledger.span, 0);
        assert!(ledger.cores.is_empty());
        assert_eq!(ledger.totals().total(), 0);
    }
}
