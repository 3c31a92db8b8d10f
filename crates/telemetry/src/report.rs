//! The merged, queryable output of one recording session.

use crate::event::{Event, EventKind, Timestamp};
use crate::metrics::MetricsSnapshot;
use crate::TimeUnit;

/// Everything one [`crate::Telemetry`] session recorded: every retained
/// event (merged across workers, ordered by timestamp) plus a metrics
/// snapshot. Produced by [`crate::Telemetry::report`].
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Time base of the event timestamps.
    pub unit: TimeUnit,
    /// Wall-clock nanoseconds from telemetry creation to the report.
    pub wall_ns: u64,
    /// Worker/core count the session was created with.
    pub cores: usize,
    /// Retained events, ordered by `(ts, core)`; none is earlier than
    /// [`Self::covered_from`].
    pub events: Vec<Event>,
    /// Recorded events not retained: lost to ring overwrites, or cut
    /// to keep every core's window the same (0 unless a ring filled
    /// up).
    pub dropped: u64,
    /// Start of the window every ring retains: the latest first
    /// retained timestamp among the rings that overwrote events (0
    /// when nothing was dropped). Analyses that partition time start
    /// here rather than at 0, so a busy core's lost prefix is not
    /// attributed to whatever its first retained event names.
    pub covered_from: Timestamp,
    /// Metrics at report time.
    pub metrics: MetricsSnapshot,
}

impl TelemetryReport {
    /// A report with nothing in it (what a disabled session yields).
    pub fn empty() -> Self {
        TelemetryReport {
            unit: TimeUnit::Nanos,
            wall_ns: 0,
            cores: 0,
            events: Vec::new(),
            dropped: 0,
            covered_from: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Cores that recorded at least one event, ascending.
    pub fn active_cores(&self) -> Vec<u32> {
        let mut cores: Vec<u32> = self.events.iter().map(|e| e.core).collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Events recorded by `core`, in timestamp order.
    pub fn events_on(&self, core: u32) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.core == core)
    }

    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Timestamp of the last event (0 when empty). In
    /// [`TimeUnit::Cycles`] mode this is the observed makespan.
    pub fn last_ts(&self) -> u64 {
        self.events.last().map_or(0, |e| e.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, core: u32, kind: EventKind) -> Event {
        Event {
            ts,
            kind,
            core,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn queries_over_events() {
        let report = TelemetryReport {
            events: vec![
                ev(1, 0, EventKind::TaskStart),
                ev(2, 2, EventKind::TaskStart),
                ev(3, 0, EventKind::TaskEnd),
            ],
            ..TelemetryReport::empty()
        };
        assert_eq!(report.active_cores(), vec![0, 2]);
        assert_eq!(report.events_on(0).count(), 2);
        assert_eq!(report.count(EventKind::TaskStart), 2);
        assert_eq!(report.last_ts(), 3);
    }

    #[test]
    fn empty_report_is_inert() {
        let report = TelemetryReport::empty();
        assert!(report.active_cores().is_empty());
        assert_eq!(report.count(EventKind::TaskEnd), 0);
        assert_eq!(report.last_ts(), 0);
    }
}
