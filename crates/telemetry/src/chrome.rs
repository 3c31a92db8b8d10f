//! Chrome `chrome://tracing` / Perfetto JSON export.
//!
//! This is the single place in the workspace that knows the Chrome
//! trace-event format. Both recorded telemetry
//! ([`crate::TelemetryReport`]) and predicted schedules
//! ([`bamboo_schedule::trace::ExecutionTrace`], from the scheduling
//! simulator or the virtual executor) render through it, so a predicted
//! and an observed timeline can sit side by side in one file as two
//! "processes" (pid 1 = predicted, pid 2 = observed).
//!
//! Format notes: each event is one JSON object; `ph` is the phase
//! ("X" complete, "i" instant, "C" counter, "M" metadata); `ts` and
//! `dur` are microseconds; `pid`/`tid` pick the row. Load the file via
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::event::EventKind;
use crate::json::{write_f64, write_str};
use crate::report::TelemetryReport;
use crate::TimeUnit;
use bamboo_lang::spec::ProgramSpec;
use bamboo_schedule::trace::ExecutionTrace;
use std::fmt::Write as _;

/// Conventional pid for predicted (simulated) timelines.
pub const PID_PREDICTED: u64 = 1;
/// Conventional pid for observed (executed) timelines.
pub const PID_OBSERVED: u64 = 2;

/// An in-progress Chrome trace document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn event_header(&mut self, ph: &str, name: &str, pid: u64, tid: u64, ts_us: f64) -> String {
        let mut e = String::with_capacity(96);
        e.push_str("{\"name\":");
        write_str(&mut e, name);
        let _ = write!(e, ",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
        write_f64(&mut e, ts_us);
        e
    }

    /// Adds a `process_name` metadata event so the viewer labels `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut e = self.event_header("M", "process_name", pid, 0, 0.0);
        e.push_str(",\"args\":{\"name\":");
        write_str(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    /// Adds a `thread_name` metadata event so the viewer labels a core row.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut e = self.event_header("M", "thread_name", pid, tid, 0.0);
        e.push_str(",\"args\":{\"name\":");
        write_str(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    /// Adds a complete ("X") slice: `name` ran on row `tid` of process
    /// `pid` from `ts_us` for `dur_us` microseconds. `args` are extra
    /// `(key, value)` pairs shown in the viewer's detail pane.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, f64)],
    ) {
        let mut e = self.event_header("X", name, pid, tid, ts_us);
        e.push_str(",\"dur\":");
        write_f64(&mut e, dur_us.max(0.001)); // zero-width slices vanish in the viewer
        if !args.is_empty() {
            e.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    e.push(',');
                }
                write_str(&mut e, k);
                e.push(':');
                write_f64(&mut e, *v);
            }
            e.push('}');
        }
        e.push('}');
        self.events.push(e);
    }

    /// Adds a thread-scoped instant ("i") marker.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, ts_us: f64) {
        let mut e = self.event_header("i", name, pid, tid, ts_us);
        e.push_str(",\"s\":\"t\"}");
        self.events.push(e);
    }

    /// Adds a counter ("C") sample; the viewer plots `series` over time.
    pub fn counter(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        series: &str,
        value: f64,
    ) {
        let mut e = self.event_header("C", name, pid, tid, ts_us);
        e.push_str(",\"args\":{");
        write_str(&mut e, series);
        e.push(':');
        write_f64(&mut e, value);
        e.push_str("}}");
        self.events.push(e);
    }

    /// Serializes the document (`{"traceEvents": [...], ...}`).
    pub fn finish(self) -> String {
        let mut out =
            String::with_capacity(64 + self.events.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders an [`ExecutionTrace`] (one slice per task invocation,
    /// one row per core) into process `pid`. Cycles map 1:1 to
    /// microseconds so predicted timelines are directly readable.
    pub fn push_execution_trace(
        &mut self,
        pid: u64,
        label: &str,
        trace: &ExecutionTrace,
        spec: &ProgramSpec,
    ) {
        self.process_name(pid, label);
        let mut cores: Vec<usize> = trace.tasks.iter().map(|t| t.core.index()).collect();
        cores.sort_unstable();
        cores.dedup();
        for &core in &cores {
            self.thread_name(pid, core as u64, &format!("core {core}"));
        }
        for t in &trace.tasks {
            let name = &spec.task(t.task).name;
            let data_ready = trace.data_ready(t);
            self.complete(
                pid,
                t.core.index() as u64,
                name,
                t.start as f64,
                (t.end - t.start) as f64,
                &[
                    ("instance", t.instance.index() as f64),
                    ("trace_id", t.id as f64),
                    ("data_ready", data_ready as f64),
                ],
            );
        }
    }

    /// Renders a recorded [`TelemetryReport`] into process `pid`:
    /// task slices per core (from paired start/end events), instants
    /// for lock contention, and counter tracks for queue depth and
    /// payload traffic.
    pub fn push_report(
        &mut self,
        pid: u64,
        label: &str,
        report: &TelemetryReport,
        spec: &ProgramSpec,
    ) {
        self.process_name(pid, label);
        for &core in &report.active_cores() {
            self.thread_name(pid, core as u64, &format!("core {core}"));
        }
        let to_us = |ts: u64| match report.unit {
            TimeUnit::Nanos => ts as f64 / 1000.0,
            TimeUnit::Cycles => ts as f64,
        };
        // One pending (ts, task, instance) slot per core: task bodies on a
        // worker never nest, so pairing start→end is a stack of depth 1.
        let max_core = report.events.iter().map(|e| e.core).max().unwrap_or(0) as usize;
        let mut open: Vec<Option<(u64, u64, u64)>> = vec![None; max_core + 1];
        let mut sent: Vec<u64> = vec![0; max_core + 1];
        for e in &report.events {
            let core = e.core as usize;
            let tid = e.core as u64;
            match e.kind {
                EventKind::TaskStart => open[core] = Some((e.ts, e.a, e.b)),
                EventKind::TaskEnd => {
                    if let Some((start, task, instance)) = open[core].take() {
                        let name = spec
                            .tasks
                            .get(task as usize)
                            .map(|t| t.name.as_str())
                            .unwrap_or("task");
                        self.complete(
                            pid,
                            tid,
                            name,
                            to_us(start),
                            to_us(e.ts.saturating_sub(start).max(1)),
                            &[("instance", instance as f64)],
                        );
                    }
                }
                EventKind::LockFailed => self.instant(pid, tid, "lock contention", to_us(e.ts)),
                EventKind::Steal => self.instant(pid, tid, "steal", to_us(e.ts)),
                EventKind::Fault => self.instant(pid, tid, "fault", to_us(e.ts)),
                EventKind::Recover => self.instant(pid, tid, "recover", to_us(e.ts)),
                EventKind::QueueDepth => {
                    self.counter(
                        pid,
                        tid,
                        &format!("queue depth (core {core})"),
                        to_us(e.ts),
                        "queued",
                        e.a as f64,
                    );
                }
                EventKind::ObjSend => {
                    sent[core] += e.a;
                    self.counter(
                        pid,
                        tid,
                        &format!("bytes sent (core {core})"),
                        to_us(e.ts),
                        "bytes",
                        sent[core] as f64,
                    );
                }
                EventKind::ReqShed => self.instant(pid, tid, "request shed", to_us(e.ts)),
                EventKind::ReqComplete => {
                    self.instant(pid, tid, "request complete", to_us(e.ts));
                }
                EventKind::Relayout => self.instant(pid, tid, "relayout", to_us(e.ts)),
                EventKind::LockAcquired
                | EventKind::ObjRecv
                | EventKind::InvQueued
                | EventKind::InvLink
                | EventKind::ReqArrive
                | EventKind::ReqAdmit => {}
            }
        }
    }
}

/// Serializes one [`ExecutionTrace`] to a complete Chrome trace document.
pub fn execution_trace_json(trace: &ExecutionTrace, spec: &ProgramSpec, label: &str) -> String {
    let mut chrome = ChromeTrace::new();
    chrome.push_execution_trace(PID_PREDICTED, label, trace, spec);
    chrome.finish()
}

/// Serializes a predicted and an observed [`ExecutionTrace`] side by
/// side (pids [`PID_PREDICTED`] and [`PID_OBSERVED`]) — the paper's
/// Fig. 6/9 comparison as one loadable timeline.
pub fn side_by_side_json(
    predicted: &ExecutionTrace,
    observed: &ExecutionTrace,
    spec: &ProgramSpec,
) -> String {
    let mut chrome = ChromeTrace::new();
    chrome.push_execution_trace(PID_PREDICTED, "predicted (simulator)", predicted, spec);
    chrome.push_execution_trace(PID_OBSERVED, "observed (executor)", observed, spec);
    chrome.finish()
}

/// Serializes a recorded [`TelemetryReport`] to a complete Chrome trace
/// document.
pub fn report_json(report: &TelemetryReport, spec: &ProgramSpec, label: &str) -> String {
    let mut chrome = ChromeTrace::new();
    chrome.push_report(PID_OBSERVED, label, report, spec);
    chrome.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn events_serialize_as_valid_json() {
        let mut chrome = ChromeTrace::new();
        chrome.process_name(1, "predicted");
        chrome.thread_name(1, 0, "core 0");
        chrome.complete(1, 0, "blur \"x\"", 10.0, 5.5, &[("instance", 3.0)]);
        chrome.instant(1, 0, "lock contention", 12.0);
        chrome.counter(1, 0, "queue", 13.0, "queued", 4.0);
        let doc = json::parse(&chrome.finish()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        for e in events {
            assert!(e.get("ph").is_some());
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
            assert!(e.get("ts").is_some());
        }
        let slice = &events[2];
        assert_eq!(slice.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(slice.get("name").unwrap().as_str(), Some("blur \"x\""));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(5.5));
        assert_eq!(
            slice.get("args").unwrap().get("instance").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn zero_duration_slices_get_minimum_width() {
        let mut chrome = ChromeTrace::new();
        chrome.complete(1, 0, "t", 0.0, 0.0, &[]);
        let doc = json::parse(&chrome.finish()).unwrap();
        let dur = doc.get("traceEvents").unwrap().as_arr().unwrap()[0]
            .get("dur")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(dur > 0.0);
    }
}
