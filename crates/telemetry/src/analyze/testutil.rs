//! Synthetic observed-event streams for analysis-layer unit tests.

use crate::event::{fault_code, pack_inv_request, recover_code, Event, EventKind, NO_ID};
use crate::report::TelemetryReport;
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

/// A hand-built two-core run with full causal linkage:
///
/// - invocation 1 = `startup` (task 0, instance 0, core 0): consumes
///   the injected object (msg 100), creates two work objects
///   (msgs 101/102) and one accumulator (msg 103);
/// - invocation 2 = `work` (task 1, instance 1, core 0): consumes
///   msg 101, releases its object as msg 105;
/// - invocation 3 = `work` (task 1, instance 1): formed on core 0 but
///   **stolen** by core 1; consumes msg 102, releases msg 104;
/// - invocation 4 = `reduce` (task 2, instance 2, core 0): consumes
///   msgs 103/105/104, survives one failed try-lock-all.
///
/// Wall span 10 000 ns over 2 cores; every event carries the ids the
/// analyzer matches on.
pub fn two_core_report() -> TelemetryReport {
    let mut events = vec![
        // Startup object injected by the driver (no ObjSend).
        ev(100, 0, EventKind::ObjRecv, 128, NO_ID, 100),
        ev(150, 0, EventKind::InvQueued, 1, 0, 0),
        ev(150, 0, EventKind::InvLink, 1, NO_ID, 100),
        ev(180, 0, EventKind::LockAcquired, 1, 0, 1),
        ev(200, 0, EventKind::TaskStart, 0, 0, 1),
        ev(900, 0, EventKind::ObjSend, 128, 0, 101),
        ev(950, 0, EventKind::ObjSend, 128, 0, 102),
        ev(980, 0, EventKind::ObjSend, 128, 0, 103),
        ev(1000, 0, EventKind::TaskEnd, 0, 0, 1),
        // Work object 1 arrives; invocation 2 forms locally.
        ev(1050, 0, EventKind::ObjRecv, 128, 0, 103),
        ev(1100, 0, EventKind::ObjRecv, 128, 0, 101),
        ev(1120, 0, EventKind::QueueDepth, 1, 1, 0),
        ev(1150, 0, EventKind::InvQueued, 2, 1, 1),
        ev(1150, 0, EventKind::InvLink, 2, 1, 101),
        // Work object 2 arrives; invocation 3 forms on core 0 ...
        ev(1250, 0, EventKind::ObjRecv, 128, 0, 102),
        ev(1300, 0, EventKind::InvQueued, 3, 1, 1),
        ev(1300, 0, EventKind::InvLink, 3, 1, 102),
        ev(1180, 0, EventKind::LockAcquired, 1, 0, 2),
        ev(1200, 0, EventKind::TaskStart, 1, 1, 2),
        // ... and is stolen by idle core 1.
        ev(1400, 1, EventKind::Steal, 3, 0, 0),
        ev(1450, 1, EventKind::LockAcquired, 1, 0, 3),
        ev(1500, 1, EventKind::TaskStart, 1, 1, 3),
        ev(2100, 0, EventKind::ObjSend, 128, 0, 105),
        ev(2200, 0, EventKind::TaskEnd, 1, 1, 2),
        ev(2250, 0, EventKind::ObjRecv, 128, 0, 105),
        ev(2400, 1, EventKind::ObjSend, 128, 0, 104),
        ev(2500, 1, EventKind::TaskEnd, 1, 1, 3),
        ev(2600, 0, EventKind::ObjRecv, 128, 1, 104),
        // Reduce forms with three causal inputs and one lock retry.
        ev(2700, 0, EventKind::InvQueued, 4, 2, 2),
        ev(2700, 0, EventKind::InvLink, 4, 1, 103),
        ev(2700, 0, EventKind::InvLink, 4, 2, 105),
        ev(2700, 0, EventKind::InvLink, 4, 3, 104),
        ev(2750, 0, EventKind::LockFailed, 2, 2, 4),
        ev(2850, 0, EventKind::LockAcquired, 2, 1, 4),
        ev(2900, 0, EventKind::TaskStart, 2, 2, 4),
        ev(9000, 0, EventKind::TaskEnd, 2, 2, 4),
    ];
    events.sort_by_key(|e| (e.ts, e.core));
    TelemetryReport {
        unit: TimeUnit::Nanos,
        wall_ns: 10_000,
        cores: 2,
        events,
        dropped: 0,
        covered_from: 0,
        metrics: Default::default(),
    }
}

/// A hand-built serving run that reaches every analysis view: two
/// workers plus the driver's pseudo-core 2, three requests (1 and 2
/// complete, 3 is shed), lock retries on both workers, one steal, and
/// one injected message drop with its redelivery.
///
/// - request 1: invocation 1 (task 0, core 0) sends msg 101 to core 1,
///   where invocation 2 (task 1) survives two failed try-lock-alls;
/// - request 2: invocation 3 (task 0) is formed on core 0 and stolen by
///   core 1; it sends msg 103 back to core 0, where invocation 4
///   (task 1) survives one failed try-lock-all;
/// - msg 101 is dropped once by the fault plan and redelivered.
pub fn serving_report() -> TelemetryReport {
    let mut events = vec![
        // Driver: request lifecycles.
        ev(100, 2, EventKind::ReqArrive, 1, 1, 0),
        ev(200, 2, EventKind::ReqAdmit, 1, 1, 0),
        ev(500, 2, EventKind::ReqArrive, 2, 1, 0),
        ev(600, 2, EventKind::ReqAdmit, 2, 1, 0),
        ev(700, 2, EventKind::ReqArrive, 3, 1, 0),
        ev(710, 2, EventKind::ReqShed, 3, 1, 0),
        ev(2_600, 2, EventKind::ReqComplete, 1, 2, 0),
        ev(3_200, 2, EventKind::ReqComplete, 2, 2, 0),
        // Core 0: invocation 1, the formation of 3, invocation 4.
        ev(300, 0, EventKind::InvQueued, 1, pack_inv_request(0, 1), 0),
        ev(300, 0, EventKind::InvLink, 1, NO_ID, 100),
        ev(350, 0, EventKind::LockAcquired, 1, 0, 1),
        ev(400, 0, EventKind::TaskStart, 0, 0, 1),
        ev(650, 0, EventKind::InvQueued, 3, pack_inv_request(0, 2), 0),
        ev(650, 0, EventKind::InvLink, 3, NO_ID, 102),
        ev(900, 0, EventKind::ObjSend, 64, 1, 101),
        ev(950, 0, EventKind::Fault, fault_code::MSG_DROP, 2, 101),
        ev(1_000, 0, EventKind::TaskEnd, 0, 0, 1),
        ev(
            1_060,
            0,
            EventKind::Recover,
            recover_code::REDELIVER,
            2,
            101,
        ),
        ev(1_080, 0, EventKind::ObjRecv, 32, 1, 103),
        ev(1_080, 0, EventKind::InvQueued, 4, pack_inv_request(1, 2), 1),
        ev(1_080, 0, EventKind::InvLink, 4, 3, 103),
        ev(1_085, 0, EventKind::QueueDepth, 2, 1, 0),
        ev(1_090, 0, EventKind::LockFailed, 1, 1, 4),
        ev(1_200, 0, EventKind::LockAcquired, 1, 1, 4),
        ev(1_210, 0, EventKind::TaskStart, 1, 1, 4),
        ev(3_000, 0, EventKind::TaskEnd, 1, 1, 4),
        // Core 1: steals invocation 3, then runs invocation 2.
        ev(700, 1, EventKind::Steal, 3, 0, 0),
        ev(720, 1, EventKind::LockAcquired, 1, 0, 3),
        ev(750, 1, EventKind::TaskStart, 0, 0, 3),
        ev(1_000, 1, EventKind::ObjSend, 32, 0, 103),
        ev(1_050, 1, EventKind::TaskEnd, 0, 0, 3),
        ev(1_100, 1, EventKind::ObjRecv, 64, 0, 101),
        ev(1_100, 1, EventKind::InvQueued, 2, pack_inv_request(1, 1), 1),
        ev(1_100, 1, EventKind::InvLink, 2, 1, 101),
        ev(1_150, 1, EventKind::LockFailed, 1, 1, 2),
        ev(1_250, 1, EventKind::LockFailed, 1, 1, 2),
        ev(1_400, 1, EventKind::LockAcquired, 1, 2, 2),
        ev(1_450, 1, EventKind::TaskStart, 1, 1, 2),
        ev(2_400, 1, EventKind::TaskEnd, 1, 1, 2),
    ];
    events.sort_by_key(|e| (e.ts, e.core));
    TelemetryReport {
        unit: TimeUnit::Nanos,
        wall_ns: 4_000,
        cores: 3,
        events,
        dropped: 0,
        covered_from: 0,
        metrics: Default::default(),
    }
}
