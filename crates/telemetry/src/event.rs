//! Telemetry events: fixed-size records cheap enough to emit on the
//! runtime's dispatch hot path.

/// A timestamp in the recording executor's time base: nanoseconds since
/// run start for the threaded executor, virtual cycles for the virtual
/// executor and the scheduling simulator (see
/// [`crate::TimeUnit`]).
pub type Timestamp = u64;

/// Sentinel for an unknown/external payload word (e.g. the producer of
/// the injected startup object, or a message id the recorder did not
/// know).
pub const NO_ID: u64 = u64::MAX;

/// What happened. The meaning of an event's `a`/`b`/`c` payload words
/// is listed per variant. Recorders that have no meaningful value for a
/// word write [`NO_ID`] (identifiers) or 0 (quantities).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A task body started executing. `a` = task id, `b` = instance id,
    /// `c` = invocation id (see [`EventKind::InvQueued`]).
    TaskStart = 0,
    /// A task body finished (exit actions + routing included).
    /// `a` = task id, `b` = instance id, `c` = invocation id.
    TaskEnd = 1,
    /// All parameter locks of an invocation were acquired.
    /// `a` = number of lock classes taken, `b` = retries that preceded
    /// this acquisition, `c` = invocation id.
    LockAcquired = 2,
    /// A try-lock-all attempt hit contention and the invocation was
    /// re-queued (Bamboo's transactional retry). `a` = number of lock
    /// classes requested, `b` = task id, `c` = invocation id.
    LockFailed = 3,
    /// An object was sent toward another group instance.
    /// `a` = estimated payload bytes, `b` = destination core,
    /// `c` = message id (matches the delivery's [`EventKind::ObjRecv`]).
    ObjSend = 4,
    /// An object was received/delivered at this worker.
    /// `a` = estimated payload bytes, `b` = source core (or [`NO_ID`]
    /// when unknown), `c` = message id.
    ObjRecv = 5,
    /// A sample of this worker's incoming channel occupancy.
    /// `a` = queued messages, `b` = ready-queue length, `c` = 0.
    QueueDepth = 6,
    /// An invocation was formed and entered a run queue (the queue-enter
    /// timestamp of the matching [`EventKind::TaskStart`]). `a` =
    /// invocation id (unique within the run), `b` = instance id in the
    /// low 32 bits and the serving request id that formed the
    /// invocation in the high 32 (see [`pack_inv_request`]; the request
    /// word is 0 for batch runs and truncates ids past 2^32 requests),
    /// `c` = task id.
    InvQueued = 7,
    /// One causal edge of a formed invocation: the invocation consumed
    /// an object released/created by an upstream invocation. `a` =
    /// consumer invocation id, `b` = producer invocation id ([`NO_ID`]
    /// for the injected startup object), `c` = id of the message that
    /// delivered the object.
    InvLink = 8,
    /// A queued invocation was taken by a core other than the one that
    /// formed it. `a` = invocation id, `b` = victim core (whose run
    /// queue it was stolen from), `c` = 0.
    Steal = 9,
    /// An injected fault fired (`fault.*` namespace). `a` = fault code
    /// (see [`fault_code`]), `b` = code-specific detail (drop attempts,
    /// stall/slowdown nanoseconds, or the dead core), `c` = the message
    /// or invocation id the fault hit ([`NO_ID`] for core-scoped
    /// faults).
    Fault = 10,
    /// A recovery action completed (`recover.*` namespace). `a` =
    /// recovery code (see [`recover_code`]), `b` = code-specific detail
    /// (redelivery attempts, the failover core, or objects drained),
    /// `c` = the message id involved ([`NO_ID`] for core-scoped
    /// recovery).
    Recover = 11,
    /// A serving request arrived at the ingress (`serving.*`
    /// namespace). `a` = request id, `b` = arrival-source tag (see
    /// [`arrival_source`]), `c` = 0.
    ReqArrive = 12,
    /// A serving request passed admission and its root object was
    /// injected. `a` = request id, `b` = number of requests injected in
    /// the same micro-batch tick, `c` = 0.
    ReqAdmit = 13,
    /// A serving request was shed at admission. `a` = request id, `b` =
    /// shed reason (see [`shed_reason`]), `c` = 0.
    ReqShed = 14,
    /// A serving request completed: its outstanding-invocation refcount
    /// in the request ledger reached zero. `a` = request id, `b` =
    /// invocations the request executed, `c` = 0. Latency is the span
    /// from the request's [`EventKind::ReqAdmit`] timestamp to this
    /// event's timestamp.
    ReqComplete = 15,
    /// A hot relayout drained buffered objects of a migrated instance
    /// at its old host (`relayout.*` namespace). `a` = the layout epoch
    /// that took effect, `b` = the migrated instance id, `c` = buffered
    /// objects re-sent to the new host.
    Relayout = 18,
}

/// Packs an instance id and the serving request id that formed the
/// invocation into the `b` word of [`EventKind::InvQueued`] events.
/// Request ids are truncated to 32 bits (they are minted sequentially
/// from 1, so truncation only matters past 2^32 requests in one
/// resident run); batch runs carry request 0.
pub const fn pack_inv_request(instance: u64, request: u64) -> u64 {
    (instance & 0xffff_ffff) | ((request & 0xffff_ffff) << 32)
}

/// Splits a `b` word packed by [`pack_inv_request`] back into
/// `(instance, request)`.
pub const fn unpack_inv_request(b: u64) -> (u64, u64) {
    (b & 0xffff_ffff, b >> 32)
}

/// Codes carried in the `a` word of [`EventKind::Fault`] events.
pub mod fault_code {
    /// A core was killed. `b` = the dead core.
    pub const CORE_KILL: u64 = 1;
    /// A core stalled. `b` = stall nanoseconds.
    pub const CORE_STALL: u64 = 2;
    /// A message's transmission(s) dropped. `b` = consecutive attempts
    /// dropped, `c` = message id.
    pub const MSG_DROP: u64 = 3;
    /// A message was delivered late. `b` = delay nanoseconds, `c` =
    /// message id.
    pub const MSG_DELAY: u64 = 4;
    /// An invocation's lock acquisition was slowed. `b` = slowdown
    /// nanoseconds, `c` = invocation id.
    pub const LOCK_SLOW: u64 = 5;
}

/// Source tags carried in the `b` word of [`EventKind::ReqArrive`]
/// events: which arrival process produced the request.
pub mod arrival_source {
    /// Seeded Poisson process.
    pub const POISSON: u64 = 1;
    /// Bursty Markov-modulated (MMPP) process.
    pub const BURSTY: u64 = 2;
    /// Diurnal trace replay.
    pub const TRACE: u64 = 3;
    /// Channel ingress (e.g. a socket adapter submitting requests).
    pub const CHANNEL: u64 = 4;
}

/// Shed reasons carried in the `b` word of [`EventKind::ReqShed`]
/// events.
pub mod shed_reason {
    /// Token-bucket rate limit exhausted.
    pub const RATE_LIMIT: u64 = 1;
    /// Ingress queue depth over the configured bound.
    pub const QUEUE_DEPTH: u64 = 2;
}

/// Codes carried in the `a` word of [`EventKind::Recover`] events.
pub mod recover_code {
    /// A dropped message was redelivered after backoff. `b` = attempts,
    /// `c` = message id.
    pub const REDELIVER: u64 = 1;
    /// A send destined to a dead core was re-routed to a live
    /// same-group host. `b` = the failover core, `c` = message id.
    pub const REROUTE: u64 = 2;
    /// A dying core handed its parameter-set objects and late
    /// deliveries to live hosts. `b` = objects re-sent.
    pub const FAILOVER_DRAIN: u64 = 3;
}

impl EventKind {
    /// A short stable name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskStart => "task_start",
            EventKind::TaskEnd => "task_end",
            EventKind::LockAcquired => "lock_acquired",
            EventKind::LockFailed => "lock_failed",
            EventKind::ObjSend => "obj_send",
            EventKind::ObjRecv => "obj_recv",
            EventKind::QueueDepth => "queue_depth",
            EventKind::InvQueued => "inv_queued",
            EventKind::InvLink => "inv_link",
            EventKind::Steal => "steal",
            EventKind::Fault => "fault",
            EventKind::Recover => "recover",
            EventKind::ReqArrive => "req_arrive",
            EventKind::ReqAdmit => "req_admit",
            EventKind::ReqShed => "req_shed",
            EventKind::ReqComplete => "req_complete",
            EventKind::Relayout => "relayout",
        }
    }
}

/// One recorded event. 40 bytes, `Copy`, no heap.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When (executor time base).
    pub ts: Timestamp,
    /// What.
    pub kind: EventKind,
    /// The worker/core that recorded it.
    pub core: u32,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
    /// Third payload word (see [`EventKind`]) — causal linkage:
    /// invocation and message ids that let the analysis layer
    /// reconstruct the observed invocation graph.
    pub c: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_small_and_copy() {
        assert!(std::mem::size_of::<Event>() <= 40);
        let e = Event {
            ts: 1,
            kind: EventKind::TaskStart,
            core: 0,
            a: 2,
            b: 3,
            c: 4,
        };
        let f = e; // Copy
        assert_eq!(e.ts, f.ts);
        assert_eq!(e.c, f.c);
    }

    #[test]
    fn kinds_have_distinct_names() {
        let kinds = [
            EventKind::TaskStart,
            EventKind::TaskEnd,
            EventKind::LockAcquired,
            EventKind::LockFailed,
            EventKind::ObjSend,
            EventKind::ObjRecv,
            EventKind::QueueDepth,
            EventKind::InvQueued,
            EventKind::InvLink,
            EventKind::Steal,
            EventKind::Fault,
            EventKind::Recover,
            EventKind::ReqArrive,
            EventKind::ReqAdmit,
            EventKind::ReqShed,
            EventKind::ReqComplete,
            EventKind::Relayout,
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn inv_request_packing_round_trips() {
        assert_eq!(unpack_inv_request(pack_inv_request(9, 41)), (9, 41));
        assert_eq!(unpack_inv_request(pack_inv_request(9, 0)), (9, 0));
        // Truncation past 32 bits keeps the low word intact.
        let (inst, req) = unpack_inv_request(pack_inv_request(5, 0x1_0000_0002));
        assert_eq!((inst, req), (5, 2));
    }
}
