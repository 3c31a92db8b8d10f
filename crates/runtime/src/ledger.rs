//! The request ledger: the threaded executor's one count of outstanding
//! work.
//!
//! Every unit of work holds exactly one ledger unit against the request
//! it belongs to: a `Message::Deliver` in a worker channel, and a formed
//! invocation from the moment it is queued until `execute` returns. An
//! object handed to `take_in` on its own core, or merely buffered in a
//! parameter set, holds none; the unit of the message or invocation
//! that handed it over covers it. A completed request's buffered
//! leftovers never travel: a migration or failover drain re-sends a
//! leftover only when [`RequestLedger::inc_if_open`] counts it, and
//! retires it to the result graveyard otherwise.
//!
//! The count is *transfer-ordered*. Every increment happens before the
//! matching hand-off, and a handler counts all follow-on work before it
//! releases its own unit. Every unit of work inherits the request of
//! the work that spawned it (request isolation: an invocation only
//! combines objects of one request, and everything it releases or
//! creates carries that request). So a request's count reaching zero is
//! a *definitive* completion signal, never a transient dip, and
//! "no request open" ([`RequestLedger::outstanding`] `== 0`) is the
//! run's quiescence. A batch run is one request.
//!
//! Completions are pushed to an unbounded channel the driver (or the
//! serving front-end) drains, *before* the open-request count drops:
//! whoever reads `outstanding() == 0` finds every completion already on
//! the channel. Each carries the request's executed invocation tally so
//! per-request exactness can be cross-checked against the virtual
//! executor's causal graph. An invocation's tally is charged by the
//! release of its own unit ([`RequestLedger::finish_invocation`]): one
//! lock per invocation end, and the unit held until then keeps the entry
//! live.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Stripes for the per-request count maps (request id modulo).
const STRIPES: usize = 16;

/// Hashes a request id with one multiply, folded: the 128-bit product's
/// halves XORed, so the low bits the map indexes by and the high bits it
/// tags with both depend on every bit of the id. Request ids are dense
/// and minted by the executor, never taken from outside input, so the
/// flooding resistance SipHash buys is not needed here.
#[derive(Default)]
struct RequestHasher(u64);

impl Hasher for RequestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let product = u128::from(self.0 ^ id) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One stripe: request id → its entry.
type Stripe = HashMap<u64, Entry, BuildHasherDefault<RequestHasher>>;

/// A request whose outstanding work drained to zero.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The completed request's id.
    pub request: u64,
    /// Task invocations the request executed (transitively, from its
    /// root object to quiescence).
    pub invocations: u64,
    /// When the request's last unit of work was released.
    pub completed_at: Instant,
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    count: i64,
    invocations: u64,
}

/// Striped per-request counts of outstanding work with a completion
/// channel. See the module docs for the correctness argument.
#[derive(Debug)]
pub struct RequestLedger {
    stripes: Vec<Mutex<Stripe>>,
    open: AtomicUsize,
    completions: Sender<Completion>,
}

impl RequestLedger {
    /// Creates a ledger and the receiving end of its completion
    /// channel.
    pub fn new() -> (Self, Receiver<Completion>) {
        let (tx, rx) = unbounded();
        let ledger = RequestLedger {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
            open: AtomicUsize::new(0),
            completions: tx,
        };
        (ledger, rx)
    }

    fn stripe(&self, request: u64) -> &Mutex<Stripe> {
        &self.stripes[(request % STRIPES as u64) as usize]
    }

    /// Counts one unit of work against `request`. The first unit opens
    /// the request.
    pub fn inc(&self, request: u64) {
        let mut map = self.stripe(request).lock();
        let entry = map.entry(request).or_default();
        if entry.count == 0 {
            self.open.fetch_add(1, Ordering::Relaxed);
        }
        entry.count += 1;
    }

    /// Counts one unit of work against `request` only when the request
    /// is still open, and reports whether it was counted. Used when
    /// re-sending *buffered* objects — a hot-migration drain or a dead
    /// core's failover — where the request may have already completed:
    /// a completed request's leftover is retired instead of sent, so its
    /// entry is never re-opened and its completion fires once.
    pub fn inc_if_open(&self, request: u64) -> bool {
        let mut map = self.stripe(request).lock();
        match map.get_mut(&request) {
            Some(entry) => {
                entry.count += 1;
                true
            }
            None => false,
        }
    }

    /// Runs `during` with every stripe locked, then counts one unit of
    /// every open request and returns their ids. A migration or a kill
    /// moves a host inside it, so no request completes before the old
    /// host's drain releases these units.
    pub(crate) fn hold_open(&self, during: impl FnOnce()) -> Vec<u64> {
        let mut stripes: Vec<_> = self.stripes.iter().map(|s| s.lock()).collect();
        during();
        let mut held = Vec::new();
        for map in &mut stripes {
            for (&request, entry) in map.iter_mut() {
                entry.count += 1;
                held.push(request);
            }
        }
        held.sort_unstable();
        held
    }

    /// Releases one unit of `request`'s work. The release that drains
    /// the request removes its entry, pushes a [`Completion`] on the
    /// channel, then closes the request in [`Self::outstanding`], and
    /// returns the completion so the caller can emit telemetry and
    /// sweep buffered objects. Every release must match a counted unit.
    pub fn dec(&self, request: u64) -> Option<Completion> {
        self.release(request, 0)
    }

    /// Releases the unit of an invocation of `request` that has just
    /// executed, and charges it to the request's invocation tally, under
    /// one lock. Otherwise exactly [`Self::dec`].
    pub fn finish_invocation(&self, request: u64) -> Option<Completion> {
        self.release(request, 1)
    }

    fn release(&self, request: u64, invocations: u64) -> Option<Completion> {
        let mut map = self.stripe(request).lock();
        let entry = map.get_mut(&request);
        debug_assert!(entry.is_some(), "request {request} released uncounted");
        let entry = entry?;
        entry.invocations += invocations;
        entry.count -= 1;
        if entry.count > 0 {
            return None;
        }
        debug_assert_eq!(entry.count, 0, "request {request} over-released");
        let invocations = entry.invocations;
        map.remove(&request);
        drop(map);
        let completion = Completion {
            request,
            invocations,
            completed_at: Instant::now(),
        };
        // Receiver gone (batch caller dropped it) is fine: the return
        // value still drives events and sweeps.
        let _ = self.completions.send(completion);
        // Release after the send: a reader that sees the request closed
        // (Acquire in `outstanding`) also sees its completion queued.
        self.open.fetch_sub(1, Ordering::Release);
        Some(completion)
    }

    /// Requests currently holding work; zero is quiescence.
    pub fn outstanding(&self) -> usize {
        self.open.load(Ordering::Acquire)
    }

    /// Whether no request holds work (the no-leak invariant checked
    /// after a drain).
    pub fn is_empty(&self) -> bool {
        self.outstanding() == 0 && self.stripes.iter().all(|s| s.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_fires_exactly_at_zero() {
        let (ledger, rx) = RequestLedger::new();
        ledger.inc(7);
        ledger.inc(7);
        assert_eq!(ledger.outstanding(), 1);
        assert!(ledger.finish_invocation(7).is_none());
        assert!(rx.try_recv().is_err());
        let done = ledger.dec(7).expect("second release drains");
        assert_eq!(done.request, 7);
        assert_eq!(done.invocations, 1);
        assert_eq!(rx.try_recv().unwrap().request, 7);
        assert!(ledger.is_empty());
    }

    /// An invocation's release completes its request: the completion it
    /// returns, and the one on the channel, count that invocation with
    /// every earlier one, and a plain `dec` charges none.
    #[test]
    fn finishing_the_last_invocation_completes_with_the_exact_count() {
        let (ledger, rx) = RequestLedger::new();
        // A delivery's unit, then three invocations formed from it; the
        // delivery releases first, the invocations after it.
        ledger.inc(4);
        for _ in 0..3 {
            ledger.inc(4);
        }
        assert!(ledger.dec(4).is_none());
        assert!(ledger.finish_invocation(4).is_none());
        assert!(ledger.finish_invocation(4).is_none());
        let done = ledger.finish_invocation(4).expect("last invocation drains");
        assert_eq!((done.request, done.invocations), (4, 3));
        let queued = rx.try_recv().unwrap();
        assert_eq!((queued.request, queued.invocations), (4, 3));
        assert_eq!(ledger.outstanding(), 0);
        assert!(ledger.is_empty());
    }

    #[test]
    fn requests_are_independent() {
        let (ledger, _rx) = RequestLedger::new();
        ledger.inc(1);
        ledger.inc(2);
        assert_eq!(ledger.outstanding(), 2);
        assert!(ledger.dec(1).is_some());
        assert_eq!(ledger.outstanding(), 1);
        assert!(!ledger.is_empty());
        assert!(ledger.dec(2).is_some());
        assert!(ledger.is_empty());
    }

    #[test]
    fn inc_if_open_never_resurrects_a_completed_request() {
        let (ledger, rx) = RequestLedger::new();
        ledger.inc(3);
        assert!(ledger.inc_if_open(3), "open request counts the unit");
        assert!(ledger.dec(3).is_none());
        assert!(ledger.dec(3).is_some());
        assert!(!ledger.inc_if_open(3), "completed request stays closed");
        assert!(ledger.is_empty());
        assert_eq!(rx.try_iter().count(), 1, "exactly one completion");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released uncounted")]
    fn release_without_a_unit_is_a_bug() {
        let (ledger, _rx) = RequestLedger::new();
        ledger.dec(5);
    }

    /// Whoever reads a request closed finds its completion queued. A
    /// second thread releases each request while this one polls
    /// `outstanding()`, so the read lands right after the decrement.
    #[test]
    fn completion_is_queued_before_the_request_closes() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        const ROUNDS: u64 = 20_000;
        let (ledger, rx) = RequestLedger::new();
        let ledger = Arc::new(ledger);
        let release = Arc::new(AtomicU64::new(0));
        let releaser = {
            let (ledger, release) = (ledger.clone(), release.clone());
            std::thread::spawn(move || {
                for request in 1..=ROUNDS {
                    while release.load(Ordering::Acquire) != request {
                        std::thread::yield_now();
                    }
                    ledger.dec(request);
                }
            })
        };
        for request in 1..=ROUNDS {
            ledger.inc(request);
            release.store(request, Ordering::Release);
            let mut polls = 0u32;
            while ledger.outstanding() != 0 {
                polls += 1;
                if polls.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
            let done = rx.try_recv().map(|c| c.request).ok();
            assert_eq!(done, Some(request), "closed before its completion");
        }
        releaser.join().unwrap();
    }

    #[test]
    fn reopening_a_request_id_works() {
        // Batch mode reuses the ledger across sequential requests; a
        // drained id must be re-openable without residue.
        let (ledger, rx) = RequestLedger::new();
        ledger.inc(1);
        assert_eq!(ledger.finish_invocation(1).unwrap().invocations, 1);
        ledger.inc(1);
        assert_eq!(ledger.dec(1).unwrap().invocations, 0);
        assert_eq!(rx.try_iter().count(), 2);
    }
}
