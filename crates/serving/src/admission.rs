//! Ingress admission control: token-bucket rate limiting plus
//! queue-depth shedding.
//!
//! Both policies act *at admission*, before a root object is allocated
//! or routed — the cheap place to refuse work. The queue-depth policy
//! is the router's shed-on-overflow path surfaced early: instead of
//! letting an overload trickle down to a full run queue (where the
//! router must divert the invocation and charge `router.shed`), the
//! server refuses the request while it is still just a payload.
//!
//! The bucket runs on whatever clock the server feeds it: wall time
//! under [`crate::Pacing::Wall`], the virtual arrival clock under
//! [`crate::Pacing::Stepped`] — which is what keeps stepped-mode
//! admission decisions bit-deterministic.

use crate::error::ShedReason;
use std::time::Duration;

/// A token bucket: sustained rate plus burst allowance.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Duration,
}

impl TokenBucket {
    /// A bucket sustaining `rate_per_sec` admissions per second with a
    /// burst allowance of `burst` tokens (the bucket starts full).
    ///
    /// # Panics
    ///
    /// Panics when the rate is not strictly positive or the burst is
    /// less than one token.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one token");
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: Duration::ZERO,
        }
    }

    /// Tries to take one token at clock time `now` (monotone across
    /// calls). Returns whether the admission is allowed.
    pub fn admit(&mut self, now: Duration) -> bool {
        let elapsed = now.saturating_sub(self.last);
        self.last = now;
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// The outcome of an admission check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The request may be injected.
    Admit,
    /// The request must be shed, with the refusing policy.
    Shed(ShedReason),
}

/// The server's combined admission policy. [`AdmissionControl::open`]
/// admits everything — the configuration for measuring raw capacity.
#[derive(Clone, Debug, Default)]
pub struct AdmissionControl {
    /// Optional rate limiter.
    pub rate: Option<TokenBucket>,
    /// Optional bound on the executor's ingress backlog: requests that
    /// were admitted and are not yet complete, plus the admitted
    /// arrivals still waiting in the current micro-batch. Arrivals shed
    /// while the backlog is at or above it.
    pub max_ingress_depth: Option<usize>,
}

impl AdmissionControl {
    /// No admission control: every arrival is admitted.
    pub fn open() -> Self {
        AdmissionControl::default()
    }

    /// Adds a token-bucket rate limit.
    pub fn with_rate(mut self, bucket: TokenBucket) -> Self {
        self.rate = Some(bucket);
        self
    }

    /// Adds a queue-depth bound: an arrival sheds while `depth`
    /// requests are admitted and not yet complete, counting the
    /// admitted arrivals of the micro-batch being formed.
    pub fn with_max_ingress_depth(mut self, depth: usize) -> Self {
        self.max_ingress_depth = Some(depth);
        self
    }

    /// Decides one arrival at clock time `now`, with `ingress_depth`
    /// requests admitted and not yet complete. Queue depth is
    /// checked first (it reflects real pressure; the bucket only
    /// spends a token on requests that could actually be enqueued).
    pub fn decide(&mut self, now: Duration, ingress_depth: usize) -> AdmissionVerdict {
        if let Some(max) = self.max_ingress_depth {
            if ingress_depth >= max {
                return AdmissionVerdict::Shed(ShedReason::QueueDepth);
            }
        }
        if let Some(bucket) = &mut self.rate {
            if !bucket.admit(now) {
                return AdmissionVerdict::Shed(ShedReason::RateLimit);
            }
        }
        AdmissionVerdict::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_sustained_rate() {
        // 100/s, burst 10: at t=0 the burst drains after 10 takes.
        let mut b = TokenBucket::new(100.0, 10.0);
        let now = Duration::ZERO;
        for _ in 0..10 {
            assert!(b.admit(now));
        }
        assert!(!b.admit(now));
        // 50ms later 5 tokens have refilled.
        let later = Duration::from_millis(50);
        for _ in 0..5 {
            assert!(b.admit(later));
        }
        assert!(!b.admit(later));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.admit(Duration::ZERO));
        // A long idle period refills to the cap, not beyond.
        let mut admitted = 0;
        let later = Duration::from_secs(60);
        while b.admit(later) {
            admitted += 1;
        }
        assert_eq!(admitted, 2);
    }

    #[test]
    fn queue_depth_is_checked_before_rate() {
        let mut ac = AdmissionControl::open()
            .with_rate(TokenBucket::new(10.0, 1.0))
            .with_max_ingress_depth(4);
        assert_eq!(
            ac.decide(Duration::ZERO, 4),
            AdmissionVerdict::Shed(ShedReason::QueueDepth)
        );
        // The refused arrival did not spend the single token.
        assert_eq!(ac.decide(Duration::ZERO, 0), AdmissionVerdict::Admit);
        assert_eq!(
            ac.decide(Duration::ZERO, 0),
            AdmissionVerdict::Shed(ShedReason::RateLimit)
        );
    }

    #[test]
    fn open_admits_everything() {
        let mut ac = AdmissionControl::open();
        for i in 0..100 {
            assert_eq!(ac.decide(Duration::ZERO, i), AdmissionVerdict::Admit);
        }
    }
}
