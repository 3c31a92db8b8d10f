//! The open-loop load generator. The benchmark owns the schedule: due
//! times come from the seed alone and never move when the system is
//! slow, and the program under test receives only the submissions.

use bamboo::IngressHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// When each request is due, as an offset from the start of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Ascending due offsets, one per request.
    pub due: Vec<Duration>,
}

impl Schedule {
    /// Independent arrivals at `rate` requests per second for
    /// `seconds`: exponential gaps drawn from `seed`.
    pub fn poisson(rate: f64, seconds: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && seconds > 0.0, "rate and length are positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut due = Vec::with_capacity((rate * seconds) as usize + 1);
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            if t >= seconds {
                return Schedule { due };
            }
            due.push(Duration::from_secs_f64(t));
        }
    }

    /// `count` requests all due at the same instant.
    pub fn burst(count: usize) -> Self {
        Schedule {
            due: vec![Duration::ZERO; count],
        }
    }
}

/// What the generator did, for the validity rule: latency is counted
/// from the due time, so a generator that ran late has already added
/// its own delay to every figure.
#[derive(Clone, Debug, Default)]
pub struct Sent {
    /// Send instant minus due instant per request, microseconds.
    pub late_us: Vec<f64>,
    /// Indices of the submissions the ingress refused.
    pub refused: Vec<usize>,
}

/// Above this 99th-percentile lateness the run's latency figures
/// describe the generator, not the system, and are reported unresolved.
pub const MAX_LATE_P99_US: f64 = 2_000.0;

/// Submits one empty request payload per due time, on schedule, from
/// the calling thread. Sleeps until shortly before each due time and
/// spins the rest, so lateness stays in the tens of microseconds
/// without holding a hardware thread between requests.
pub fn run(schedule: &Schedule, start: Instant, ingress: &IngressHandle) -> Sent {
    const SPIN: Duration = Duration::from_micros(100);
    let mut sent = Sent {
        late_us: Vec::with_capacity(schedule.due.len()),
        refused: Vec::new(),
    };
    for (k, offset) in schedule.due.iter().enumerate() {
        let due = start + *offset;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > SPIN * 2 {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        if ingress.submit(Box::new(())).is_err() {
            sent.refused.push(k);
        }
        sent.late_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
    }
    sent
}

/// A parked thread answers within this long on a host that is ready.
const READY_WAKE_US: f64 = 20.0;
/// Give up waiting for a ready host after this long.
const MAX_SETTLE: Duration = Duration::from_secs(15);

/// Median round trip, microseconds, of 100 messages to a thread that
/// is parked when each arrives.
fn wake_round_trip_us() -> f64 {
    let (ping, ping_in) = crossbeam::channel::unbounded::<()>();
    let (pong_out, pong) = crossbeam::channel::unbounded::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || while ping_in.recv().is_ok() && pong_out.send(()).is_ok() {});
        let round_trips: Vec<f64> = (0..100)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(300));
                let t = Instant::now();
                ping.send(()).expect("echo thread is alive");
                pong.recv().expect("echo thread is alive");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(ping);
        crate::measure::median(&round_trips)
    })
}

/// Waits, idle, until the host wakes a parked thread quickly again.
///
/// A virtual CPU that has just been busy (a build, another workload)
/// is rescheduled by its host only after tens of microseconds when it
/// halts. Steady light traffic then keeps it in that state; some
/// seconds of idleness bring wake-ups back to a few microseconds. A
/// request on `serve-steady` crosses about ten wake-ups, so without
/// this the same code reads 0.2 ms or 0.35 ms depending on what ran
/// before the benchmark. Probes the wake-up round trip once a second
/// and returns when it is under [`READY_WAKE_US`] or after
/// [`MAX_SETTLE`]: the seconds waited and the last round trip in
/// microseconds.
pub fn settle() -> (f64, f64) {
    let started = Instant::now();
    loop {
        let wake_us = wake_round_trip_us();
        if wake_us < READY_WAKE_US || started.elapsed() >= MAX_SETTLE {
            return (started.elapsed().as_secs_f64(), wake_us);
        }
        std::thread::sleep(Duration::from_secs(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_one_schedule() {
        let a = Schedule::poisson(2_000.0, 1.5, 42);
        let b = Schedule::poisson(2_000.0, 1.5, 42);
        assert_eq!(a, b);
        assert_ne!(a, Schedule::poisson(2_000.0, 1.5, 43));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_order() {
        let s = Schedule::poisson(1_000.0, 4.0, 7);
        assert!(
            (3_700..4_300).contains(&s.due.len()),
            "{} requests",
            s.due.len()
        );
        assert!(s.due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.due.last().unwrap() < Duration::from_secs(4));
    }

    #[test]
    fn burst_is_due_at_once() {
        let s = Schedule::burst(5);
        assert_eq!(s.due.len(), 5);
        assert!(s.due.iter().all(|d| d.is_zero()));
    }

    #[test]
    fn generator_submits_every_request_and_counts_refusals() {
        let schedule = Schedule::burst(6);
        // Capacity 4, nobody draining: the last two are refused.
        let (handle, _ingress) = bamboo::serving::channel(4);
        let sent = run(&schedule, Instant::now(), &handle);
        assert_eq!(sent.late_us.len(), 6);
        assert_eq!(sent.refused, vec![4, 5]);
        assert_eq!(handle.pending(), 4);
    }
}
