//! Deterministic fault injection for the threaded executor.
//!
//! A [`FaultSpec`] describes the faults a run should suffer — core
//! kills, core stalls, message drops/delays, lock slowdown — as *rates
//! and trigger points*, not as a wall-clock script. At run start the
//! executor compiles the spec against the deployment's steal topology
//! into a [`FaultPlan`]; every per-message and per-invocation decision
//! is a pure hash of `(seed, id)`, so the *fault schedule* (which
//! message ids drop, which invocation ids slow down, which core dies
//! after how many dispatches) is byte-identical across runs of the same
//! seed and layout even though the OS interleaves threads differently
//! each time.
//!
//! The determinism contract (DESIGN.md §14): identical `(seed, layout)`
//! ⇒ identical [`FaultPlan::schedule`] rendering, and — because message
//! ids always form the dense set `1..=M` with `M` fixed by the program —
//! an identical multiset of drop/delay decisions. *When* each decision
//! bites still depends on thread timing; recovery must therefore be
//! correct under every interleaving, which is exactly what the chaos
//! tests exercise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which core a [`CoreKill`] takes down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillTarget {
    /// A specific core of the layout.
    Core(usize),
    /// A core chosen at plan compile time (seeded, deterministic) among
    /// cores whose hosted groups *all* have a second host — killing it
    /// can never strand work, so the run must still produce the
    /// fault-free result. When no such core exists the kill is skipped
    /// (recorded in the schedule).
    Expendable,
}

/// Kill one core after it has completed a number of dispatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreKill {
    /// The victim.
    pub target: KillTarget,
    /// Dispatches the victim completes before dying (0 = before its
    /// first dispatch).
    pub after_dispatches: u64,
}

/// Stall one core for a duration at a precise dispatch count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreStall {
    /// The stalled core.
    pub core: usize,
    /// The dispatch count at which the stall fires.
    pub at_dispatch: u64,
    /// How long the core sleeps.
    pub duration: Duration,
}

/// Whether the executor may recover from core kills.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Dead-core failover: the victim's run queue is drained by
    /// same-group peers through the steal path, its parameter-set
    /// objects are re-sent to live hosts, and a send bound for the dead
    /// core is retargeted to a live replica of its instance in the live
    /// assignment, picked by the object's tag (else its message id), so
    /// objects routed together stay together. Requires same-group
    /// stealing.
    #[default]
    Enabled,
    /// A kill fails the run with `ExecError::CoreLost` (typed, never a
    /// hang).
    Disabled,
}

/// User-facing fault description, carried by
/// [`crate::RunOptions::faults`].
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Seed of every per-id fault decision.
    pub seed: u64,
    /// Core kills.
    pub kills: Vec<CoreKill>,
    /// Core stalls.
    pub stalls: Vec<CoreStall>,
    /// Per-mille of worker-sent messages whose first transmission is
    /// dropped (the driver's startup send is exempt).
    pub drop_permille: u16,
    /// Per-mille of worker-sent messages delivered late.
    pub delay_permille: u16,
    /// How late a delayed message arrives.
    pub delay: Duration,
    /// Per-mille of invocations whose lock acquisition is slowed.
    pub lock_slowdown_permille: u16,
    /// How long a slowed lock acquisition takes.
    pub lock_slowdown: Duration,
    /// Kill recovery policy.
    pub recovery: RecoveryPolicy,
}

/// Redelivery attempts before a dropped message is declared lost
/// (`ExecError::MessageLost`).
pub const MAX_REDELIVERIES: u32 = 8;
/// Cumulative redelivery backoff budget per message; exceeding it also
/// declares the message lost.
pub const MESSAGE_DEADLINE: Duration = Duration::from_secs(1);
/// First redelivery backoff; doubles per consecutive drop.
pub const BACKOFF_BASE: Duration = Duration::from_micros(20);

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            kills: Vec::new(),
            stalls: Vec::new(),
            drop_permille: 0,
            delay_permille: 0,
            delay: Duration::from_micros(50),
            lock_slowdown_permille: 0,
            lock_slowdown: Duration::from_micros(20),
            recovery: RecoveryPolicy::Enabled,
        }
    }
}

impl FaultSpec {
    /// An empty plan (no faults) with the given seed — the base for the
    /// builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// The default chaos plan the CI matrix runs: one expendable-core
    /// kill after two dispatches plus a 2% message drop rate and a 5%
    /// 50µs delivery delay.
    pub fn default_plan(seed: u64) -> Self {
        FaultSpec::seeded(seed)
            .with_kill(KillTarget::Expendable, 2)
            .with_drops(20)
            .with_delays(50, Duration::from_micros(50))
    }

    /// Adds a core kill.
    #[must_use]
    pub fn with_kill(mut self, target: KillTarget, after_dispatches: u64) -> Self {
        self.kills.push(CoreKill {
            target,
            after_dispatches,
        });
        self
    }

    /// Adds a core stall.
    #[must_use]
    pub fn with_stall(mut self, core: usize, at_dispatch: u64, duration: Duration) -> Self {
        self.stalls.push(CoreStall {
            core,
            at_dispatch,
            duration,
        });
        self
    }

    /// Sets the message drop rate (per mille, clamped to ≤ 1000).
    #[must_use]
    pub fn with_drops(mut self, permille: u16) -> Self {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Sets the message delay rate and duration.
    #[must_use]
    pub fn with_delays(mut self, permille: u16, delay: Duration) -> Self {
        self.delay_permille = permille.min(1000);
        self.delay = delay;
        self
    }

    /// Sets the lock-slowdown rate and duration.
    #[must_use]
    pub fn with_lock_slowdown(mut self, permille: u16, slowdown: Duration) -> Self {
        self.lock_slowdown_permille = permille.min(1000);
        self.lock_slowdown = slowdown;
        self
    }

    /// Sets the kill recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Which cores fault injection has killed: what the threaded executor's
/// failover routes around.
#[derive(Debug)]
pub struct Liveness {
    /// `dead[core]`: the core was killed; failover sends nothing to it.
    dead: Vec<AtomicBool>,
}

impl Liveness {
    /// Every one of `cores` cores (at least one) live.
    pub fn new(cores: usize) -> Self {
        Liveness {
            dead: (0..cores.max(1)).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks `core` dead: from now on failover retargets every send
    /// bound for it to a live replica.
    pub fn mark_dead(&self, core: usize) {
        if let Some(flag) = self.dead.get(core) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Whether `core` was marked dead.
    pub fn is_dead(&self, core: usize) -> bool {
        self.dead
            .get(core)
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }
}

/// splitmix64: a full-avalanche mix of `(seed, salt, id)` — the sole
/// source of randomness in fault decisions, so they replay exactly.
fn mix(seed: u64, salt: u64, id: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(id);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const DROP_SALT: u64 = 0x01;
const DELAY_SALT: u64 = 0x02;
const LOCK_SALT: u64 = 0x03;
const TARGET_SALT: u64 = 0x04;

/// A [`FaultSpec`] compiled against one deployment's steal topology:
/// kill targets resolved to concrete cores, per-id decisions reduced to
/// pure hash probes, and the whole schedule rendered once for the
/// determinism gate.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-core dispatch count at which the core dies (`None` = never).
    kill_after: Vec<Option<u64>>,
    /// Per-core `(at_dispatch, duration)` stalls.
    stalls: Vec<Vec<(u64, Duration)>>,
    schedule: String,
}

impl FaultPlan {
    /// Compiles `spec` for a deployment with `core_count` cores.
    /// `group_cores[g]` lists the cores hosting group `g`; `hosted
    /// [core][g]` says whether `core` hosts `g` (the same topology the
    /// steal path uses). Both drive [`KillTarget::Expendable`]
    /// resolution, which is deterministic in `(seed, topology)`.
    pub fn compile(spec: &FaultSpec, group_cores: &[Vec<usize>], hosted: &[Vec<bool>]) -> Self {
        let core_count = hosted.len();
        let mut kill_after: Vec<Option<u64>> = vec![None; core_count];
        let mut lines: Vec<String> = vec![format!("chaos schedule (seed {})", spec.seed)];
        let expendable: Vec<usize> = (0..core_count)
            .filter(|&c| {
                let groups: Vec<usize> = (0..group_cores.len()).filter(|&g| hosted[c][g]).collect();
                !groups.is_empty() && groups.iter().all(|&g| group_cores[g].len() >= 2)
            })
            .collect();
        for (i, kill) in spec.kills.iter().enumerate() {
            let resolved = match kill.target {
                KillTarget::Core(c) if c < core_count => Some(c),
                KillTarget::Core(_) => None,
                KillTarget::Expendable if !expendable.is_empty() => {
                    let pick = mix(spec.seed, TARGET_SALT, i as u64) as usize;
                    Some(expendable[pick % expendable.len()])
                }
                KillTarget::Expendable => None,
            };
            match resolved {
                Some(core) => {
                    let after = match kill_after[core] {
                        Some(prev) => prev.min(kill.after_dispatches),
                        None => kill.after_dispatches,
                    };
                    kill_after[core] = Some(after);
                    lines.push(format!(
                        "kill core {core} after {} dispatches",
                        kill.after_dispatches
                    ));
                }
                None => lines.push(format!("kill {:?} skipped (unresolvable)", kill.target)),
            }
        }
        let mut stalls: Vec<Vec<(u64, Duration)>> = vec![Vec::new(); core_count];
        for stall in &spec.stalls {
            if stall.core < core_count {
                stalls[stall.core].push((stall.at_dispatch, stall.duration));
                lines.push(format!(
                    "stall core {} at dispatch {} for {:?}",
                    stall.core, stall.at_dispatch, stall.duration
                ));
            } else {
                lines.push(format!("stall core {} skipped (out of range)", stall.core));
            }
        }
        for per_core in &mut stalls {
            per_core.sort_unstable();
        }
        lines.push(format!(
            "drop {}/1000 messages (max {} redeliveries, deadline {:?}, backoff {:?})",
            spec.drop_permille, MAX_REDELIVERIES, MESSAGE_DEADLINE, BACKOFF_BASE
        ));
        lines.push(format!(
            "delay {}/1000 messages by {:?}",
            spec.delay_permille, spec.delay
        ));
        lines.push(format!(
            "lock-slowdown {}/1000 invocations by {:?}",
            spec.lock_slowdown_permille, spec.lock_slowdown
        ));
        lines.push(format!("recovery {:?}", spec.recovery));
        FaultPlan {
            spec: spec.clone(),
            kill_after,
            stalls,
            schedule: lines.join("\n"),
        }
    }

    /// The dispatch count at which `core` dies, if it is a kill victim.
    pub fn kill_after(&self, core: usize) -> Option<u64> {
        self.kill_after.get(core).copied().flatten()
    }

    /// The stall duration scheduled for `core` at exactly
    /// `dispatch_count` completed dispatches.
    pub fn stall_at(&self, core: usize, dispatch_count: u64) -> Option<Duration> {
        self.stalls
            .get(core)?
            .iter()
            .find(|(at, _)| *at == dispatch_count)
            .map(|(_, d)| *d)
    }

    /// How many consecutive transmissions of message `msg` are dropped
    /// (0 = delivered first try). Bounded by [`MAX_REDELIVERIES`], so a
    /// saturated result means the message is permanently lost.
    pub fn drop_attempts(&self, msg: u64) -> u32 {
        if self.spec.drop_permille == 0 {
            return 0;
        }
        let mut n = 0;
        while n < MAX_REDELIVERIES {
            if mix(self.spec.seed, DROP_SALT + u64::from(n), msg) % 1000
                >= u64::from(self.spec.drop_permille)
            {
                break;
            }
            n += 1;
        }
        n
    }

    /// The delivery delay injected on message `msg`, if any.
    pub fn delay_of(&self, msg: u64) -> Option<Duration> {
        (self.spec.delay_permille > 0
            && mix(self.spec.seed, DELAY_SALT, msg) % 1000 < u64::from(self.spec.delay_permille))
        .then_some(self.spec.delay)
    }

    /// The lock-acquisition slowdown injected on invocation `inv`, if
    /// any.
    pub fn lock_slowdown_of(&self, inv: u64) -> Option<Duration> {
        (self.spec.lock_slowdown_permille > 0
            && mix(self.spec.seed, LOCK_SALT, inv) % 1000
                < u64::from(self.spec.lock_slowdown_permille))
        .then_some(self.spec.lock_slowdown)
    }

    /// Backoff before redelivery attempt `attempt` (0-based): the base
    /// doubled per consecutive drop.
    pub fn backoff(&self, attempt: u32) -> Duration {
        BACKOFF_BASE.saturating_mul(1u32 << attempt.min(16))
    }

    /// Whether dead-core failover is on.
    pub fn recovery_enabled(&self) -> bool {
        self.spec.recovery == RecoveryPolicy::Enabled
    }

    /// The resolved fault schedule, rendered deterministically: a pure
    /// function of `(spec, topology)`. Two runs with the same seed and
    /// layout produce byte-identical schedules — the chaos gate's
    /// determinism check compares exactly this string.
    pub fn schedule(&self) -> &str {
        &self.schedule
    }

    /// FNV-1a digest of [`Self::schedule`].
    pub fn schedule_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.schedule.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 cores; group 0 on cores {0}, group 1 on {0,1,2,3}, group 2 on
    /// {3}: cores 1 and 2 host only the replicated group.
    fn topology() -> (Vec<Vec<usize>>, Vec<Vec<bool>>) {
        let group_cores = vec![vec![0], vec![0, 1, 2, 3], vec![3]];
        let hosted = vec![
            vec![true, true, false],
            vec![false, true, false],
            vec![false, true, false],
            vec![false, true, true],
        ];
        (group_cores, hosted)
    }

    #[test]
    fn expendable_kill_resolves_to_a_replicated_only_core() {
        let (group_cores, hosted) = topology();
        let spec = FaultSpec::seeded(7).with_kill(KillTarget::Expendable, 3);
        let plan = FaultPlan::compile(&spec, &group_cores, &hosted);
        let victims: Vec<usize> = (0..4).filter(|&c| plan.kill_after(c).is_some()).collect();
        assert_eq!(victims.len(), 1);
        assert!(
            victims[0] == 1 || victims[0] == 2,
            "core {} is not expendable",
            victims[0]
        );
        assert_eq!(plan.kill_after(victims[0]), Some(3));
    }

    #[test]
    fn expendable_kill_is_skipped_when_no_core_qualifies() {
        // Single host per group: killing anything strands work.
        let group_cores = vec![vec![0], vec![1]];
        let hosted = vec![vec![true, false], vec![false, true]];
        let spec = FaultSpec::seeded(1).with_kill(KillTarget::Expendable, 0);
        let plan = FaultPlan::compile(&spec, &group_cores, &hosted);
        assert!((0..2).all(|c| plan.kill_after(c).is_none()));
        assert!(plan.schedule().contains("skipped"), "{}", plan.schedule());
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let (group_cores, hosted) = topology();
        let spec = FaultSpec::default_plan(42);
        let a = FaultPlan::compile(&spec, &group_cores, &hosted);
        let b = FaultPlan::compile(&spec, &group_cores, &hosted);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        // Decisions replay exactly too.
        for msg in 1..=500 {
            assert_eq!(a.drop_attempts(msg), b.drop_attempts(msg));
            assert_eq!(a.delay_of(msg), b.delay_of(msg));
        }
        // A different seed draws a different decision multiset.
        let other = FaultPlan::compile(&FaultSpec::default_plan(43), &group_cores, &hosted);
        assert!((1..=500).any(|m| a.drop_attempts(m) != other.drop_attempts(m)));
    }

    #[test]
    fn drop_rate_tracks_the_permille() {
        let (group_cores, hosted) = topology();
        let spec = FaultSpec::seeded(9).with_drops(100); // 10%
        let plan = FaultPlan::compile(&spec, &group_cores, &hosted);
        let dropped = (1..=10_000).filter(|&m| plan.drop_attempts(m) > 0).count();
        assert!(
            (800..1200).contains(&dropped),
            "10% of 10k ±20%, got {dropped}"
        );
        // Rate 0 never drops; the backoff ladder doubles.
        let quiet = FaultPlan::compile(&FaultSpec::seeded(9), &group_cores, &hosted);
        assert!((1..=1000).all(|m| quiet.drop_attempts(m) == 0));
        assert_eq!(plan.backoff(1), plan.backoff(0) * 2);
    }

    #[test]
    fn stalls_and_lock_slowdowns_schedule_precisely() {
        let (group_cores, hosted) = topology();
        let spec = FaultSpec::seeded(3)
            .with_stall(2, 5, Duration::from_micros(200))
            .with_lock_slowdown(1000, Duration::from_micros(30));
        let plan = FaultPlan::compile(&spec, &group_cores, &hosted);
        assert_eq!(plan.stall_at(2, 5), Some(Duration::from_micros(200)));
        assert_eq!(plan.stall_at(2, 4), None);
        assert_eq!(plan.stall_at(1, 5), None);
        // 1000‰ slows every invocation.
        assert!((1..=50).all(|i| plan.lock_slowdown_of(i).is_some()));
    }
}
