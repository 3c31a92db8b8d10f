//! Invocation formation (paper §4.6), the one rule the threaded
//! runtime, the virtual executor and the simulator all call: a
//! [`SlotTable`] decides which slots accept an arriving object, and
//! [`pick`] decides which buffered entries form one invocation. Each
//! caller keeps what really differs: how it stores an entry, what makes
//! one stale, how tags compare, and whether an object goes to the first
//! accepting slot or to every one (DESIGN.md §11).

use crate::groups::GroupGraph;
use bamboo_lang::ids::{ClassId, ParamIdx, TaskId};
use bamboo_lang::spec::{FlagExpr, FlagSet, ProgramSpec, MAX_PARAMS};
use std::collections::VecDeque;
use std::ops::Range;

/// A [`FlagExpr`] compiled to a truth table over its mentioned flags.
///
/// A guard's value depends only on the flags it mentions, so when those
/// number at most six the whole function fits in one 64-entry bit table
/// indexed by the gathered mentioned bits — exact, and an order of
/// magnitude cheaper than walking the boxed expression tree on every
/// delivery. Wider guards (not seen in practice) keep the interpreted
/// fallback.
#[derive(Clone, Debug)]
pub struct CompiledGuard {
    /// Bit positions of the mentioned flags, low to high.
    positions: [u8; 6],
    k: u8,
    table: u64,
    /// Interpreted fallback for guards mentioning > 6 flags.
    fallback: Option<Box<FlagExpr>>,
}

impl CompiledGuard {
    /// Compiles `guard`.
    pub fn compile(guard: &FlagExpr) -> Self {
        let mask = guard.mentioned_flags().bits();
        let k = mask.count_ones() as usize;
        if k > 6 {
            return CompiledGuard {
                positions: [0; 6],
                k: 0,
                table: 0,
                fallback: Some(Box::new(guard.clone())),
            };
        }
        let mut positions = [0u8; 6];
        for (at, flag) in guard.mentioned_flags().iter().enumerate() {
            positions[at] = flag.index() as u8;
        }
        let mut table = 0u64;
        for idx in 0..(1u64 << k) {
            let mut bits = 0u64;
            for (i, &pos) in positions[..k].iter().enumerate() {
                bits |= ((idx >> i) & 1) << pos;
            }
            if guard.eval(FlagSet::from_bits(bits)) {
                table |= 1 << idx;
            }
        }
        CompiledGuard {
            positions,
            k: k as u8,
            table,
            fallback: None,
        }
    }

    /// Evaluates the guard against `flags`; equal to [`FlagExpr::eval`]
    /// of the compiled expression.
    #[inline]
    pub fn eval(&self, flags: FlagSet) -> bool {
        if let Some(guard) = &self.fallback {
            return guard.eval(flags);
        }
        let bits = flags.bits();
        let mut idx = 0u64;
        for i in 0..self.k as usize {
            idx |= ((bits >> self.positions[i]) & 1) << i;
        }
        (self.table >> idx) & 1 != 0
    }
}

/// One `(task, param)` slot of a group: where objects wait to become
/// that parameter.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The task.
    pub task: TaskId,
    /// The parameter of `task` this slot buffers.
    pub param: ParamIdx,
    /// The class the parameter accepts.
    pub class: ClassId,
    /// The parameter's guard.
    pub guard: CompiledGuard,
    /// Whether the parameter carries tag constraints.
    pub tagged: bool,
}

/// The slots of one core group: every hosted task contributes one slot
/// per parameter, in group-task order, so a task's slots are contiguous.
#[derive(Clone, Debug)]
pub struct SlotTable {
    slots: Vec<Slot>,
    /// Per task id: the task's slot range (empty when not hosted).
    spans: Vec<(u32, u32)>,
}

impl SlotTable {
    /// The table of a group hosting `tasks`, in that order.
    pub fn new(spec: &ProgramSpec, tasks: &[TaskId]) -> Self {
        let mut slots = Vec::new();
        let mut spans = vec![(0, 0); spec.tasks.len()];
        for &task in tasks {
            let start = slots.len() as u32;
            for (p, param) in spec.task(task).params.iter().enumerate() {
                slots.push(Slot {
                    task,
                    param: ParamIdx::new(p),
                    class: param.class,
                    guard: CompiledGuard::compile(&param.guard),
                    tagged: !param.tags.is_empty(),
                });
            }
            spans[task.index()] = (start, slots.len() as u32);
        }
        SlotTable { slots, spans }
    }

    /// One table per group of `graph`, indexed by group id.
    pub fn per_group(spec: &ProgramSpec, graph: &GroupGraph) -> Vec<SlotTable> {
        graph
            .groups
            .iter()
            .map(|group| SlotTable::new(spec, &group.tasks))
            .collect()
    }

    /// Every slot, in group-task order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The slots of `task`, one per parameter in order.
    #[inline]
    pub fn task_slots(&self, task: TaskId) -> Range<usize> {
        let (start, end) = self.spans[task.index()];
        start as usize..end as usize
    }

    /// Every slot whose parameter accepts an object of `class` in state
    /// `flags`, in slot order.
    #[inline]
    pub fn accepting(&self, class: ClassId, flags: FlagSet) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(move |(_, slot)| slot.class == class && slot.guard.eval(flags))
            .map(|(at, _)| at)
    }
}

/// A caller's verdict on one buffered entry during a [`pick`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// It can never be picked from this set again: drop it.
    Stale,
    /// It does not fit this pick (a tag conflict, or an object already
    /// picked for an earlier parameter): keep it in place.
    Skip,
    /// It fits: pick it for this parameter.
    Fits,
}

/// Why a [`pick`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miss {
    /// The failing set held no live entry (or the task has no
    /// parameters). Sets only shrink while forming, so only an arrival
    /// can change that.
    Empty,
    /// The failing set held live entries, none of which fit.
    Blocked,
}

/// The entries one successful [`pick`] chose: a position per parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    at: [u32; MAX_PARAMS],
    len: usize,
}

impl Pick {
    /// Removes the picked entries from the sets [`pick`] scanned,
    /// untouched since, and yields them in parameter order.
    pub fn take<'s, T>(&'s self, sets: &'s mut [VecDeque<T>]) -> impl Iterator<Item = T> + 's {
        sets.iter_mut()
            .zip(&self.at[..self.len])
            .map(|(set, &at)| set.remove(at as usize).expect("picked entry is buffered"))
    }
}

/// Picks, for each parameter in order (`sets[p]` buffers parameter
/// `p`), the first entry `probe(p, entry)` calls [`Probe::Fits`],
/// dropping the entries it calls [`Probe::Stale`] on the way. The probe
/// binds tags itself, in parameter order. Nothing else moves: after a
/// miss every set is as it was, minus stale entries.
///
/// # Panics
///
/// Panics on more than [`MAX_PARAMS`] sets, which `ProgramSpec::validate`
/// rejects.
#[inline]
pub fn pick<T>(
    sets: &mut [VecDeque<T>],
    mut probe: impl FnMut(usize, &T) -> Probe,
) -> Result<Pick, Miss> {
    // Most picks find nothing waiting for the first parameter; inlined,
    // this miss costs one length check.
    if sets.first().is_none_or(VecDeque::is_empty) {
        return Err(Miss::Empty);
    }
    assert!(sets.len() <= MAX_PARAMS, "task arity beyond MAX_PARAMS");
    let mut picked = Pick {
        at: [0; MAX_PARAMS],
        len: 0,
    };
    for (p, set) in sets.iter_mut().enumerate() {
        let mut live = false;
        let mut scan = 0;
        loop {
            let Some(entry) = set.get(scan) else {
                return Err(if live { Miss::Blocked } else { Miss::Empty });
            };
            match probe(p, entry) {
                Probe::Stale => {
                    set.remove(scan);
                }
                Probe::Skip => {
                    live = true;
                    scan += 1;
                }
                Probe::Fits => break,
            }
        }
        picked.at[p] = scan as u32;
        picked.len += 1;
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_lang::ids::FlagId;
    use proptest::prelude::*;

    /// The test probe: an entry's value mod 4 decides — 0 stale, 1 skip,
    /// anything else fits.
    fn verdict(entry: u32) -> Probe {
        match entry % 4 {
            0 => Probe::Stale,
            1 => Probe::Skip,
            _ => Probe::Fits,
        }
    }

    fn deques(sets: &[Vec<u32>]) -> Vec<VecDeque<u32>> {
        sets.iter()
            .map(|set| set.iter().copied().collect())
            .collect()
    }

    /// The rule spelled out: per parameter, stale entries ahead of the
    /// first fitting one are dropped and that one is picked; the first
    /// parameter with no fitting entry drops all its stale entries and
    /// misses, `Empty` when nothing live was left. Returns the sets
    /// after the call and the outcome.
    #[allow(clippy::type_complexity)]
    fn model(sets: &[Vec<u32>]) -> (Vec<Vec<u32>>, Result<Vec<u32>, Miss>) {
        let mut after: Vec<Vec<u32>> = sets.to_vec();
        if sets.is_empty() {
            return (after, Err(Miss::Empty));
        }
        let mut picks = Vec::new();
        for set in after.iter_mut() {
            let fit = set.iter().position(|&e| verdict(e) == Probe::Fits);
            let scanned = fit.unwrap_or(set.len());
            let mut kept: Vec<u32> = set[..scanned]
                .iter()
                .copied()
                .filter(|&e| verdict(e) == Probe::Skip)
                .collect();
            let live = kept.len();
            kept.extend_from_slice(&set[scanned..]);
            *set = kept;
            match fit {
                Some(_) => picks.push(live as u32),
                None if live > 0 => return (after, Err(Miss::Blocked)),
                None => return (after, Err(Miss::Empty)),
            }
        }
        (after, Ok(picks))
    }

    #[test]
    fn pick_takes_the_first_fitting_entry_per_parameter() {
        let mut sets = deques(&[vec![4, 5, 6, 7], vec![2, 3], vec![9, 8, 10]]);
        let picked = pick(&mut sets, |_, &e| verdict(e)).expect("every set fits");
        // 4 and 8 are stale and dropped; 5 and 9 are skipped and stay.
        assert_eq!(picked.at[..picked.len], [1, 0, 1]);
        let taken: Vec<u32> = picked.take(&mut sets).collect();
        assert_eq!(taken, [6, 2, 10]);
        assert_eq!(sets, deques(&[vec![5, 7], vec![3], vec![9]]));
    }

    #[test]
    fn a_failed_pick_moves_nothing_but_stale_drops() {
        // Parameter 1 holds only skips: the pick misses there, leaves
        // parameter 0's pick where it was, drops parameter 1's stale
        // entry and never looks at parameter 2.
        let mut sets = deques(&[vec![5, 6], vec![1, 4, 9], vec![8, 2]]);
        assert_eq!(pick(&mut sets, |_, &e| verdict(e)), Err(Miss::Blocked));
        assert_eq!(sets, deques(&[vec![5, 6], vec![1, 9], vec![8, 2]]));
        // Only stale entries: the miss is permanent.
        let mut sets = deques(&[vec![2], vec![4, 8]]);
        assert_eq!(pick(&mut sets, |_, &e| verdict(e)), Err(Miss::Empty));
        assert_eq!(sets, deques(&[vec![2], vec![]]));
        // No parameters: never forms.
        assert_eq!(pick::<u32>(&mut [], |_, _| Probe::Fits), Err(Miss::Empty));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `pick` against the spelled-out rule on random sets: the same
        /// picks, the same sets afterwards on a miss or a hit, and a miss
        /// flagged `Empty` exactly when the failing set held nothing live.
        #[test]
        fn pick_follows_the_rule(
            sets in collection::vec(collection::vec(0u32..16, 0..6), 0..5),
        ) {
            let (after, expected) = model(&sets);
            let mut got = deques(&sets);
            let outcome = pick(&mut got, |_, &e| verdict(e));
            prop_assert_eq!(outcome.map(|p| p.at[..p.len].to_vec()), expected);
            prop_assert_eq!(got, deques(&after));
        }
    }

    /// A guard built from random ops: leaves over flags `0..8`, `not`,
    /// `and`, `or` and constants folded on a stack. With `wide`, every
    /// one of the 8 flags is then mixed in, so the guard takes the
    /// interpreted fallback.
    fn guard_from(ops: &[(u8, usize)], wide: Option<u64>) -> FlagExpr {
        let leaf = |flag: usize| FlagExpr::flag(FlagId::new(flag));
        let mut stack: Vec<FlagExpr> = Vec::new();
        for &(op, flag) in ops {
            let expr = match op {
                0 => leaf(flag),
                1 => stack.pop().unwrap_or_else(|| leaf(flag)).not(),
                2 => stack.pop().unwrap_or_else(|| leaf(flag)).and(leaf(flag)),
                3 => stack.pop().unwrap_or_else(|| leaf(flag)).or(leaf(flag)),
                _ => FlagExpr::Const(flag % 2 == 0),
            };
            stack.push(expr);
        }
        let mut guard = stack
            .into_iter()
            .reduce(|a, b| {
                if a.mentioned_flags().len() % 2 == 0 {
                    a.and(b)
                } else {
                    a.or(b)
                }
            })
            .unwrap_or(FlagExpr::Const(true));
        if let Some(bits) = wide {
            for flag in 0..8 {
                let term = if bits >> (2 * flag) & 1 == 1 {
                    leaf(flag)
                } else {
                    leaf(flag).not()
                };
                guard = if bits >> (2 * flag + 1) & 1 == 1 {
                    guard.and(term)
                } else {
                    guard.or(term)
                };
            }
        }
        guard
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The compiled truth table and the interpreted fallback both
        /// agree with `FlagExpr::eval` on every valuation of 8 flags
        /// (with unrelated high bits set, which no guard mentions).
        #[test]
        fn compiled_guard_matches_interpreter(
            ops in collection::vec((0u8..5, 0usize..8), 1..24),
            wide in 0u8..2,
            bits in any::<u64>(),
        ) {
            let guard = guard_from(&ops, (wide == 1).then_some(bits));
            let mentioned = guard.mentioned_flags().len();
            prop_assert!(wide == 0 || mentioned == 8, "{}", guard);
            let compiled = CompiledGuard::compile(&guard);
            prop_assert_eq!(compiled.fallback.is_some(), mentioned > 6, "{}", guard);
            for valuation in 0..256u64 {
                let flags = FlagSet::from_bits(valuation | (bits & !0xff));
                prop_assert_eq!(compiled.eval(flags), guard.eval(flags), "{} at {:#x}", guard, valuation);
            }
        }
    }
}
