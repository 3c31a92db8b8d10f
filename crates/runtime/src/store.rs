//! The runtime object store: dispatch metadata plus payloads.
//!
//! Every object participating in task dispatch has a store entry holding
//! its class, bound tag instances, lock class and payload; its dispatch
//! state (flags, home instance) lives in the event kernel's columns.
//! Payloads are either native `Box<dyn Any>` values or references into
//! the DSL interpreter heap.
//!
//! Lock classes implement the disjointness analysis's shared-lock
//! directive: when a task that may introduce sharing between two
//! parameters completes, their lock classes are merged (union-find), so
//! every later invocation locking either object locks their common lock.

use crate::program::NativePayload;
use bamboo_analysis::UnionFind;
use bamboo_lang::ids::{ClassId, TagTypeId};
use bamboo_lang::interp::{ObjRef, TagInstance};
use std::fmt;

/// Identifies an object in the [`ObjectStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rtobj#{}", self.0)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rtobj#{}", self.0)
    }
}

/// An object's payload.
pub enum PayloadSlot {
    /// A native Rust value.
    Native(NativePayload),
    /// A reference into the DSL interpreter heap.
    Interp(ObjRef),
    /// Temporarily moved into an executing task.
    Taken,
    /// Released after the object left dispatch.
    Dead,
}

impl fmt::Debug for PayloadSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadSlot::Native(_) => write!(f, "Native(..)"),
            PayloadSlot::Interp(r) => write!(f, "Interp({r})"),
            PayloadSlot::Taken => write!(f, "Taken"),
            PayloadSlot::Dead => write!(f, "Dead"),
        }
    }
}

/// One dispatchable object.
#[derive(Debug)]
pub struct RtObject {
    /// The object's class.
    pub class: ClassId,
    /// Bound tag instances.
    pub tags: Vec<(TagTypeId, TagInstance)>,
    /// Lock class index (see [`ObjectStore::merge_locks`]).
    pub lock: usize,
    /// The payload.
    pub payload: PayloadSlot,
}

/// The store: objects, lock classes, and the tag-instance counter.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: Vec<RtObject>,
    locks: UnionFind,
    next_tag: u64,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Number of objects ever allocated.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates an object, assigning a fresh lock class.
    pub fn alloc(
        &mut self,
        class: ClassId,
        tags: Vec<(TagTypeId, TagInstance)>,
        payload: PayloadSlot,
    ) -> ObjId {
        let lock = self.locks.push();
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(RtObject {
            class,
            tags,
            lock,
            payload,
        });
        id
    }

    /// Borrows an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ObjId) -> &RtObject {
        &self.objects[id.index()]
    }

    /// Mutably borrows an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: ObjId) -> &mut RtObject {
        &mut self.objects[id.index()]
    }

    /// Takes a native payload out for execution.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not native or was already taken.
    pub fn take_native(&mut self, id: ObjId) -> NativePayload {
        match std::mem::replace(&mut self.objects[id.index()].payload, PayloadSlot::Taken) {
            PayloadSlot::Native(p) => p,
            other => panic!("cannot take payload of {id}: {other:?}"),
        }
    }

    /// Returns a payload after execution.
    pub fn put_native(&mut self, id: ObjId, payload: NativePayload) {
        self.objects[id.index()].payload = PayloadSlot::Native(payload);
    }

    /// Drops an object's payload once it leaves dispatch.
    pub fn kill(&mut self, id: ObjId) {
        self.objects[id.index()].payload = PayloadSlot::Dead;
    }

    /// Mints a fresh tag instance.
    pub fn mint_tag(&mut self) -> TagInstance {
        self.next_tag += 1;
        TagInstance(self.next_tag)
    }

    /// Returns the representative lock of `id`'s lock class.
    pub fn lock_of(&mut self, id: ObjId) -> usize {
        let lock = self.objects[id.index()].lock;
        self.locks.find(lock)
    }

    /// Merges the lock classes of two objects (shared-lock directive from
    /// the disjointness analysis).
    pub fn merge_locks(&mut self, a: ObjId, b: ObjId) {
        let (la, lb) = (self.objects[a.index()].lock, self.objects[b.index()].lock);
        self.locks.union(la, lb);
    }

    /// Iterates over all `(ObjId, &RtObject)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &RtObject)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjId(i as u32), o))
    }

    /// Returns live (non-dead) objects of `class`.
    pub fn live_of_class(&self, class: ClassId) -> Vec<ObjId> {
        self.iter()
            .filter(|(_, o)| o.class == class && !matches!(o.payload, PayloadSlot::Dead))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_two() -> (ObjectStore, ObjId, ObjId) {
        let mut store = ObjectStore::new();
        let a = store.alloc(ClassId::new(0), vec![], PayloadSlot::Native(Box::new(1i64)));
        let b = store.alloc(ClassId::new(0), vec![], PayloadSlot::Native(Box::new(2i64)));
        (store, a, b)
    }

    #[test]
    fn take_and_put_payload() {
        let (mut store, a, _) = store_with_two();
        let p = store.take_native(a);
        assert!(matches!(store.get(a).payload, PayloadSlot::Taken));
        store.put_native(a, p);
        assert!(matches!(store.get(a).payload, PayloadSlot::Native(_)));
    }

    #[test]
    #[should_panic(expected = "cannot take payload")]
    fn double_take_panics() {
        let (mut store, a, _) = store_with_two();
        store.take_native(a);
        store.take_native(a);
    }

    #[test]
    fn lock_classes_merge() {
        let (mut store, a, b) = store_with_two();
        assert_ne!(store.lock_of(a), store.lock_of(b));
        store.merge_locks(a, b);
        assert_eq!(store.lock_of(a), store.lock_of(b));
    }

    #[test]
    fn tags_mint_unique() {
        let mut store = ObjectStore::new();
        let t1 = store.mint_tag();
        let t2 = store.mint_tag();
        assert_ne!(t1, t2);
    }

    #[test]
    fn live_of_class_skips_dead() {
        let (mut store, a, b) = store_with_two();
        store.kill(a);
        assert_eq!(store.live_of_class(ClassId::new(0)), vec![b]);
    }
}
