//! Dense per-variable node state: one slot per [`VarId`], indexed, where
//! the protocols used to keep ordered maps keyed by variable.
//!
//! Variable ids are dense and zero-based ([`histories::Distribution`]
//! numbers them `0..var_count`), so a `Vec` indexed by id answers every
//! lookup with one bounds check — no tree walk, no node allocation per
//! insert. A slot never written reads as absent, exactly like a missing
//! map key, and equality ignores never-written slots, so snapshot/restore
//! and clone comparisons keep their map meaning.

use histories::VarId;
use std::fmt;

/// Per-variable state of one node, indexed by [`VarId`].
///
/// The `Vec` is exactly as long as the highest variable written since the
/// last [`Store::clear`] requires, so stores holding the same written
/// values hold equal `Vec`s and the derived equality is map equality.
#[derive(Clone, PartialEq)]
pub(crate) struct Store<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store { slots: Vec::new() }
    }
}

impl<T> Store<T> {
    /// The value written to `var`, if any.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn get(&self, var: VarId) -> Option<&T> {
        self.slots.get(var.index()).and_then(Option::as_ref)
    }

    /// Set `var`'s slot.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn insert(&mut self, var: VarId, value: T) {
        match self.slots.get_mut(var.index()) {
            Some(slot) => *slot = Some(value),
            None => {
                self.slots.resize_with(var.index(), || None);
                self.slots.push(Some(value));
            }
        }
    }

    /// Run `f` on `var`'s slot, starting from `T::default()` if it was
    /// never written — `map.entry(var).or_default()`, without handing out
    /// a reference that a grown `Vec` could not give back panic-free.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn update(&mut self, var: VarId, f: impl FnOnce(&mut T))
    where
        T: Default,
    {
        if let Some(Some(value)) = self.slots.get_mut(var.index()) {
            return f(value);
        }
        let mut value = T::default();
        f(&mut value);
        self.insert(var, value);
    }

    /// Forget every slot, keeping the allocation for the next round.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// How many variables hold a value.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The written slots, in variable order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VarId, &T)> + '_ {
        (self.slots.iter().enumerate()).filter_map(|(i, s)| s.as_ref().map(|v| (VarId(i), v)))
    }
}

impl<T: fmt::Debug> fmt::Debug for Store<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn never_written_slots_read_absent_and_do_not_count_for_equality() {
        let mut grown = Store::default();
        grown.insert(VarId(9), 1);
        grown.insert(VarId(2), 3);
        assert_eq!(grown.get(VarId(5)), None, "a gap inside the grown range");
        assert_eq!(grown.get(VarId(40)), None, "past the end");
        let mut small = Store::default();
        small.insert(VarId(2), 3);
        assert_ne!(grown, small);
        small.insert(VarId(9), 1);
        assert_eq!(grown, small);
        assert_eq!(format!("{grown:?}"), "{x2: 3, x9: 1}");
        assert_eq!(grown.len(), 2);
    }

    #[test]
    fn clear_keeps_the_allocation() {
        let mut store = Store::default();
        store.insert(VarId(63), 'x');
        let capacity = store.slots.capacity();
        store.clear();
        assert_eq!(store.len(), 0);
        assert_eq!(store, Store::default());
        assert_eq!(store.slots.capacity(), capacity);
        store.insert(VarId(63), 'y');
        assert_eq!(store.slots.capacity(), capacity, "refilled in place");
    }

    /// One step of the model run, on variables `0..24`.
    #[derive(Clone, Debug)]
    enum Step {
        Get(usize),
        Insert(usize, u64),
        /// `map.entry(var).or_default() += add` against `update`.
        Entry(usize, u64),
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..8, 0usize..24, 0u64..5).prop_map(|(kind, var, n)| match kind {
            0..=2 => Step::Get(var),
            3 | 4 => Step::Insert(var, n),
            5 | 6 => Step::Entry(var, n),
            _ => Step::Clear,
        })
    }

    fn apply(store: &mut Store<u64>, model: &mut BTreeMap<VarId, u64>, s: &Step) {
        match *s {
            Step::Get(_) => {}
            Step::Insert(x, v) => {
                store.insert(VarId(x), v);
                model.insert(VarId(x), v);
            }
            Step::Entry(x, add) => {
                store.update(VarId(x), |v| *v += add);
                *model.entry(VarId(x)).or_default() += add;
            }
            Step::Clear => {
                store.clear();
                model.clear();
            }
        }
    }

    proptest! {
        /// `Store` behaves as the `BTreeMap` it replaced: every lookup,
        /// the written count and the iteration agree after every step.
        #[test]
        fn store_matches_a_btreemap(steps in proptest::collection::vec(step(), 0..120)) {
            let mut store = Store::default();
            let mut model = BTreeMap::new();
            for s in &steps {
                apply(&mut store, &mut model, s);
                if let Step::Get(x) = *s {
                    prop_assert_eq!(store.get(VarId(x)), model.get(&VarId(x)));
                }
                prop_assert_eq!(store.len(), model.len());
                let written: Vec<(VarId, u64)> = store.iter().map(|(x, &v)| (x, v)).collect();
                let modelled: Vec<(VarId, u64)> = model.iter().map(|(&x, &v)| (x, v)).collect();
                prop_assert_eq!(written, modelled);
            }
        }

        /// Two stores are equal exactly when their maps are, whatever
        /// variables each was grown to: different write sets, the same
        /// set written in different orders, and writes undone by a clear.
        #[test]
        fn store_equality_is_map_equality(
            a in proptest::collection::vec(step(), 0..40),
            b in proptest::collection::vec(step(), 0..40),
        ) {
            let (mut sa, mut ma) = (Store::default(), BTreeMap::new());
            let (mut sb, mut mb) = (Store::default(), BTreeMap::new());
            for s in &a {
                apply(&mut sa, &mut ma, s);
            }
            for s in &b {
                apply(&mut sb, &mut mb, s);
            }
            prop_assert_eq!(sa == sb, ma == mb);
            prop_assert_eq!(&sa.clone(), &sa);
            // The same map, written backwards into a store cleared after
            // growing further.
            let mut rebuilt = Store::default();
            rebuilt.insert(VarId(99), 0);
            rebuilt.clear();
            for (&x, &v) in ma.iter().rev() {
                rebuilt.insert(x, v);
            }
            prop_assert_eq!(rebuilt, sa);
        }
    }
}
