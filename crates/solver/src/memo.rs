//! An open-addressed memo table with *staged slots*.
//!
//! The search memo is consulted exactly twice per explored node: once at
//! activation (is the contribution set already known?) and once at completion
//! (store the set just assembled). With a standard `HashMap` those are two
//! independent hash walks over a 28-byte key. This table performs the walk
//! once: a miss returns a [`StagedSlot`] — the empty slot where the key would
//! live — and the completion insert goes straight to that slot when it is
//! still valid, falling back to a regular insert when a descendant's
//! insertion resized the table or collided into the reserved slot in the
//! meantime.
//!
//! ## Why the fallback preserves correctness
//!
//! Linear probing with no deletions gives two invariants the staged insert
//! leans on:
//!
//! * the staged slot was the *first* empty slot on the key's probe chain, and
//!   entries are never removed — so the key cannot have been inserted
//!   elsewhere while the slot is still empty (any insert of the same key
//!   would have landed exactly there);
//! * a resize invalidates every index, which is what the generation counter
//!   detects (it increments only on resize).
//!
//! Either check failing routes through [`MemoTable::insert`], which re-probes
//! from scratch — so the staged path is a pure fast path, never a semantic
//! one. The `staged_slot_survives_collisions_and_growth` test drives both
//! failure modes explicitly.

use rvmtl_mtl::hashing::FxHasher;
use std::hash::{Hash, Hasher};

/// Initial slot count of a table that has seen at least one insert. Must be a
/// power of two (the probe sequence masks, it does not modulo).
const INITIAL_SLOTS: usize = 16;

/// A reserved empty slot returned by a failed [`MemoTable::probe`], to be
/// redeemed by [`MemoTable::insert_staged`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedSlot {
    index: usize,
    generation: u64,
}

impl StagedSlot {
    /// A placeholder no table will redeem on the fast path (sentinel
    /// generation) — the initial value of pooled work-stack frames before
    /// activation stamps a real slot.
    pub(crate) fn invalid() -> Self {
        StagedSlot {
            index: 0,
            generation: u64::MAX,
        }
    }
}

/// Outcome of [`MemoTable::probe`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemoProbe {
    /// The key is present; redeem with [`MemoTable::value`].
    Hit(usize),
    /// The key is absent; the slot where it would be inserted.
    Miss(StagedSlot),
}

/// Open-addressed (linear probing, power-of-two capacity, ≤ 7/8 load factor)
/// hash table keyed with the Fx hasher. No deletion — the memo only grows
/// within a segment, which is precisely what makes staged slots sound.
#[derive(Debug)]
pub(crate) struct MemoTable<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// Incremented on every resize; a [`StagedSlot`] from an older generation
    /// holds a dangling index and is rejected.
    generation: u64,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable {
            slots: Vec::new(),
            len: 0,
            generation: 0,
        }
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

impl<K: Hash + Eq, V> MemoTable<K, V> {
    /// Number of entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// One hash walk deciding hit (index of the entry) or miss (the slot an
    /// insert of this key would fill, stamped with the current generation).
    pub(crate) fn probe(&self, key: &K) -> MemoProbe {
        if self.slots.is_empty() {
            // Stamp an impossible generation: `insert_staged` will fall back
            // to a regular insert, which allocates the table.
            return MemoProbe::Miss(StagedSlot {
                index: 0,
                generation: u64::MAX,
            });
        }
        let mask = self.slots.len() - 1;
        let mut ix = (hash_of(key) as usize) & mask;
        loop {
            match &self.slots[ix] {
                None => {
                    return MemoProbe::Miss(StagedSlot {
                        index: ix,
                        generation: self.generation,
                    })
                }
                Some((k, _)) if k == key => return MemoProbe::Hit(ix),
                Some(_) => ix = (ix + 1) & mask,
            }
        }
    }

    /// The value at a [`MemoProbe::Hit`] index.
    pub(crate) fn value(&self, index: usize) -> &V {
        match &self.slots[index] {
            Some((_, v)) => v,
            None => unreachable!("Hit indexes name occupied slots"),
        }
    }

    /// Convenience single-walk lookup for callers without a completion phase.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self.probe(key) {
            MemoProbe::Hit(ix) => Some(self.value(ix)),
            MemoProbe::Miss(_) => None,
        }
    }

    /// Standard insert (replaces the value on a duplicate key).
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.grow_if_needed();
        match self.probe(&key) {
            MemoProbe::Hit(ix) => {
                if let Some(entry) = self.slots[ix].as_mut() {
                    entry.1 = value;
                }
            }
            MemoProbe::Miss(slot) => {
                self.slots[slot.index] = Some((key, value));
                self.len += 1;
            }
        }
    }

    /// Redeems a slot reserved by an earlier miss: when the table has not
    /// resized since, the slot is still empty, and the post-insert load
    /// factor stays in bounds, the entry is placed with **no** hash walk;
    /// otherwise this degrades to [`MemoTable::insert`]. See the module
    /// documentation for the soundness argument.
    pub(crate) fn insert_staged(&mut self, slot: StagedSlot, key: K, value: V) {
        if slot.generation == self.generation
            && (self.len + 1) * 8 <= self.slots.len() * 7
            && self.slots[slot.index].is_none()
        {
            self.slots[slot.index] = Some((key, value));
            self.len += 1;
            return;
        }
        self.insert(key, value);
    }

    /// Consumes the table, yielding every entry.
    #[cfg(test)]
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (K, V)> {
        self.slots.into_iter().flatten()
    }

    fn grow_if_needed(&mut self) {
        if (self.len + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let new_cap = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, {
            let mut v = Vec::new();
            v.resize_with(new_cap, || None);
            v
        });
        self.generation += 1;
        let mask = new_cap - 1;
        for (key, value) in old.into_iter().flatten() {
            let mut ix = (hash_of(&key) as usize) & mask;
            while self.slots[ix].is_some() {
                ix = (ix + 1) & mask;
            }
            self.slots[ix] = Some((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip_across_growth() {
        let mut table: MemoTable<u64, usize> = MemoTable::default();
        for i in 0..1000u64 {
            table.insert(i, i as usize * 3);
        }
        assert_eq!(table.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(table.get(&i), Some(&(i as usize * 3)));
        }
        assert_eq!(table.get(&1000), None);
        // Duplicate insert replaces.
        table.insert(7, 99);
        assert_eq!(table.len(), 1000);
        assert_eq!(table.get(&7), Some(&99));
    }

    #[test]
    fn staged_slot_survives_collisions_and_growth() {
        let mut table: MemoTable<u64, usize> = MemoTable::default();
        // Empty-table miss: the sentinel generation must route through the
        // allocating insert.
        let slot = match table.probe(&42) {
            MemoProbe::Miss(slot) => slot,
            MemoProbe::Hit(_) => panic!("empty table cannot hit"),
        };
        table.insert_staged(slot, 42, 1);
        assert_eq!(table.get(&42), Some(&1));

        // Stage a slot, then force a resize before redeeming it: the stale
        // generation must be detected and the entry still land correctly.
        let slot = match table.probe(&43) {
            MemoProbe::Miss(slot) => slot,
            MemoProbe::Hit(_) => panic!("43 not yet inserted"),
        };
        for i in 100..200u64 {
            table.insert(i, 0);
        }
        table.insert_staged(slot, 43, 2);
        assert_eq!(table.get(&43), Some(&2));

        // Stage a slot, fill it with a *different* key via the regular path
        // (no resize: stay under the load bound), then redeem: occupancy
        // detection must fall back without clobbering the interloper.
        let mut table: MemoTable<u64, usize> = MemoTable::default();
        table.insert(0, 0);
        let slot = match table.probe(&1) {
            MemoProbe::Miss(slot) => slot,
            MemoProbe::Hit(_) => panic!("1 not yet inserted"),
        };
        // Find a key that lands in the reserved slot (probe agreement), then
        // insert it first.
        let interloper = (2..10_000u64)
            .find(|k| {
                matches!(table.probe(k), MemoProbe::Miss(s) if s.index == slot.index && s.generation == slot.generation)
            })
            .expect("some key collides into the reserved slot");
        table.insert(interloper, 7);
        table.insert_staged(slot, 1, 8);
        assert_eq!(table.get(&interloper), Some(&7));
        assert_eq!(table.get(&1), Some(&8));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn into_entries_yields_everything() {
        let mut table: MemoTable<u64, usize> = MemoTable::default();
        for i in 0..50u64 {
            table.insert(i, i as usize);
        }
        let mut entries: Vec<_> = table.into_entries().collect();
        entries.sort_unstable();
        assert_eq!(entries.len(), 50);
        assert_eq!(entries[0], (0, 0));
        assert_eq!(entries[49], (49, 49));
    }
}
