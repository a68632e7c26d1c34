//! The discrete-event core: a complete 4-ary min-tree of next-event
//! times over a fixed key set, one key per simulation component (a
//! node, say). Each leaf holds one key's entry and each inner vertex the
//! smallest of its four children, so one [`EventTree::set`] call
//! inserts, re-keys or removes an entry by rewriting its leaf and the
//! log₄ n vertices above it, with no data-dependent branch, and the root
//! is the minimum. Ties on time break by key, so the pop order is a pure
//! function of the stored times.
//!
//! Four children rather than two halve the climb: each level waits for
//! the store of the level below, and a 4-way `min` adds only one
//! compare to that chain.

use crate::time::SimTime;

/// The value of a leaf with no entry. It sorts after every real entry,
/// even one at [`SimTime::MAX`], because every key is below `u32::MAX`.
const ABSENT: u128 = u128::MAX;

/// A min-tree holding at most one [`SimTime`] per key in `0..keys`,
/// ordered by `(time, key)`.
///
/// ```
/// use msweb_simcore::{EventTree, SimTime};
///
/// let mut t = EventTree::new(3);
/// t.set(0, Some(SimTime::from_millis(5)));
/// t.set(2, Some(SimTime::from_millis(1)));
/// t.set(1, Some(SimTime::from_millis(5)));
/// t.set(2, None); // remove
/// assert_eq!(t.pop(), Some((SimTime::from_millis(5), 0)));
/// assert_eq!(t.pop(), Some((SimTime::from_millis(5), 1)));
/// ```
#[derive(Debug, Clone)]
pub struct EventTree {
    /// Vertex `i` has children `4i + 1 ..= 4i + 4`; the root is vertex 0
    /// and key `k`'s leaf is vertex `base + k`. Each value packs
    /// `(time in µs) << 32 | key`, or is [`ABSENT`].
    tree: Vec<u128>,
    /// The first leaf: the number of inner vertices.
    base: usize,
    /// Keys `0..keys` are valid; the padding leaves after them stay
    /// absent.
    keys: usize,
}

impl EventTree {
    /// An empty tree over keys `0..keys`.
    pub fn new(keys: usize) -> Self {
        assert!(keys < u32::MAX as usize, "too many keys for an EventTree");
        // Leaves: `keys` rounded up to a power of 4.
        let (mut base, mut leaves) = (0, 1);
        while leaves < keys {
            base += leaves;
            leaves *= 4;
        }
        EventTree {
            tree: vec![ABSENT; base + leaves],
            base,
            keys,
        }
    }

    /// Set `key`'s entry to `at`: inserts, re-keys, or (for `None`)
    /// removes it. Panics when `key` is not below `keys`.
    #[inline]
    pub fn set(&mut self, key: usize, at: Option<SimTime>) {
        assert!(key < self.keys, "key {key} out of range 0..{}", self.keys);
        let mut i = self.base + key;
        self.tree[i] = at.map_or(ABSENT, |t| (t.0 as u128) << 32 | key as u128);
        while i > 0 {
            i = (i - 1) / 4;
            let c = 4 * i + 1;
            let a = self.tree[c].min(self.tree[c + 1]);
            let b = self.tree[c + 2].min(self.tree[c + 3]);
            self.tree[i] = a.min(b);
        }
    }

    /// The minimum `(time, key)` without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        let root = self.tree[0];
        (root != ABSENT).then_some((SimTime((root >> 32) as u64), root as u32 as usize))
    }

    /// Remove and return the minimum `(time, key)`.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let top = self.peek()?;
        self.set(top.1, None);
        Some(top)
    }

    /// Number of keys with an entry. An O(keys) scan over the leaves,
    /// for tests and diagnostics: the simulator never calls it.
    pub fn len(&self) -> usize {
        self.tree[self.base..]
            .iter()
            .filter(|&&v| v != ABSENT)
            .count()
    }

    /// True when no key has an entry.
    pub fn is_empty(&self) -> bool {
        self.tree[0] == ABSENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Option<SimTime> {
        Some(SimTime::from_millis(x))
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut h = EventTree::new(4);
        h.set(3, ms(10));
        h.set(1, ms(30));
        h.set(0, ms(10));
        h.set(2, ms(20));
        let order: Vec<usize> = std::iter::from_fn(|| h.pop().map(|(_, k)| k)).collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
        assert!(h.is_empty());
    }

    #[test]
    fn rekey_moves_both_ways() {
        let mut h = EventTree::new(3);
        h.set(0, ms(5));
        h.set(1, ms(6));
        h.set(2, ms(7));
        h.set(0, ms(9));
        assert_eq!(h.peek(), Some((SimTime::from_millis(6), 1)));
        h.set(2, ms(1));
        assert_eq!(h.peek(), Some((SimTime::from_millis(1), 2)));
        assert_eq!(h.len(), 3);
    }

    /// The simulator's node step advances the top key and re-keys it in
    /// place until the top is later than the step's instant. Whatever
    /// the re-keys, the top is always the (time, key) minimum, and the
    /// final pops come out in (time, key) order.
    #[test]
    fn rekeying_the_top_keeps_time_then_key_order() {
        use crate::rng::SimRng;
        use std::collections::BTreeSet;

        const KEYS: usize = 40;
        let mut rng = SimRng::seed_from_u64(0x4ea9);
        let mut h = EventTree::new(KEYS);
        let mut model = BTreeSet::new();
        // Few distinct times, so many keys share one.
        for key in 0..KEYS {
            let t = rng.gen_range(8);
            h.set(key, Some(SimTime(t)));
            model.insert((t, key));
        }
        for _ in 0..2_000 {
            let (t, key) = h.peek().expect("never empties");
            assert_eq!(Some(&(t.0, key)), model.first());
            model.remove(&(t.0, key));
            // Re-key to the same time, a later one, or (rarely) away.
            let next = match rng.gen_range(10) {
                0 => t.0,
                1 if model.len() > KEYS / 2 => {
                    h.set(key, None);
                    continue;
                }
                _ => t.0 + rng.gen_range(5),
            };
            h.set(key, Some(SimTime(next)));
            model.insert((next, key));
        }
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| h.pop().map(|(t, k)| (t.0, k))).collect();
        assert_eq!(popped, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn remove_absent_and_present() {
        let mut h = EventTree::new(3);
        h.set(1, None);
        assert!(h.is_empty());
        h.set(0, ms(1));
        h.set(1, ms(2));
        h.set(0, None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(), Some((SimTime::from_millis(2), 1)));
        assert_eq!(h.pop(), None);
    }

    /// Key 3 is a padding leaf of a 3-key tree; it must not accept an
    /// entry.
    #[test]
    #[should_panic(expected = "out of range")]
    fn set_on_a_padding_leaf_panics() {
        EventTree::new(3).set(3, ms(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_past_the_leaves_panics() {
        EventTree::new(4).set(9, None);
    }

    /// One key, so the root is the only leaf.
    #[test]
    fn single_key_tree() {
        let mut h = EventTree::new(1);
        assert_eq!(h.peek(), None);
        h.set(0, Some(SimTime::MAX));
        assert_eq!(h.peek(), Some((SimTime::MAX, 0)));
        assert_eq!(h.pop(), Some((SimTime::MAX, 0)));
        assert!(h.is_empty());
    }
}
