//! The discrete-event core: a keyed min-heap of next-event times, one
//! per simulation component (a node, say). A position map lets one
//! [`KeyedHeap::set`] call insert, re-key or remove a component's entry
//! in O(log n), so the heap never holds a stale entry; ties on time
//! break by key, so the pop order is a pure function of the stored
//! times.

use crate::time::SimTime;

/// Position-map sentinel for a key with no entry.
const ABSENT: u32 = u32::MAX;

/// A binary min-heap holding at most one [`SimTime`] per key in
/// `0..keys`, ordered by `(time, key)`.
///
/// ```
/// use msweb_simcore::{KeyedHeap, SimTime};
///
/// let mut h = KeyedHeap::new(3);
/// h.set(0, Some(SimTime::from_millis(5)));
/// h.set(2, Some(SimTime::from_millis(1)));
/// h.set(1, Some(SimTime::from_millis(5)));
/// h.set(2, None); // remove
/// assert_eq!(h.pop(), Some((SimTime::from_millis(5), 0)));
/// assert_eq!(h.pop(), Some((SimTime::from_millis(5), 1)));
/// ```
#[derive(Debug, Clone)]
pub struct KeyedHeap {
    /// Heap-ordered `(time in µs, key)` entries.
    heap: Vec<(u64, u32)>,
    /// `pos[key]` is the key's index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl KeyedHeap {
    /// An empty heap over keys `0..keys`.
    pub fn new(keys: usize) -> Self {
        assert!(keys < ABSENT as usize, "too many keys for a KeyedHeap");
        KeyedHeap {
            heap: Vec::with_capacity(keys),
            pos: vec![ABSENT; keys],
        }
    }

    /// Set `key`'s entry to `at`: inserts, re-keys, or (for `None`)
    /// removes it.
    pub fn set(&mut self, key: usize, at: Option<SimTime>) {
        match (self.pos[key] as usize, at) {
            (i, None) if i < self.heap.len() => self.remove_at(i),
            (_, None) => {}
            (i, Some(t)) if i < self.heap.len() => {
                self.heap[i].0 = t.0;
                let i = self.sift_up(i);
                self.sift_down(i);
            }
            (_, Some(t)) => {
                self.heap.push((t.0, key as u32));
                self.pos[key] = (self.heap.len() - 1) as u32;
                self.sift_up(self.heap.len() - 1);
            }
        }
    }

    /// The minimum `(time, key)` without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        self.heap.first().map(|&(t, k)| (SimTime(t), k as usize))
    }

    /// Remove and return the minimum `(time, key)`.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let top = self.peek()?;
        self.remove_at(0);
        Some(top)
    }

    /// Number of keys with an entry.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no key has an entry.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn remove_at(&mut self, i: usize) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        let (_, key) = self.heap.pop().expect("non-empty");
        self.pos[key as usize] = ABSENT;
        if i < last {
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }

    /// Sift entry `i` toward the root; returns its final index.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] >= self.heap[i] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
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
        let mut h = KeyedHeap::new(4);
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
        let mut h = KeyedHeap::new(3);
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
        let mut h = KeyedHeap::new(KEYS);
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
        let mut h = KeyedHeap::new(3);
        h.set(1, None);
        assert!(h.is_empty());
        h.set(0, ms(1));
        h.set(1, ms(2));
        h.set(0, None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(), Some((SimTime::from_millis(2), 1)));
        assert_eq!(h.pop(), None);
    }
}
