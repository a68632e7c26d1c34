//! Multilevel-feedback ready queues (4.3BSD style).
//!
//! "The process ready queue is a multilevel feedback queue divided into
//! multiple lists according to process priority. Processes are scheduled
//! based on priority and may be preempted following quantum expiration."
//! (§5.1). This module is the pure queue structure; timing, quantum
//! accounting and decay live in [`crate::node`].

use crate::process::Pid;

/// Ready queues: level 0 is the highest priority. The levels share one
/// list kept in (level, FIFO position) order — a node rarely has more
/// than a handful of ready processes, and one short contiguous list
/// beats a ring buffer per level for both memory and scan cost.
#[derive(Debug, Clone)]
pub struct ReadyQueues {
    /// `(level, pid)`, sorted by level; FIFO within a level.
    entries: Vec<(u8, Pid)>,
    levels: u8,
}

impl ReadyQueues {
    /// Create with `levels` priority levels.
    pub fn new(levels: u8) -> Self {
        assert!(levels > 0, "need at least one priority level");
        ReadyQueues {
            entries: Vec::new(),
            levels,
        }
    }

    /// Adopt an empty pooled buffer as the list's storage (the node
    /// turned busy).
    pub(crate) fn install_buffer(&mut self, entries: Vec<(u8, Pid)>) {
        debug_assert!(entries.is_empty(), "pooled ready buffer not empty");
        self.entries = entries;
    }

    /// Give the empty list's storage back (the node went idle), keeping
    /// none.
    pub(crate) fn take_buffer(&mut self) -> Vec<(u8, Pid)> {
        debug_assert!(self.entries.is_empty(), "idle node with ready processes");
        std::mem::take(&mut self.entries)
    }

    /// Capacity of the list's storage.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Enqueue at the back of `level`'s FIFO (normal admission).
    pub fn push_back(&mut self, pid: Pid, level: u8) {
        assert!(level < self.levels, "level {level} out of range");
        let at = self.entries.partition_point(|&(l, _)| l <= level);
        self.entries.insert(at, (level, pid));
    }

    /// Enqueue at the front of `level`'s FIFO (used when a running process
    /// is preempted mid-quantum: BSD puts it back at the head of its queue
    /// so it resumes before its peers).
    pub fn push_front(&mut self, pid: Pid, level: u8) {
        assert!(level < self.levels, "level {level} out of range");
        let at = self.entries.partition_point(|&(l, _)| l < level);
        self.entries.insert(at, (level, pid));
    }

    /// Remove and return the highest-priority ready process.
    pub fn pop_highest(&mut self) -> Option<(Pid, u8)> {
        if self.entries.is_empty() {
            return None;
        }
        let (level, pid) = self.entries.remove(0);
        Some((pid, level))
    }

    /// The level of the best ready process without removing it.
    pub fn highest_level(&self) -> Option<u8> {
        self.entries.first().map(|&(l, _)| l)
    }

    /// Total ready processes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no process is ready.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-bucket every ready process according to `level_of` (called after
    /// a priority-decay tick). FIFO order within each destination level
    /// follows (old level, old position) order, matching a sequential
    /// rescan of the proc table: the list is already in that order, and
    /// the sort is stable.
    pub fn rebucket(&mut self, mut level_of: impl FnMut(Pid) -> u8) {
        let top = self.levels - 1;
        for entry in &mut self.entries {
            entry.0 = level_of(entry.1).min(top);
        }
        self.entries.sort_by_key(|&(l, _)| l);
    }

    /// Remove a specific pid wherever it is queued (used by failure
    /// injection when a node kills a process). Returns true if found.
    pub fn remove(&mut self, pid: Pid) -> bool {
        match self.entries.iter().position(|&(_, p)| p == pid) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = ReadyQueues::new(4);
        q.push_back(Pid(1), 2);
        q.push_back(Pid(2), 0);
        q.push_back(Pid(3), 0);
        q.push_back(Pid(4), 3);
        assert_eq!(q.pop_highest(), Some((Pid(2), 0)));
        assert_eq!(q.pop_highest(), Some((Pid(3), 0)));
        assert_eq!(q.pop_highest(), Some((Pid(1), 2)));
        assert_eq!(q.pop_highest(), Some((Pid(4), 3)));
        assert_eq!(q.pop_highest(), None);
    }

    #[test]
    fn push_front_jumps_the_fifo() {
        let mut q = ReadyQueues::new(2);
        q.push_back(Pid(1), 0);
        q.push_front(Pid(2), 0);
        assert_eq!(q.pop_highest(), Some((Pid(2), 0)));
        assert_eq!(q.pop_highest(), Some((Pid(1), 0)));
    }

    #[test]
    fn highest_level_peeks() {
        let mut q = ReadyQueues::new(4);
        assert_eq!(q.highest_level(), None);
        q.push_back(Pid(1), 3);
        assert_eq!(q.highest_level(), Some(3));
        q.push_back(Pid(2), 1);
        assert_eq!(q.highest_level(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn rebucket_moves_everyone() {
        let mut q = ReadyQueues::new(4);
        q.push_back(Pid(1), 3);
        q.push_back(Pid(2), 3);
        q.push_back(Pid(3), 0);
        // Everyone decays to level 1.
        q.rebucket(|_| 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.highest_level(), Some(1));
        // Scan order: level 0 first (Pid 3), then level 3 (1, 2).
        assert_eq!(q.pop_highest(), Some((Pid(3), 1)));
        assert_eq!(q.pop_highest(), Some((Pid(1), 1)));
        assert_eq!(q.pop_highest(), Some((Pid(2), 1)));
    }

    #[test]
    fn rebucket_clamps_out_of_range_levels() {
        let mut q = ReadyQueues::new(4);
        q.push_back(Pid(1), 0);
        q.rebucket(|_| 200);
        assert_eq!(q.pop_highest(), Some((Pid(1), 3)));
    }

    #[test]
    fn remove_finds_and_removes() {
        let mut q = ReadyQueues::new(4);
        q.push_back(Pid(1), 1);
        q.push_back(Pid(2), 1);
        assert!(q.remove(Pid(1)));
        assert!(!q.remove(Pid(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_highest(), Some((Pid(2), 1)));
    }
}
