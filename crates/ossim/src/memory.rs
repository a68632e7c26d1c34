//! Demand-paging memory manager.
//!
//! "The memory management maintains a set of free pages and allocates a
//! number of pages to a new process. For each request, a memory size
//! requirement is provided and the system generates working-set oriented
//! access patterns to stress the demand-based paging scheme." (§5.1).
//!
//! The model: a process asks for its working set at admission. Whatever
//! cannot be granted from the free pool becomes a *working-set deficit*;
//! the node converts each deficit page into extra paging I/O
//! ([`OsParams::fault_pages_per_deficit_page`] page reads folded into the
//! process's burst script). This reproduces the paper's observation that
//! memory-hungry CGI requests steal file-cache pages and slow static
//! processing, without simulating per-access reference strings.
//!
//! Pages are also the file cache: the pool tracks how much of memory is
//! free so the load monitor can report cache pressure.
//!
//! [`OsParams::fault_pages_per_deficit_page`]: crate::config::OsParams::fault_pages_per_deficit_page

/// A grant from the memory manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Pages actually made resident.
    pub resident: u32,
    /// Pages requested but unavailable (the working-set deficit).
    pub deficit: u32,
}

/// The per-node page pool: a free-page counter. Each grant is recorded
/// on its process ([`Process::resident_pages`]) and handed back through
/// [`MemoryManager::release`] when the process leaves.
///
/// [`Process::resident_pages`]: crate::process::Process::resident_pages
#[derive(Debug, Clone)]
pub struct MemoryManager {
    total_pages: u32,
    free_pages: u32,
}

impl MemoryManager {
    /// A pool of `total_pages` free pages.
    pub fn new(total_pages: u32) -> Self {
        MemoryManager {
            total_pages,
            free_pages: total_pages,
        }
    }

    /// Admit a process wanting `requested` pages. Grants what the free
    /// pool allows; the caller converts the deficit into paging I/O.
    pub fn allocate(&mut self, requested: u32) -> Allocation {
        let granted = requested.min(self.free_pages);
        self.free_pages -= granted;
        Allocation {
            resident: granted,
            deficit: requested - granted,
        }
    }

    /// Return `pages` granted earlier (at completion or kill).
    pub fn release(&mut self, pages: u32) {
        self.free_pages += pages;
        debug_assert!(self.free_pages <= self.total_pages, "page pool overflow");
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u32 {
        self.free_pages
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Fraction of memory free, in [0, 1]. This stands in for available
    /// file-cache headroom in the load reports.
    pub fn free_ratio(&self) -> f64 {
        if self.total_pages == 0 {
            0.0
        } else {
            self.free_pages as f64 / self.total_pages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_from_free_pool() {
        let mut m = MemoryManager::new(100);
        let a = m.allocate(30);
        assert_eq!(
            a,
            Allocation {
                resident: 30,
                deficit: 0
            }
        );
        assert_eq!(m.free_pages(), 70);
    }

    #[test]
    fn deficit_when_pool_short() {
        let mut m = MemoryManager::new(100);
        m.allocate(90);
        let a = m.allocate(30);
        assert_eq!(
            a,
            Allocation {
                resident: 10,
                deficit: 20
            }
        );
        assert_eq!(m.free_pages(), 0);
    }

    #[test]
    fn release_returns_pages() {
        let mut m = MemoryManager::new(100);
        let a = m.allocate(40);
        m.release(a.resident);
        assert_eq!(m.free_pages(), 100);
    }

    #[test]
    fn conservation_under_churn() {
        // Per-process invariant: free + Σ granted = total at every step.
        let mut m = MemoryManager::new(1000);
        let grants: Vec<u32> = (0..50)
            .map(|i| m.allocate((i * 7) % 100 + 1).resident)
            .collect();
        assert_eq!(grants.iter().sum::<u32>() + m.free_pages(), 1000);
        for (i, &g) in grants.iter().enumerate() {
            m.release(g);
            let held: u32 = grants[i + 1..].iter().sum();
            assert_eq!(held + m.free_pages(), 1000);
        }
        assert_eq!(m.free_pages(), 1000);
    }

    #[test]
    fn free_ratio() {
        let mut m = MemoryManager::new(200);
        assert_eq!(m.free_ratio(), 1.0);
        m.allocate(50);
        assert!((m.free_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(MemoryManager::new(0).free_ratio(), 0.0);
    }
}
