//! Operating-system model parameters.
//!
//! Defaults are the paper's Section 5.2.1 settings, used verbatim for the
//! simulation experiments: BSD-style scheduling constants, the 8 KB page,
//! and the 2 ms per-page I/O burst.

use std::fmt;

use msweb_simcore::SimDuration;

/// Tunable constants of the simulated node OS.
#[derive(Debug, Clone, PartialEq)]
pub struct OsParams {
    /// CPU scheduling quantum (paper: 10 ms).
    pub quantum: SimDuration,
    /// Priority decay/update period (paper: 100 ms).
    pub priority_update_period: SimDuration,
    /// Context-switch overhead charged when the CPU switches between
    /// distinct processes (paper: 50 µs).
    pub context_switch: SimDuration,
    /// `fork()` overhead charged as an initial CPU burst of every CGI
    /// process (paper: 3 ms).
    pub fork_overhead: SimDuration,
    /// Time to read or write one page from disk (paper: 2 ms for an 8 KB
    /// page, justified by cached/block transfer rates of the era).
    pub page_io: SimDuration,
    /// Page size in bytes (paper: 8 KB). Used to convert file sizes to
    /// page counts.
    pub page_bytes: u64,
    /// Number of physical memory pages on the node. Default 8192 pages
    /// (64 MB at 8 KB/page — a well-provisioned 1999 server).
    pub memory_pages: u32,
    /// Number of multilevel-feedback priority levels (4.3BSD groups user
    /// priorities into run queues; 32 levels is the classic layout).
    pub priority_levels: u8,
    /// Multiplicative decay applied to each process's CPU-usage estimate
    /// at every priority update (4.3BSD's load-dependent filter; ~2/3 at
    /// moderate load).
    pub estcpu_decay: f64,
    /// Extra paging I/O (in page reads) charged per page of working-set
    /// deficit when a process cannot get its full resident set. This is
    /// the knob that reproduces "CGI memory pressure slows everything
    /// down" without a full per-access VM trace.
    pub fault_pages_per_deficit_page: f64,
}

impl Default for OsParams {
    fn default() -> Self {
        OsParams {
            quantum: SimDuration::from_millis(10),
            priority_update_period: SimDuration::from_millis(100),
            context_switch: SimDuration::from_micros(50),
            fork_overhead: SimDuration::from_millis(3),
            page_io: SimDuration::from_millis(2),
            page_bytes: 8 * 1024,
            memory_pages: 8192,
            priority_levels: 32,
            estcpu_decay: 2.0 / 3.0,
            fault_pages_per_deficit_page: 2.0,
        }
    }
}

impl OsParams {
    /// Convert a byte count into whole pages (rounding up; zero bytes is
    /// zero pages).
    pub fn bytes_to_pages(&self, bytes: u64) -> u32 {
        bytes.div_ceil(self.page_bytes) as u32
    }

    /// Basic sanity checks; call after hand-constructing parameters.
    pub fn validate(&self) -> Result<(), OsParamsError> {
        if self.quantum.is_zero() {
            return Err(OsParamsError::ZeroQuantum);
        }
        if self.priority_update_period.is_zero() {
            return Err(OsParamsError::ZeroPriorityUpdatePeriod);
        }
        if self.page_io.is_zero() {
            return Err(OsParamsError::ZeroPageIo);
        }
        if self.page_bytes == 0 {
            return Err(OsParamsError::ZeroPageBytes);
        }
        if self.priority_levels == 0 {
            return Err(OsParamsError::NoPriorityLevels);
        }
        if !(0.0..1.0).contains(&self.estcpu_decay) {
            return Err(OsParamsError::EstcpuDecayOutOfRange(self.estcpu_decay));
        }
        if self.fault_pages_per_deficit_page < 0.0 {
            return Err(OsParamsError::NegativeFaultPages(
                self.fault_pages_per_deficit_page,
            ));
        }
        Ok(())
    }
}

/// Why [`OsParams::validate`] rejected a parameter block. Variants that
/// concern a float carry the offending value.
#[derive(Debug, Clone, PartialEq)]
pub enum OsParamsError {
    /// A zero CPU quantum.
    ZeroQuantum,
    /// A zero priority-update period.
    ZeroPriorityUpdatePeriod,
    /// A zero per-page I/O time.
    ZeroPageIo,
    /// A zero page size.
    ZeroPageBytes,
    /// No priority level.
    NoPriorityLevels,
    /// `estcpu_decay` outside `[0, 1)`.
    EstcpuDecayOutOfRange(f64),
    /// A negative `fault_pages_per_deficit_page`.
    NegativeFaultPages(f64),
}

impl fmt::Display for OsParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsParamsError::ZeroQuantum => f.write_str("quantum must be positive"),
            OsParamsError::ZeroPriorityUpdatePeriod => {
                f.write_str("priority update period must be positive")
            }
            OsParamsError::ZeroPageIo => f.write_str("page I/O time must be positive"),
            OsParamsError::ZeroPageBytes => f.write_str("page size must be positive"),
            OsParamsError::NoPriorityLevels => f.write_str("need at least one priority level"),
            OsParamsError::EstcpuDecayOutOfRange(v) => write!(f, "estcpu decay {v} not in [0,1)"),
            OsParamsError::NegativeFaultPages(_) => {
                f.write_str("fault pages per deficit page must be non-negative")
            }
        }
    }
}

impl std::error::Error for OsParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = OsParams::default();
        assert_eq!(p.quantum, SimDuration::from_millis(10));
        assert_eq!(p.priority_update_period, SimDuration::from_millis(100));
        assert_eq!(p.context_switch, SimDuration::from_micros(50));
        assert_eq!(p.fork_overhead, SimDuration::from_millis(3));
        assert_eq!(p.page_io, SimDuration::from_millis(2));
        assert_eq!(p.page_bytes, 8 * 1024);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn bytes_to_pages_rounds_up() {
        let p = OsParams::default();
        assert_eq!(p.bytes_to_pages(0), 0);
        assert_eq!(p.bytes_to_pages(1), 1);
        assert_eq!(p.bytes_to_pages(8 * 1024), 1);
        assert_eq!(p.bytes_to_pages(8 * 1024 + 1), 2);
        assert_eq!(p.bytes_to_pages(80 * 1024), 10);
    }

    #[test]
    fn validate_names_each_fault_in_the_old_words() {
        type Spoil = fn(&mut OsParams);
        let cases: [(Spoil, OsParamsError, &str); 7] = [
            (
                |p| p.quantum = SimDuration::ZERO,
                OsParamsError::ZeroQuantum,
                "quantum must be positive",
            ),
            (
                |p| p.priority_update_period = SimDuration::ZERO,
                OsParamsError::ZeroPriorityUpdatePeriod,
                "priority update period must be positive",
            ),
            (
                |p| p.page_io = SimDuration::ZERO,
                OsParamsError::ZeroPageIo,
                "page I/O time must be positive",
            ),
            (
                |p| p.page_bytes = 0,
                OsParamsError::ZeroPageBytes,
                "page size must be positive",
            ),
            (
                |p| p.priority_levels = 0,
                OsParamsError::NoPriorityLevels,
                "need at least one priority level",
            ),
            (
                |p| p.estcpu_decay = 1.5,
                OsParamsError::EstcpuDecayOutOfRange(1.5),
                "estcpu decay 1.5 not in [0,1)",
            ),
            (
                |p| p.fault_pages_per_deficit_page = -1.0,
                OsParamsError::NegativeFaultPages(-1.0),
                "fault pages per deficit page must be non-negative",
            ),
        ];
        for (spoil, want, message) in cases {
            let mut p = OsParams::default();
            spoil(&mut p);
            assert_eq!(p.validate(), Err(want.clone()));
            // A std error, so it boxes cleanly.
            let boxed: Box<dyn std::error::Error> = Box::new(want);
            assert_eq!(boxed.to_string(), message);
        }
    }
}
