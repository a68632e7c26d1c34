//! # msweb-ossim
//!
//! The per-node operating-system model from Section 5.1 of *Scheduling
//! Optimization for Resource-Intensive Web Requests on Server Clusters*
//! (Zhu, Smith, Yang; SPAA 1999): "a simulator of a Web server cluster
//! which approximates the behavior of OS management for CPU, memory and
//! disk storage".
//!
//! Each [`Node`] combines:
//!
//! * a **4.3BSD-style multilevel-feedback CPU scheduler** ([`mlfq`]) —
//!   10 ms quantum, 100 ms priority decay, 50 µs context switch, 3 ms
//!   `fork()` charge for CGI processes — whose priority levels share
//!   one level-ordered ready list;
//! * a **round-robin disk scheduler** ([`disk`]) serving 8 KB pages at
//!   2 ms per page;
//! * a **demand-paging memory manager** ([`memory`]), a free-page
//!   counter whose grants live on the processes, that converts
//!   working-set deficits into extra paging I/O;
//! * a **process model** ([`process`]) turning each request's demand
//!   (total service time, CPU fraction `w`, memory footprint) into the
//!   alternating CPU/I-O burst script the paper describes, generated
//!   lazily from a few counters.
//!
//! Nodes are pure state machines with an explicit next-event interface,
//! so the cluster layer can interleave many nodes and the arrival process
//! in one global timestamp order. An idle node holds no heap memory: its
//! buffers go back to a [`NodeScratch`] the caller owns and shares
//! across its nodes. Everything is deterministic, including the kill
//! order of a whole-node crash.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod disk;
pub mod memory;
pub mod mlfq;
pub mod node;
pub mod process;

pub use config::{OsParams, OsParamsError};
pub use disk::{Disk, DiskEvent};
pub use memory::{Allocation, MemoryManager};
pub use mlfq::ReadyQueues;
pub use node::{run_to_idle, Completion, LoadSnapshot, Node, NodeScratch};
pub use process::{Burst, BurstScript, DemandSpec, Pid, ProcState, Process};
