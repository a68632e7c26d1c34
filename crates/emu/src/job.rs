//! Job and message types exchanged between the live cluster's threads.

use std::time::Instant;

use msweb_ossim::DemandSpec;

/// One request, as handed to a node worker.
#[derive(Debug, Clone)]
pub struct Job {
    /// Trace index (completion tag).
    pub id: u64,
    /// The OS-model process the request runs as, from
    /// [`msweb_cluster::ClusterConfig::demand_spec`] in unscaled model
    /// time.
    pub spec: DemandSpec,
}

/// A finished request, reported back to the driver.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Trace index.
    pub id: u64,
    /// The wall instant at which the node worker saw the completion.
    pub finished: Instant,
}

/// Control messages to a node worker.
#[derive(Debug)]
pub enum NodeMsg {
    /// Run this job.
    Run(Job),
    /// Drain and exit.
    Shutdown,
}
