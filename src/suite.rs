//! Workspace-spanning glue for the integration tests and examples.
//!
//! The real library surface lives in the member crates (`tracenet`,
//! `netsim`, `probe`, `topogen`, `evalkit`, …); this crate only hosts the
//! `tests/` directory that exercises them together and a couple of small
//! helpers those tests and the `examples/` binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use inet::Addr;
use netsim::{Network, Topology};
use probe::SimProber;
use tracenet::{Session, TraceReport, TracenetOptions};

/// Runs one tracenet session with default options over a fresh network —
/// the three lines every example starts with.
pub fn trace_once(topology: Topology, vantage: Addr, destination: Addr) -> TraceReport {
    let net = Network::new(topology);
    let mut prober = SimProber::new(&net, vantage);
    Session::new(&mut prober, TracenetOptions::default()).run(destination)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    #[test]
    fn trace_once_runs_a_session() {
        let (topo, names) = samples::chain(2);
        let report = trace_once(topo, names.addr("vantage"), names.addr("dest"));
        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 3);
    }
}
