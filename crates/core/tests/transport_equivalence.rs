//! The tentpole determinism guarantee: the same case on the same rank
//! count produces **bit-identical** virtual times, counters and physics on
//! the in-process and multi-process transports. Nothing about where the
//! bytes travel may leak into the simulation.
//!
//! The process-backed run goes first: the forked rank-group children
//! re-execute this test and must reach the process-backed `establish`
//! without replaying the in-process reference run.

use overflow_d::{run_case, store_case, Equivalence};
use overset_comm::{MachineModel, TransportConfig};

const NRANKS: usize = 16;

#[test]
fn store_case_bit_identical_across_transports() {
    let machine = MachineModel::ibm_sp2();

    let mut cfg = store_case(0.3, 3);
    cfg.collect_state = true;
    cfg.transport =
        TransportConfig::process_for_test(2, "store_case_bit_identical_across_transports");
    let proc = run_case(&cfg, NRANKS, &machine).expect("process-transport run");

    cfg.transport = TransportConfig::InProcess;
    let inproc = run_case(&cfg, NRANKS, &machine).expect("in-process run");

    // Physics node for node, every clock, counter and step record. Host
    // allocation counts legitimately differ: the process backend decodes
    // each message into a fresh buffer where the in-process one moves it.
    assert_eq!(proc.first_divergence(&inproc, Equivalence::Clocks), None);
}
