//! Arena reset correctness under the hard cases: repartition steps (the
//! arena's buffers outlive a complete change of what the rank owns), the
//! M:N scheduler (ranks sharing OS threads migrate between polls with their
//! arenas in tow), and the multi-process transport (buffers round-tripped
//! through serialization instead of moved). In every mode the arena may
//! only recycle capacity — states, walk outcomes and virtual times must be
//! bit-identical with the arena disabled, and the deterministic allocation
//! counters must show the recycling actually happened.

use overflow_d::{airfoil_case, run_case, store_case, Equivalence, LbConfig};
use overset_comm::{MachineModel, Phase::Connectivity, TransportConfig};

#[test]
fn arena_survives_repartitions_bit_identically() {
    // Aggressive dynamic balancing: the partition — and with it every
    // rank's block shape, neighbor set and fringe — changes mid-run. The
    // arena's recycled buffers must carry zero information across that
    // boundary.
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = LbConfig::dynamic(1.05, 2);
    cfg.collect_state = true;
    cfg.use_arena = true;
    let on = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    cfg.use_arena = false;
    let off = run_case(&cfg, 8, &MachineModel::modern()).unwrap();

    assert!(on.repartitions >= 1, "case never repartitioned; the test lost its point");
    assert_eq!(on.repartitions, off.repartitions, "arena changed repartition decisions");
    assert_eq!(on.first_divergence(&off, Equivalence::Clocks), None, "repartition");

    let (a_on, a_off) = (on.last_step_allocs(Connectivity), off.last_step_allocs(Connectivity));
    assert!(a_on < a_off, "arena recycled nothing after repartition: {a_on} vs {a_off}");
}

#[test]
fn arena_bit_identical_under_mn_scheduler() {
    // 16 ranks multiplexed onto 4 worker threads: arenas are owned by
    // ranks, not threads, so scheduling must not perturb anything.
    let mut cfg = store_case(0.3, 3);
    cfg.max_threads = Some(4);
    cfg.collect_state = true;
    cfg.use_arena = true;
    let on = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    cfg.use_arena = false;
    let off = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Clocks), None, "m:n scheduler");
    let (a_on, a_off) = (on.last_step_allocs(Connectivity), off.last_step_allocs(Connectivity));
    assert!(a_on < a_off, "arena recycled nothing under M:N: {a_on} vs {a_off}");

    // And the M:N run must match the one-thread-per-rank run bit-for-bit,
    // arena on — allocation counters included (they are deterministic).
    cfg.max_threads = None;
    cfg.use_arena = true;
    let plain = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&plain, Equivalence::Full), None, "m:n vs 1:1");
}

#[test]
fn arena_bit_identical_on_process_transport() {
    // The multi-process backend serializes every message, so the pooled
    // buffers the protocol round-trips come back as fresh decodes instead
    // of moved vectors. The pools must stay balanced — and the physics
    // bit-identical — all the same. (The process-backed runs go first: the
    // forked rank-group children re-execute this test and must reach their
    // own `establish` without replaying the in-process runs.)
    let machine = MachineModel::modern();
    let mut cfg = store_case(0.3, 3);
    cfg.collect_state = true;
    cfg.transport =
        TransportConfig::process_for_test(2, "arena_bit_identical_on_process_transport");
    cfg.use_arena = true;
    let proc_on = run_case(&cfg, 16, &machine).unwrap();
    cfg.transport =
        TransportConfig::process_for_test(2, "arena_bit_identical_on_process_transport");
    cfg.use_arena = false;
    let proc_off = run_case(&cfg, 16, &machine).unwrap();
    assert_eq!(proc_on.first_divergence(&proc_off, Equivalence::Clocks), None, "proc transport");
    let (a_on, a_off) =
        (proc_on.last_step_allocs(Connectivity), proc_off.last_step_allocs(Connectivity));
    assert!(a_on < a_off, "arena recycled nothing on proc transport: {a_on} vs {a_off}");

    // Cross-transport: same arena-on case in-process must agree bit-for-bit.
    cfg.transport = TransportConfig::InProcess;
    cfg.use_arena = true;
    let inproc_on = run_case(&cfg, 16, &machine).unwrap();
    assert_eq!(
        proc_on.first_divergence(&inproc_on, Equivalence::Clocks),
        None,
        "proc vs in-process"
    );
}
