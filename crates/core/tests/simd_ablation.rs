//! Driver-level SIMD ablation: `use_simd` selects the lane-batched AVX2
//! kernels for the implicit sweeps, the donor-search Newton inversions and
//! the hole-cutter containment tests. The batched kernels replay the scalar
//! operation order lane by lane, so turning them off may change host speed
//! only — states, walk outcomes, censuses and every virtual clock must be
//! bit-identical, in-process, under the M:N scheduler, and across the
//! multi-process transport.

use overflow_d::{airfoil_case, run_case, store_case, Equivalence};
use overset_comm::{MachineModel, TransportConfig};

#[test]
fn simd_ablation_airfoil_bit_identical() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.collect_state = true;
    cfg.use_simd = true;
    let on = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    cfg.use_simd = false;
    let off = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Full), None, "airfoil");
}

#[test]
fn simd_ablation_store_bit_identical_under_mn_scheduler() {
    // 16 ranks multiplexed onto 4 worker threads: the ISA rides on per-rank
    // scratch (sweep scratch and connectivity arena), so rank migration
    // between polls must not perturb anything.
    let mut cfg = store_case(0.3, 3);
    cfg.max_threads = Some(4);
    cfg.collect_state = true;
    cfg.use_simd = true;
    let on = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    cfg.use_simd = false;
    let off = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Full), None, "m:n scheduler");
}

#[test]
fn simd_ablation_bit_identical_on_process_transport() {
    // The forked rank-group children each re-select the ISA from the case
    // config; serialization must not smuggle host-dependent state across.
    let machine = MachineModel::modern();
    let mut cfg = store_case(0.3, 3);
    cfg.collect_state = true;
    cfg.transport =
        TransportConfig::process_for_test(2, "simd_ablation_bit_identical_on_process_transport");
    cfg.use_simd = true;
    let proc_on = run_case(&cfg, 16, &machine).unwrap();
    cfg.transport =
        TransportConfig::process_for_test(2, "simd_ablation_bit_identical_on_process_transport");
    cfg.use_simd = false;
    let proc_off = run_case(&cfg, 16, &machine).unwrap();
    assert_eq!(proc_on.first_divergence(&proc_off, Equivalence::Full), None, "proc transport");

    // Cross-transport: the SIMD-on case in-process must agree bit-for-bit.
    cfg.transport = TransportConfig::InProcess;
    cfg.use_simd = true;
    let inproc_on = run_case(&cfg, 16, &machine).unwrap();
    assert_eq!(
        proc_on.first_divergence(&inproc_on, Equivalence::Clocks),
        None,
        "proc vs in-process"
    );
}
