//! End-to-end integration tests spanning the whole stack: grids, balancer,
//! solver, connectivity, motion, driver.

use overflow_d::{
    airfoil_case, delta_wing_case, run_case, run_case_serial, store_case, Equivalence, LbConfig,
};
use overset_comm::MachineModel;

fn modern() -> MachineModel {
    MachineModel::modern()
}

#[test]
fn airfoil_runs_clean_on_many_rank_counts() {
    for nranks in [3usize, 6, 10] {
        let cfg = airfoil_case(0.3, 4);
        let r = run_case(&cfg, nranks, &modern()).unwrap();
        assert_eq!(r.orphans_last, 0, "orphans at {nranks} ranks");
        assert!(r.state_rms.is_finite() && r.state_rms > 0.0);
        assert!(r.wall_time > 0.0);
        assert!(r.igbps_last > 0);
    }
}

#[test]
fn physics_is_independent_of_rank_count() {
    // Implicitness is maintained across subdomains (pipelined Thomas), so
    // the solution trajectory must not depend on the decomposition.
    let rms: Vec<f64> = [3usize, 6, 12]
        .iter()
        .map(|&n| run_case(&airfoil_case(0.3, 5), n, &modern()).unwrap().state_rms)
        .collect();
    for w in rms.windows(2) {
        let rel = (w[0] - w[1]).abs() / w[0];
        assert!(rel < 1e-9, "state differs across rank counts: {rms:?}");
    }
}

#[test]
fn parallel_matches_serial_physics() {
    let par = run_case(&airfoil_case(0.3, 5), 6, &modern()).unwrap();
    let ser = run_case_serial(&airfoil_case(0.3, 5), &MachineModel::cray_ymp()).unwrap();
    // Serial and distributed connectivity resolve fringe points in
    // different orders (a donor may or may not see a neighbour's
    // already-updated fringe), so agreement is close but not bitwise.
    let rel = (par.state_rms - ser.state_rms).abs() / ser.state_rms;
    assert!(rel < 1e-4, "parallel {} vs serial {} (rel {rel})", par.state_rms, ser.state_rms);
}

#[test]
fn serial_run_collects_one_state_per_field_node() {
    let mut cfg = airfoil_case(0.3, 2);
    cfg.collect_state = true;
    let ser = run_case_serial(&cfg, &modern()).unwrap();
    // The distributed run's field node set, each node once, and a checksum
    // that recomputes to the driver's bits from the collected states.
    let keys = |r: &overflow_d::RunResult| {
        let mut k: Vec<_> = r.states.iter().map(|s| (s.0, s.1.i, s.1.j, s.1.k)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(keys(&ser), keys(&run_case(&cfg, 6, &modern()).unwrap()));
    assert!(!ser.states.is_empty() && keys(&ser).windows(2).all(|w| w[0] != w[1]));
    let sum_sq: f64 = ser.states.iter().map(|s| s.2.iter().map(|v| v * v).sum::<f64>()).sum();
    assert_eq!((sum_sq / ser.states.len() as f64).sqrt(), ser.state_rms);
}

#[test]
fn virtual_time_is_deterministic() {
    let mut cfg = airfoil_case(0.3, 3);
    cfg.collect_state = true;
    let a = run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap();
    let b = run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap();
    assert_eq!(a.first_divergence(&b, Equivalence::Full), None);
}

#[test]
fn faster_machine_is_faster_same_physics() {
    let mut cfg = airfoil_case(0.3, 3);
    cfg.collect_state = true;
    let sp2 = run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap();
    let sp = run_case(&cfg, 6, &MachineModel::ibm_sp()).unwrap();
    assert!(sp.wall_time < sp2.wall_time);
    assert_eq!(sp.first_divergence(&sp2, Equivalence::Answers), None);
}

#[test]
fn moving_grid_connectivity_stays_resolved() {
    // Run long enough that the airfoil rotates appreciably; connectivity
    // must stay fully resolved and the state physical.
    let cfg = airfoil_case(0.3, 15);
    let r = run_case(&cfg, 6, &modern()).unwrap();
    assert_eq!(r.orphans_last, 0);
    assert!(r.state_rms.is_finite());
}

#[test]
fn dynamic_lb_repartitions_and_preserves_physics() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = LbConfig::dynamic(1.05, 2); // aggressive: force repartitions
    let dynamic = run_case(&cfg, 8, &modern()).unwrap();
    let mut cfg2 = airfoil_case(0.3, 8);
    cfg2.lb = LbConfig::static_only();
    let static_ = run_case(&cfg2, 8, &modern()).unwrap();
    // With such a tight threshold the scheme should have acted at least once.
    assert!(
        dynamic.repartitions >= 1,
        "no repartition despite f_o = 1.05 (f_max = {})",
        dynamic.f_max()
    );
    assert_eq!(dynamic.np_final.iter().sum::<usize>(), 8);
    // Physics must survive redistribution bit-for-bit in structure (finite,
    // same magnitude as the static run).
    // Repartitioning changes connectivity resolution order slightly; the
    // state must agree closely (bitwise equality is not expected).
    let rel = (dynamic.state_rms - static_.state_rms).abs() / static_.state_rms;
    assert!(rel < 1e-5, "redistribution corrupted the state: rel {rel}");
}

#[test]
fn delta_wing_reduced_scale_runs() {
    let cfg = delta_wing_case(0.25, 2);
    let r = run_case(&cfg, 7, &modern()).unwrap();
    assert!(r.state_rms.is_finite());
    // Small-scale 3-D geometry leaves a few gap points; they must be rare.
    let frac = r.orphans_last as f64 / r.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
}

#[test]
fn store_reduced_scale_runs_with_motion() {
    let cfg = store_case(0.3, 3);
    let r = run_case(&cfg, 16, &modern()).unwrap();
    assert!(r.state_rms.is_finite());
    let frac = r.orphans_last as f64 / r.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
    // The store case is connectivity-heavy: measured service imbalance
    // exists (the paper's premise for the dynamic scheme).
    assert!(r.f_max() > 1.2, "no service imbalance measured");
}

#[test]
fn igbp_ratio_ladder_matches_paper_ordering() {
    // The store case has the largest IGBP/gridpoint ratio — the paper's
    // reason it is "a good candidate to evaluate the dynamic load balance
    // scheme". Measured at moderate scale.
    let ratio = |r: &overflow_d::RunResult| r.igbps_last as f64 / r.total_points as f64;
    let airfoil = run_case(&airfoil_case(0.5, 1), 3, &modern()).unwrap();
    let store = run_case(&store_case(0.5, 1), 16, &modern()).unwrap();
    assert!(
        ratio(&store) > 2.0 * ratio(&airfoil),
        "store ratio {} not >> airfoil ratio {}",
        ratio(&store),
        ratio(&airfoil)
    );
}

#[test]
fn connectivity_fraction_grows_with_rank_count() {
    // Table 1's rightmost column: %DCF3D grows as ranks increase (the
    // connectivity solution scales worse than the flow solution).
    let lo = run_case(&airfoil_case(0.6, 8), 6, &MachineModel::ibm_sp2()).unwrap();
    let hi = run_case(&airfoil_case(0.6, 8), 24, &MachineModel::ibm_sp2()).unwrap();
    assert!(
        hi.connectivity_fraction() > lo.connectivity_fraction(),
        "%DCF3D did not grow: {} -> {}",
        lo.connectivity_fraction(),
        hi.connectivity_fraction()
    );
}

#[test]
fn speedup_is_substantial_but_sublinear() {
    let t6 = run_case(&airfoil_case(0.6, 8), 6, &MachineModel::ibm_sp2()).unwrap().time_per_step();
    let t24 =
        run_case(&airfoil_case(0.6, 8), 24, &MachineModel::ibm_sp2()).unwrap().time_per_step();
    let speedup = t6 / t24;
    // Mildly super-linear speedup is possible (the cache model reproduces
    // the paper's "super scalar speedups"); wildly off means a bug.
    assert!((1.8..4.8).contains(&speedup), "6->24 rank speedup out of band: {speedup}");
}

#[test]
fn sixdof_store_falls_and_is_rank_independent() {
    // The 6-DOF-coupled store case: the body must drop under gravity +
    // ejector and the replicated rigid-body state must keep physics
    // identical across rank counts (the loads allreduce is deterministic).
    let run = |n: usize| {
        let mut cfg = overflow_d::store_case_sixdof(0.3, 4);
        cfg.collect_state = true;
        run_case(&cfg, n, &modern()).unwrap()
    };
    let a = run(16);
    let b = run(20);
    assert!(a.state_rms.is_finite());
    // The aerodynamic-load allreduce sums panel contributions grouped by
    // rank; different decompositions reassociate the floating-point sum, so
    // 6-DOF trajectories agree closely but not bitwise (unlike the purely
    // local physics, which is exactly rank-independent).
    let rel = (a.state_rms - b.state_rms).abs() / a.state_rms;
    assert!(rel < 1e-3, "6-DOF physics rank-dependent: rel {rel}");
    // The store grids moved (hole fringe positions shifted): compare the
    // final solids implicitly via orphan-free connectivity.
    let frac = a.orphans_last as f64 / a.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
}

#[test]
fn sixdof_perf_close_to_prescribed() {
    // The paper: free motion computes "with negligible change in the
    // parallel performance". Compare virtual time per step.
    let pres = run_case(&overflow_d::store_case(0.3, 4), 16, &MachineModel::ibm_sp2()).unwrap();
    let free =
        run_case(&overflow_d::store_case_sixdof(0.3, 4), 16, &MachineModel::ibm_sp2()).unwrap();
    let ratio = free.time_per_step() / pres.time_per_step();
    assert!((0.9..1.15).contains(&ratio), "6-DOF cost ratio {ratio} not negligible");
}
