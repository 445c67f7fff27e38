//! Inverse-map ablation: the acceleration layer must change *work*, never
//! *answers*. With `use_inverse_map` off, cold donor searches start from the
//! block center and candidate ranks are pruned only by bounding box; with it
//! on, searches start from a map-seeded cell and ranks are additionally
//! pruned by the occupancy mask. Both paths must land on the same donor
//! cells with the same trilinear weights (hence bit-identical physics) and
//! the same orphan census, while the accelerated path performs measurably
//! fewer walk steps and forwards fewer requests between ranks.

use overflow_d::{airfoil_case, run_case, store_case, CaseConfig, Equivalence, RunResult};
use overset_comm::{metrics::names, MachineModel};
use overset_motion::BodyMotion;

fn ablate(mut cfg: CaseConfig, nranks: usize) -> (RunResult, RunResult) {
    cfg.collect_state = true;
    cfg.use_inverse_map = true;
    let on = run_case(&cfg, nranks, &MachineModel::modern()).unwrap();
    cfg.use_inverse_map = false;
    let off = run_case(&cfg, nranks, &MachineModel::modern()).unwrap();
    (on, off)
}

fn assert_same_answers_less_work(on: &RunResult, off: &RunResult, case: &str) {
    // Identical donors: interpolation weights feed every fringe update, so
    // any donor-cell or weight difference would perturb the final state.
    assert_eq!(on.first_divergence(off, Equivalence::Answers), None, "{case}");

    // Measurably less work: seeded cold starts shorten walks, occupancy
    // pruning drops certain-miss ranks from the candidate rotation.
    let walks_on = on.metrics.counter(names::CONN_WALK_STEPS);
    let walks_off = off.metrics.counter(names::CONN_WALK_STEPS);
    assert!(
        walks_on < walks_off,
        "{case}: map did not reduce walk steps: {walks_on} vs {walks_off}"
    );
    let fwd_on = on.metrics.counter(names::CONN_FORWARDS);
    let fwd_off = off.metrics.counter(names::CONN_FORWARDS);
    assert!(fwd_on <= fwd_off, "{case}: map increased forwards: {fwd_on} vs {fwd_off}");
}

#[test]
fn airfoil_donors_identical_with_fewer_walk_steps() {
    let (on, off) = ablate(airfoil_case(0.4, 4), 6);
    assert_same_answers_less_work(&on, &off, "airfoil");
}

#[test]
fn store_donors_identical_with_fewer_walk_steps() {
    // The store case exercises the 3-D path, multiple movers, and the
    // occupancy-pruned candidate rotation across 16 ranks.
    let (on, off) = ablate(store_case(0.3, 4), 16);
    assert_same_answers_less_work(&on, &off, "store");
    let (fwd_on, fwd_off) =
        (on.metrics.counter(names::CONN_FORWARDS), off.metrics.counter(names::CONN_FORWARDS));
    assert!(
        fwd_on < fwd_off,
        "store: occupancy pruning did not reduce forwards: {fwd_on} vs {fwd_off}"
    );
}

#[test]
fn serial_driver_honors_the_flag_too() {
    let mut cfg = airfoil_case(0.35, 3);
    cfg.collect_state = true;
    cfg.use_inverse_map = true;
    let on = overflow_d::run_case_serial(&cfg, &MachineModel::modern()).unwrap();
    cfg.use_inverse_map = false;
    let off = overflow_d::run_case_serial(&cfg, &MachineModel::modern()).unwrap();
    assert!(!on.states.is_empty(), "serial driver dropped collect_state");
    assert_eq!(on.first_divergence(&off, Equivalence::Answers), None);
    let (w_on, w_off) =
        (on.metrics.counter(names::CONN_WALK_STEPS), off.metrics.counter(names::CONN_WALK_STEPS));
    assert!(w_on < w_off, "serial walk steps: {w_on} vs {w_off}");
}

// ---------------------------------------------------------------------------
// Arena ablation: `use_arena` may only change *where buffers come from*
// (pooled capacity vs cold Vec::new), never what any of them contain. The
// same code path runs either way, so physics AND virtual time must agree to
// the bit; the host-side allocation counters are the only legal difference.
// ---------------------------------------------------------------------------

#[test]
fn arena_toggle_is_bit_identical_with_fewer_allocations() {
    let mut cfg = store_case(0.3, 4);
    cfg.collect_state = true;
    cfg.use_arena = true;
    let on = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    cfg.use_arena = false;
    let off = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Clocks), None);

    // The point of the arena: steady-state steps reuse capacity instead of
    // reallocating it. Cold steps (the first) are allowed to be equal.
    use overset_comm::Phase::Connectivity;
    let (a_on, a_off) = (on.last_step_allocs(Connectivity), off.last_step_allocs(Connectivity));
    assert!(a_on * 5 <= a_off, "arena did not cut steady-state allocations: {a_on} vs {a_off}");
}

// ---------------------------------------------------------------------------
// Incremental inverse-map rebuilds: under a small rigid motion the map
// advances its pose (cheap) instead of rebuilding (expensive); past the
// rotation threshold it falls back to a rebuild. Either way the donors —
// and hence the physics — are bit-identical.
// ---------------------------------------------------------------------------

#[test]
fn incremental_invmap_is_bit_identical_and_rebuilds_less() {
    let mut cfg = airfoil_case(0.3, 12);
    cfg.fc.dt = 0.01; // appreciable per-step motion, still far below fallback
    cfg.collect_state = true;
    cfg.use_incremental_invmap = true;
    let on = run_case(&cfg, 6, &MachineModel::modern()).unwrap();
    cfg.use_incremental_invmap = false;
    let off = run_case(&cfg, 6, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Answers), None);

    let builds_on = on.metrics.counter(names::CONN_INVMAP_BUILDS);
    let builds_off = off.metrics.counter(names::CONN_INVMAP_BUILDS);
    let incr_on = on.metrics.counter(names::CONN_INVMAP_INCR);
    let incr_off = off.metrics.counter(names::CONN_INVMAP_INCR);
    assert!(incr_on > 0, "no incremental advance happened with the flag on");
    assert_eq!(incr_off, 0, "incremental advance happened with the flag off");
    assert!(
        builds_on < builds_off,
        "incremental mode did not reduce rebuilds: {builds_on} vs {builds_off}"
    );
}

#[test]
fn incremental_invmap_falls_back_past_rotation_threshold() {
    use overset_motion::Prescribed;
    // A deliberately violent pitch: ~1.6 degrees per step, so the composed
    // pose crosses the ~3-degree diagonal-growth cap every few steps and
    // the moving rank must rebuild from scratch — while still advancing
    // incrementally on the steps in between.
    let mut cfg = airfoil_case(0.3, 8);
    cfg.motions = vec![BodyMotion::prescribed(
        vec![0],
        Prescribed::PitchOscillation {
            alpha0: 20.0f64.to_radians(),
            omega: 20.0,
            pivot: [0.25, 0.0, 0.0],
            axis: [0.0, 0.0, 1.0],
            time: 0.0,
        },
    )];
    cfg.collect_state = true;
    cfg.use_incremental_invmap = true;
    let on = run_case(&cfg, 6, &MachineModel::modern()).unwrap();
    cfg.use_incremental_invmap = false;
    let off = run_case(&cfg, 6, &MachineModel::modern()).unwrap();
    assert_eq!(on.first_divergence(&off, Equivalence::Answers), None);

    let builds_on = on.metrics.counter(names::CONN_INVMAP_BUILDS);
    let incr_on = on.metrics.counter(names::CONN_INVMAP_INCR);
    // 6 ranks build on the cold first step; any build beyond those is a
    // fallback rebuild forced by accumulated rotation.
    assert!(builds_on > 6, "fallback never triggered: builds {builds_on}");
    assert!(incr_on > 0, "no incremental advance survived between fallbacks: {incr_on}");
}

// ---------------------------------------------------------------------------
// Negligible motion: a step whose rigid transform is the identity (or moves
// the grid by less than epsilon·diagonal) must not mark the grid "moved" —
// no inverse-map rebuild, no pose advance, and walk outcomes identical to a
// run with no motion at all.
// ---------------------------------------------------------------------------

#[test]
fn negligible_motion_never_marks_grids_moved() {
    use overset_motion::Prescribed;
    let mk_zero = || {
        let mut cfg = airfoil_case(0.3, 6);
        cfg.collect_state = true;
        // Zero-amplitude pitch: every step's transform is the exact identity.
        cfg.motions = vec![BodyMotion::prescribed(
            vec![0],
            Prescribed::PitchOscillation {
                alpha0: 0.0,
                omega: std::f64::consts::FRAC_PI_2,
                pivot: [0.25, 0.0, 0.0],
                axis: [0.0, 0.0, 1.0],
                time: 0.0,
            },
        )];
        cfg
    };
    let mk_none = || {
        let mut cfg = airfoil_case(0.3, 6);
        cfg.collect_state = true;
        cfg.motions = vec![];
        cfg
    };
    let zero = run_case(&mk_zero(), 6, &MachineModel::modern()).unwrap();
    let none = run_case(&mk_none(), 6, &MachineModel::modern()).unwrap();

    // Identity motion is physically indistinguishable from no motion.
    assert_eq!(zero.first_divergence(&none, Equivalence::Answers), None, "identity motion");
    assert_eq!(
        zero.metrics.counter(names::CONN_WALK_STEPS),
        none.metrics.counter(names::CONN_WALK_STEPS),
        "identity motion changed walk outcomes"
    );
    // Builds happen once per rank on the cold first step and never again;
    // nothing ever advances a pose.
    assert_eq!(zero.metrics.counter(names::CONN_INVMAP_BUILDS), 6, "identity motion rebuilt maps");
    assert_eq!(zero.metrics.counter(names::CONN_INVMAP_INCR), 0);
    assert_eq!(none.metrics.counter(names::CONN_INVMAP_BUILDS), 6);

    // Below-epsilon translation: displaces every node by ~1e-21 of the
    // domain — real motion, but far under the negligibility threshold.
    let mut tiny = airfoil_case(0.3, 6);
    tiny.motions = vec![BodyMotion::prescribed(
        vec![0],
        Prescribed::ConstantVelocity { velocity: [0.0, 0.0, 1.0e-18], time: 0.0 },
    )];
    let tiny = run_case(&tiny, 6, &MachineModel::modern()).unwrap();
    assert_eq!(
        tiny.metrics.counter(names::CONN_INVMAP_BUILDS),
        6,
        "below-epsilon motion rebuilt maps"
    );
    assert_eq!(tiny.metrics.counter(names::CONN_INVMAP_INCR), 0);
    assert_eq!(
        tiny.metrics.counter(names::CONN_WALK_STEPS),
        none.metrics.counter(names::CONN_WALK_STEPS),
        "below-epsilon motion changed walk outcomes"
    );
}
