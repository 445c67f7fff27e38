//! The per-grid part of the grid-motion phase that both drivers run:
//! rigid motion of a grid, and the wall loads that drive 6-DOF bodies.

use overset_connectivity::InverseMap;
use overset_grid::curvilinear::Solid;
use overset_grid::transform::RigidTransform;
use overset_motion::{integrate_surface_loads, Loads};
use overset_solver::bc::{apply_bcs, wall_surface};
use overset_solver::conditions::pressure;
use overset_solver::{Block, FlowConditions, WallGeometry};

/// Flops charged per wall-surface node of a load integration.
const FLOPS_PER_WALL_NODE: u64 = 30;
/// Flops each driver charges per moving body per step for advancing the
/// body's motion.
pub(crate) const FLOPS_PER_BODY_STEP: f64 = 500.0;

/// Move a grid's block and wall points by this step's rigid motion `t` and
/// re-apply the BCs, returning their flops. `t` is composed into `pending`
/// for [`InverseMap::refresh`] unless it is negligible at the scale of the
/// grid's `map` (with no map yet: unless it is the identity), so a null
/// motion cannot trigger a pointless map rebuild.
pub(crate) fn move_grid(
    block: &mut Block,
    wall: Option<&mut WallGeometry>,
    t: &RigidTransform,
    fc: &FlowConditions,
    map: Option<&InverseMap>,
    pending: &mut Option<RigidTransform>,
) -> u64 {
    block.apply_motion(t, fc.dt);
    let negligible = match map {
        Some(m) => t.is_negligible_for(&m.bounds()),
        None => t.is_identity(),
    };
    if !negligible {
        *pending = Some(match pending.take() {
            Some(prev) => prev.then(t),
            None => *t,
        });
    }
    if let Some(w) = wall {
        for p in &mut w.wall_xyz {
            *p = t.apply(*p);
        }
    }
    // Re-apply wall BCs with the *new* grid velocity: the wall state must
    // move with the wall, otherwise the stale no-slip velocity acts as an
    // impulsive slip over the tiny wall cells.
    apply_bcs(block, fc)
}

/// Move the hole-cutting solids of grid `g` by `t`.
pub(crate) fn move_solids(solids: &mut [(usize, Solid)], g: usize, t: &RigidTransform) {
    for (sg, s) in solids.iter_mut() {
        if *sg == g {
            *s = s.transformed(t);
        }
    }
}

/// Add the gauge-pressure loads on `block`'s wall faces, about `refp`, into
/// `loads` face by face (so a body's sum over its grids keeps one fixed
/// order). Returns the flops.
pub(crate) fn add_wall_loads(
    block: &Block,
    fc: &FlowConditions,
    refp: [f64; 3],
    loads: &mut Loads,
) -> u64 {
    // Gauge pressure: open per-grid patches must not feel the uniform
    // freestream.
    let p_inf = pressure(&fc.freestream());
    let mut flops = 0u64;
    for face in 0..6 {
        if let Some((nu, nv, coords, press)) = wall_surface(block, face) {
            let gauge: Vec<f64> = press.iter().map(|p| p - p_inf).collect();
            *loads = loads.add(&integrate_surface_loads(nu, nv, &coords, &gauge, refp, 1.0));
            flops += (nu * nv) as u64 * FLOPS_PER_WALL_NODE;
        }
    }
    flops
}
