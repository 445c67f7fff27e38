//! Serial domain-connectivity solution: all component grids resident in one
//! address space (one block per grid). Used by the single-processor (Cray
//! Y-MP) baseline of Table 6 and as the physics reference the distributed
//! protocol is validated against.

use crate::arena::ConnArena;
use crate::donor::{center_start, walk_search, Donor, SearchCost, SearchOutcome};
use crate::holes::cut_holes_and_find_fringe_arena;
use crate::interp::{interpolate, FLOPS_PER_INTERP};
use crate::inverse_map::InverseMap;
use overset_grid::curvilinear::Solid;
use overset_grid::index::Ijk;
use overset_solver::Block;
use std::collections::HashMap;

/// Donor cache for nth-level restart, serial form: per (grid, fringe node) →
/// (donor grid, donor cell in that grid's local indices).
#[derive(Clone, Debug, Default)]
pub struct SerialCache {
    map: HashMap<(usize, Ijk), (usize, Ijk)>,
}

impl SerialCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Statistics of one serial connectivity solution.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialConnStats {
    pub igbps: usize,
    pub resolved: usize,
    pub orphans: usize,
    pub walk_steps: u64,
    pub flops: u64,
}

/// Re-establish domain connectivity serially:
/// 1. cut holes / find fringe on every grid,
/// 2. for each IGBP, search its grid's hierarchy list for a donor (warm
///    started from the cache when possible),
/// 3. interpolate and impose the fringe values.
///
/// Optional per-grid inverse maps (`maps[g]` built for `blocks[g]`'s current
/// geometry) mask hole cutting by each map's ternary solid lattice and seed
/// cold donor searches from the map's O(1) lookup instead of the donor
/// grid's center. Results (blanking, donors, orphans, fringe values) are
/// identical with or without maps — only the flop charge drops.
///
/// Per-grid IGBP lists, the deferred-write buffer and the grid bounding
/// boxes live on the caller-owned [`ConnArena`] and keep their capacity
/// across steps. Results are bit-identical with
/// a fresh or warm arena — only host allocation counts differ.
pub fn connect_serial_arena(
    blocks: &mut [Block],
    search_order: &[Vec<usize>],
    solids: &[(usize, Solid)],
    cache: &mut SerialCache,
    maps: Option<&[InverseMap]>,
    arena: &mut ConnArena,
) -> SerialConnStats {
    let ngrids = blocks.len();
    assert_eq!(search_order.len(), ngrids);
    if let Some(ms) = maps {
        assert_eq!(ms.len(), ngrids);
    }
    let mut stats = SerialConnStats::default();

    // Phase 1: hole cutting and fringe identification. Last step's IGBP
    // lists go back to the pool first, so the cutter reuses their capacity.
    while let Some(v) = arena.igbps_per_grid.pop() {
        arena.igbp_pool.put(v);
    }
    for (g, b) in blocks.iter_mut().enumerate() {
        let (igbps, flops) =
            cut_holes_and_find_fringe_arena(b, solids, maps.map(|ms| &ms[g]), arena);
        stats.flops += flops;
        arena.igbps_per_grid.push(igbps);
    }

    // Donor-grid bounding boxes for cheap rejection.
    arena.grid_bboxes.clear();
    arena.grid_bboxes.extend(blocks.iter().map(|b| {
        let bb = overset_grid::Aabb::from_points(b.coords.as_slice().iter());
        bb.inflate(1e-9 * bb.diagonal().max(1.0))
    }));
    arena.serial_writes.clear();
    let isa = arena.isa;
    let ConnArena { igbps_per_grid, serial_writes: writes, grid_bboxes: bboxes, .. } = &mut *arena;

    // Phase 2/3: search and interpolate. Interpolated values are buffered
    // and applied after every IGBP is resolved, so each donor reads the
    // pre-connectivity state — answers cannot depend on the order in which
    // fringe points happen to resolve.
    for g in 0..ngrids {
        let igbps = &igbps_per_grid[g];
        stats.igbps += igbps.len();
        for ig in igbps.iter() {
            let key = (g, ig.node);
            let mut found: Option<(usize, Donor)> = None;

            // Warm start at the cached donor.
            if let Some(&(dg, cell)) = cache.map.get(&key) {
                let mut cost = SearchCost::default();
                if let SearchOutcome::Found(d) =
                    walk_search(&blocks[dg], ig.xyz, cell, &mut cost, false, isa)
                {
                    found = Some((dg, d));
                }
                stats.walk_steps += cost.walk_steps;
                stats.flops += cost.flops();
            }

            // Hierarchy search: strict pass, then a relaxed last-resort
            // pass (donors with holes in the stencil, weights renormalized).
            for relaxed in [false, true] {
                if found.is_some() {
                    break;
                }
                for &dg in &search_order[g] {
                    if !bboxes[dg].contains(ig.xyz) {
                        continue;
                    }
                    let mut cost = SearchCost::default();
                    let start = match maps {
                        Some(ms) => {
                            stats.flops += ms[dg].query_flops();
                            ms[dg].query(ig.xyz)
                        }
                        None => center_start(&blocks[dg]),
                    };
                    let out = walk_search(&blocks[dg], ig.xyz, start, &mut cost, relaxed, isa);
                    stats.walk_steps += cost.walk_steps;
                    stats.flops += cost.flops();
                    if let SearchOutcome::Found(d) = out {
                        found = Some((dg, d));
                        break;
                    }
                }
            }

            match found {
                Some((dg, d)) => {
                    let value = interpolate(&blocks[dg], &d);
                    stats.flops += FLOPS_PER_INTERP;
                    writes.push((g, ig.node, value));
                    cache.map.insert(key, (dg, d.cell));
                    stats.resolved += 1;
                }
                None => {
                    // Orphan: keep the previous value.
                    cache.map.remove(&key);
                    stats.orphans += 1;
                }
            }
        }
    }
    for &(g, node, value) in writes.iter() {
        blocks[g].q.set_node(node, value);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;

    /// Two overlapping 2-D Cartesian grids: a fine inner grid with overset
    /// outer boundaries embedded in a coarse background.
    fn two_grid_system() -> Vec<Block> {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        // Inner: [1, 3]^2 with h = 0.125.
        let di = Dims::new(17, 17, 1);
        let ci = Field3::from_fn(di, |p| [1.0 + 0.125 * p.i as f64, 1.0 + 0.125 * p.j as f64, 0.0]);
        let mut gi = CurvilinearGrid::new("inner", ci, GridKind::NearBody);
        gi.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
            .collect();
        // Outer: [0, 4]^2 with h = 0.25.
        let do_ = Dims::new(17, 17, 1);
        let co = Field3::from_fn(do_, |p| [0.25 * p.i as f64, 0.25 * p.j as f64, 0.0]);
        let mut go = CurvilinearGrid::new("outer", co, GridKind::Background);
        go.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield })
            .collect();
        vec![
            Block::from_grid(0, &gi, di.full_box(), [None; 6], &fc),
            Block::from_grid(1, &go, do_.full_box(), [None; 6], &fc),
        ]
    }

    /// Serial connectivity with a cold arena.
    fn connect(
        blocks: &mut [Block],
        order: &[Vec<usize>],
        solids: &[(usize, Solid)],
        cache: &mut SerialCache,
        maps: Option<&[InverseMap]>,
    ) -> SerialConnStats {
        connect_serial_arena(blocks, order, solids, cache, maps, &mut ConnArena::new())
    }

    fn order() -> Vec<Vec<usize>> {
        vec![vec![1], vec![0]]
    }

    #[test]
    fn fringe_values_interpolated_from_background() {
        let mut blocks = two_grid_system();
        // Paint the background with a linear field; garbage on inner fringe.
        let bg = &mut blocks[1];
        for p in bg.local_dims.iter().collect::<Vec<_>>() {
            let [x, y, _] = bg.coords[p];
            bg.q.set_node(p, [1.0 + x + 2.0 * y, 0.0, 0.0, 0.0, 1.0]);
        }
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &order(), &[], &mut cache, None);
        assert!(stats.igbps > 0);
        assert_eq!(stats.orphans, 0, "stats: {stats:?}");
        // Check an inner outer-boundary node got the background value.
        let node = blocks[0].to_local(Ijk::new(0, 8, 0)); // at (1.0, 2.0)
        let q = blocks[0].q.node(node);
        assert!((q[0] - (1.0 + 1.0 + 4.0)).abs() < 1e-10, "q0 = {}", q[0]);
    }

    #[test]
    fn second_pass_uses_cache_and_is_cheaper() {
        let mut blocks = two_grid_system();
        let mut cache = SerialCache::new();
        let s1 = connect(&mut blocks, &order(), &[], &mut cache, None);
        assert!(!cache.is_empty());
        let s2 = connect(&mut blocks, &order(), &[], &mut cache, None);
        assert_eq!(s1.igbps, s2.igbps);
        assert!(
            s2.walk_steps < s1.walk_steps / 2,
            "restart not effective: {} vs {}",
            s2.walk_steps,
            s1.walk_steps
        );
    }

    #[test]
    fn solid_hole_fringe_resolved_on_background() {
        let mut blocks = two_grid_system();
        // A solid owned by grid 0 cuts the background grid.
        let solids =
            vec![(0usize, Solid::Ellipsoid { center: [2.0, 2.0, 0.0], radii: [0.4, 0.4, 10.0] })];
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &order(), &solids, &mut cache, None);
        // Background has a hole with fringe; those fringes find donors on
        // the fine inner grid (which covers [1,3]^2).
        let bg_holes = blocks[1]
            .owned_local()
            .iter()
            .filter(|&p| blocks[1].iblank[p] == overset_solver::Blank::Hole)
            .count();
        assert!(bg_holes > 0);
        assert_eq!(stats.orphans, 0, "{stats:?}");
    }

    #[test]
    fn moving_inner_grid_updates_connectivity() {
        let mut blocks = two_grid_system();
        let mut cache = SerialCache::new();
        connect(&mut blocks, &order(), &[], &mut cache, None);
        let n0 = cache.len();
        // Move the inner grid; donors must re-resolve.
        let t = overset_grid::RigidTransform::translation([0.05, 0.02, 0.0]);
        blocks[0].apply_motion(&t, 0.1);
        let stats = connect(&mut blocks, &order(), &[], &mut cache, None);
        assert_eq!(stats.orphans, 0);
        assert!(cache.len() >= n0);
    }

    #[test]
    fn maps_reduce_walk_work_with_same_resolution() {
        let mut a = two_grid_system();
        let mut b = two_grid_system();
        let mut ca = SerialCache::new();
        let mut cb = SerialCache::new();
        let sa = connect(&mut a, &order(), &[], &mut ca, None);
        let maps: Vec<InverseMap> = b.iter().map(InverseMap::build).collect();
        let sb = connect(&mut b, &order(), &[], &mut cb, Some(&maps));
        assert_eq!(sa.igbps, sb.igbps);
        assert_eq!(sa.resolved, sb.resolved);
        assert_eq!(sa.orphans, sb.orphans);
        assert!(
            sb.walk_steps < sa.walk_steps,
            "seeded {} vs cold {} walk steps",
            sb.walk_steps,
            sa.walk_steps
        );
    }

    #[test]
    fn orphan_when_no_grid_contains_point() {
        let mut blocks = two_grid_system();
        // Restrict the search so the inner grid's fringe finds nothing.
        let bad_order = vec![vec![], vec![0]];
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &bad_order, &[], &mut cache, None);
        assert!(stats.orphans > 0);
    }
}
