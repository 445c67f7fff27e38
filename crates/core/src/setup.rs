//! Per-rank system setup: building blocks, wall geometry and the routing
//! topology from a partition.

use overset_balance::Partition;
use overset_comm::OversetError;
use overset_connectivity::Topology;
use overset_grid::curvilinear::{BcKind, CurvilinearGrid, Face, Solid};
use overset_grid::transform::RigidTransform;
use overset_solver::bc::apply_bcs;
use overset_solver::conditions::conservatives;
use overset_solver::{Block, FlowConditions, WallGeometry};

/// Build the routing topology (replicated on every rank). Fails when the
/// search hierarchy does not describe every grid or names an unknown grid.
pub fn build_topology(
    partition: &Partition,
    search_order: &[Vec<usize>],
) -> Result<Topology, OversetError> {
    let ngrids = partition.np.len();
    if search_order.len() != ngrids {
        return Err(OversetError::Setup(format!(
            "search_order describes {} grids but the partition has {ngrids}",
            search_order.len()
        )));
    }
    if let Some(&bad) = search_order.iter().flatten().find(|&&g| g >= ngrids) {
        return Err(OversetError::Setup(format!("search_order references grid {bad} of {ngrids}")));
    }
    Ok(Topology {
        grid_of_rank: partition.grid_of_rank_vec(),
        ranks_of_grid: (0..ngrids).map(|g| partition.ranks_of_grid(g)).collect(),
        search_order: search_order.to_vec(),
    })
}

/// Every grid's hole-cutting solids, each tagged with its grid.
pub(crate) fn solids_of(grids: &[CurvilinearGrid]) -> Vec<(usize, Solid)> {
    grids
        .iter()
        .enumerate()
        .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
        .collect()
}

/// Build this rank's block (and wall geometry when its grid has a JMin
/// wall), applying the cumulative motion transform of the grid.
pub fn build_block(
    rank: usize,
    partition: &Partition,
    grids: &[CurvilinearGrid],
    cumulative: &[RigidTransform],
    fc: &FlowConditions,
) -> Result<(Block, Option<WallGeometry>), OversetError> {
    if rank >= partition.ranks.len() {
        return Err(OversetError::Setup(format!(
            "rank {rank} outside the {}-rank partition",
            partition.ranks.len()
        )));
    }
    let a = partition.ranks[rank];
    let grid = grids.get(a.grid).ok_or_else(|| {
        OversetError::Setup(format!(
            "partition references grid {} but only {} grids exist",
            a.grid,
            grids.len()
        ))
    })?;
    if cumulative.len() != grids.len() {
        return Err(OversetError::Setup(format!(
            "{} cumulative transforms for {} grids",
            cumulative.len(),
            grids.len()
        )));
    }
    let neighbors = partition.neighbors_of(rank, grid.periodic_i);
    let mut block = Block::from_grid(a.grid, grid, a.boxx, neighbors, fc);
    let t = &cumulative[a.grid];
    if !t.is_identity() {
        block.set_geometry_transform(t);
    }
    let wall = match grid.patch_on(Face::JMin) {
        Some(BcKind::Wall { .. }) => {
            let mut w = WallGeometry::from_grid(grid, a.boxx);
            if !t.is_identity() {
                for p in &mut w.wall_xyz {
                    *p = t.apply(*p);
                }
            }
            Some(w)
        }
        _ => None,
    };
    // A freestream field meeting a no-slip wall is an impulsive start whose
    // shear (freestream over one near-wall cell) is unsolvably stiff at fine
    // resolution. Initialize walled grids with a boundary-layer-like
    // velocity profile instead, and apply the BCs once so the first
    // residual already sees consistent wall data.
    if wall.is_some() {
        apply_boundary_layer_profile(&mut block, &wall, fc);
    }
    apply_bcs(&mut block, fc);
    Ok((block, wall))
}

/// Scale the velocity toward zero across a thin layer near the wall
/// (thickness ~8% of the grid's wall-normal extent), keeping density and
/// pressure at freestream.
fn apply_boundary_layer_profile(
    block: &mut Block,
    wall: &Option<WallGeometry>,
    fc: &FlowConditions,
) {
    let Some(w) = wall else { return };
    let q_inf = fc.freestream();
    let u_inf = [q_inf[1] / q_inf[0], q_inf[2] / q_inf[0], q_inf[3] / q_inf[0]];
    let p_inf = overset_solver::conditions::pressure(&q_inf);
    let dims = block.local_dims;
    for p in dims.iter().collect::<Vec<_>>() {
        // Wall point of this node's (i, k) column (clamped into the owned
        // column range for halo nodes).
        let gi = p.i.saturating_sub(block.halo[0]).min(w.ni - 1);
        let gk = p.k.saturating_sub(block.halo[2]).min(w.nk - 1);
        let wp = w.wall_xyz[gi + w.ni * gk];
        // Column-local layer thickness: the profile must not depend on the
        // domain decomposition (a rank-averaged δ would).
        let delta = (0.08 * w.delta_col[gi + w.ni * gk]).max(1e-12);
        let x = block.coords[p];
        let d = ((x[0] - wp[0]).powi(2) + (x[1] - wp[1]).powi(2) + (x[2] - wp[2]).powi(2)).sqrt();
        let f = (d / delta).tanh();
        let vel = [u_inf[0] * f, u_inf[1] * f, u_inf[2] * f];
        block.q.set_node(p, conservatives(&[q_inf[0], vel[0], vel[1], vel[2], p_inf]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::gen::airfoil::airfoil_system;
    use overset_grid::Dims;

    #[test]
    fn topology_matches_partition() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let bal = overset_balance::static_balance(&sizes, 6).unwrap();
        let p = Partition::build(&dims, &bal.np);
        let topo = build_topology(&p, &overset_grid::gen::airfoil::airfoil_search_order()).unwrap();
        assert_eq!(topo.grid_of_rank.len(), 6);
        for g in 0..3 {
            for r in topo.ranks_of_grid[g].clone() {
                assert_eq!(topo.grid_of_rank[r], g);
            }
        }
    }

    #[test]
    fn blocks_cover_grids_without_overlap() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let bal = overset_balance::static_balance(&sizes, 9).unwrap();
        let p = Partition::build(&dims, &bal.np);
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let cum = vec![RigidTransform::IDENTITY; 3];
        let mut per_grid_nodes = [0usize; 3];
        for r in 0..9 {
            let (b, wall) = build_block(r, &p, &grids, &cum, &fc).unwrap();
            per_grid_nodes[b.grid_id] += b.owned_count();
            // Only the near grid (grid 0) has a wall.
            assert_eq!(wall.is_some(), b.grid_id == 0);
        }
        for g in 0..3 {
            assert_eq!(per_grid_nodes[g], grids[g].num_points());
        }
    }

    #[test]
    fn cumulative_transform_applies_to_block_and_wall() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let p = Partition::build(&dims, &[1, 1, 1]);
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut cum = vec![RigidTransform::IDENTITY; 3];
        cum[0] = RigidTransform::translation([5.0, 0.0, 0.0]);
        let (b, wall) = build_block(0, &p, &grids, &cum, &fc).unwrap();
        let bb = overset_connectivity::protocol::owned_bbox(&b);
        assert!(bb.center()[0] > 4.0, "block not translated: {:?}", bb.center());
        let w = wall.unwrap();
        assert!(w.wall_xyz.iter().all(|p| p[0] > 3.0));
    }

    #[test]
    fn invalid_setups_are_reported_not_panicked() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let p = Partition::build(&dims, &[1, 1, 1]);
        // Hierarchy shorter than the grid count.
        let e = build_topology(&p, &[vec![1]]).unwrap_err();
        assert!(e.to_string().contains("search_order"));
        // Hierarchy naming a grid that does not exist.
        let e = build_topology(&p, &[vec![9], vec![0], vec![0]]).unwrap_err();
        assert!(e.to_string().contains("grid 9"));
        // Rank outside the partition.
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let cum = vec![RigidTransform::IDENTITY; 3];
        let Err(e) = build_block(99, &p, &grids, &cum, &fc) else {
            panic!("out-of-range rank accepted")
        };
        assert!(e.to_string().contains("rank 99"));
        // Transform list not matching the grid count.
        let Err(e) = build_block(0, &p, &grids, &[RigidTransform::IDENTITY], &fc) else {
            panic!("short transform list accepted")
        };
        assert!(e.to_string().contains("transforms"));
    }
}
