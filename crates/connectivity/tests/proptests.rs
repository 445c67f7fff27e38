//! Property-based tests of the donor search and interpolation machinery.

use overset_connectivity::donor::center_start;
use overset_connectivity::{interpolate, walk_search, SearchCost, SearchOutcome};
use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::Field3;
use overset_grid::{Dims, Ijk};
use overset_solver::{Block, FlowConditions, Isa};
use proptest::prelude::*;

fn fc() -> FlowConditions {
    FlowConditions::new(0.8, 0.0, 0.0)
}

/// A smoothly distorted curvilinear block for search tests.
fn wavy_block(n: usize, amp: f64) -> Block {
    let d = Dims::new(n, n, n);
    let coords = Field3::from_fn(d, |p| {
        let (x, y, z) = (p.i as f64, p.j as f64, p.k as f64);
        [
            x + amp * (0.7 * y + 0.3 * z).sin(),
            y + amp * (0.5 * x + 0.4 * z).cos() - amp,
            z + amp * (0.3 * x + 0.6 * y).sin(),
        ]
    });
    let g = CurvilinearGrid::new("wavy", coords, GridKind::Background);
    Block::from_grid(0, &g, d.full_box(), [None; 6], &fc())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any point synthesized *inside* a known cell is found, and the found
    /// cell reproduces the point through the forward trilinear map.
    #[test]
    fn walk_finds_synthesized_interior_points(
        ci in 1usize..8, cj in 1usize..8, ck in 1usize..8,
        ti in 0.05f64..0.95, tj in 0.05f64..0.95, tk in 0.05f64..0.95,
        si in 0usize..9, sj in 0usize..9, sk in 0usize..9,
        amp in 0.0f64..0.25,
    ) {
        let b = wavy_block(10, amp);
        // Forward-map a point inside cell (ci, cj, ck).
        let cell = b.to_local(Ijk::new(ci, cj, ck));
        let mut target = [0.0f64; 3];
        for dk in 0..2 {
            for dj in 0..2 {
                for di in 0..2 {
                    let w = (if di == 0 { 1.0 - ti } else { ti })
                        * (if dj == 0 { 1.0 - tj } else { tj })
                        * (if dk == 0 { 1.0 - tk } else { tk });
                    let c = b.coords[Ijk::new(cell.i + di, cell.j + dj, cell.k + dk)];
                    for m in 0..3 {
                        target[m] += w * c[m];
                    }
                }
            }
        }
        let start = b.to_local(Ijk::new(si, sj, sk));
        let mut cost = SearchCost::default();
        match walk_search(&b, target, start, &mut cost, false, Isa::Scalar) {
            SearchOutcome::Found(d) => {
                // Verify by interpolating the coordinates themselves.
                let mut bb = wavy_block(10, amp);
                for p in bb.local_dims.iter().collect::<Vec<_>>() {
                    let c = bb.coords[p];
                    bb.q.set_node(p, [c[0], c[1], c[2], 0.0, 0.0]);
                }
                let q = interpolate(&bb, &d);
                for m in 0..3 {
                    prop_assert!(
                        (q[m] - target[m]).abs() < 1e-6,
                        "coordinate interp mismatch: {:?} vs {:?}",
                        q, target
                    );
                }
            }
            o => prop_assert!(false, "interior point not found: {o:?} (cost {cost:?})"),
        }
    }

    /// Points far outside the grid never produce a donor.
    #[test]
    fn outside_points_never_found(
        dx in 20.0f64..100.0,
        dir in 0usize..6,
        amp in 0.0f64..0.2,
    ) {
        let b = wavy_block(8, amp);
        let mut target = [3.5f64; 3];
        target[dir / 2] += if dir % 2 == 0 { dx } else { -dx };
        let mut cost = SearchCost::default();
        let out = walk_search(&b, target, center_start(&b), &mut cost, false, Isa::Scalar);
        prop_assert!(!matches!(out, SearchOutcome::Found(_)), "found {out:?}");
    }

    /// Interpolation is exact for linear fields regardless of the donor
    /// location (the fundamental Chimera accuracy property).
    #[test]
    fn interpolation_exact_on_linear_fields(
        a in -2.0f64..2.0, bcoef in -2.0f64..2.0, c in -2.0f64..2.0, d0 in -2.0f64..2.0,
        px in 1.2f64..5.8, py in 1.2f64..5.8, pz in 1.2f64..5.8,
    ) {
        let mut b = wavy_block(8, 0.1);
        for p in b.local_dims.iter().collect::<Vec<_>>() {
            let x = b.coords[p];
            let f = a * x[0] + bcoef * x[1] + c * x[2] + d0;
            b.q.set_node(p, [f, 2.0 * f, -f, 0.5 * f, f + 1.0]);
        }
        let target = [px, py, pz];
        let mut cost = SearchCost::default();
        if let SearchOutcome::Found(dn) = walk_search(&b, target, center_start(&b), &mut cost, false, Isa::Scalar) {
            let q = interpolate(&b, &dn);
            let expect = a * px + bcoef * py + c * pz + d0;
            prop_assert!((q[0] - expect).abs() < 1e-8, "{} vs {}", q[0], expect);
            prop_assert!((q[1] - 2.0 * expect).abs() < 1e-8);
        }
    }

    /// Search cost accounting is always positive and bounded.
    #[test]
    fn search_costs_bounded(
        px in 0.5f64..6.5, py in 0.5f64..6.5, pz in 0.5f64..6.5,
    ) {
        let b = wavy_block(8, 0.15);
        let mut cost = SearchCost::default();
        let _ = walk_search(&b, [px, py, pz], center_start(&b), &mut cost, false, Isa::Scalar);
        prop_assert!(cost.walk_steps >= 1);
        prop_assert!(cost.flops() >= cost.walk_steps * 60);
        // Greedy fallback budget bounds the total walk.
        prop_assert!(cost.walk_steps < 500, "runaway walk: {}", cost.walk_steps);
    }
}
