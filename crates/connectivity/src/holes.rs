//! Hole cutting and fringe (inter-grid boundary point) identification.
//!
//! "Holes are cut in grids which intersect solid surfaces": every node of a
//! block lying inside another grid's solid geometry is blanked. Field nodes
//! adjacent to holes become *hole fringe* points, and the nodes of
//! `OversetOuter` boundary patches become *outer-boundary* points; both sets
//! are the inter-grid boundary points (IGBPs) whose values DCF3D supplies by
//! interpolation each step.

use crate::arena::ConnArena;
use crate::inverse_map::{classify_solids_into, BinClass, InverseMap};
use crate::kernels::containment_lanes;
use overset_grid::curvilinear::{BcKind, Solid};
use overset_grid::index::Ijk;
use overset_solver::{Blank, Block, W};

/// Safety pad (in local cell widths) around solids when blanking.
pub const HOLE_PAD_CELLS: f64 = 0.25;

/// Number of fringe layers at overset outer boundaries (single fringe, as
/// was common in the paper's era; the JST stencil degrades gracefully to
/// second differences beside interpolated data).
pub const OUTER_FRINGE_LAYERS: usize = 1;

/// Flops per (node, solid) bounding-box pre-check — and per node for the
/// masked cutter's bin lookup, which replaces those checks.
pub const FLOPS_PER_NODE_BBOX: u64 = 4;
/// Flops per detailed containment test (nodes inside a solid's box).
pub const FLOPS_PER_DETAILED_TEST: u64 = 25;

/// One IGBP on a block: the local node plus its physical position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Igbp {
    pub node: Ijk,
    pub xyz: [f64; 3],
}

/// Re-cut holes and identify fringe points on a block against the solids of
/// *other* grids. Resets all previous blanking. Returns (IGBP list,
/// estimated flops).
///
/// With an inverse map (`inv`), the map's hole lattice is classified per
/// solid (inside / outside / boundary) once, and the per-node detailed
/// containment test runs only for nodes in *boundary* bins. Blanking is
/// bit-identical to the unmasked cutter (`inv = None`) — only the flop
/// charge changes.
///
/// The fringe-node scratch lives on the caller-owned [`ConnArena`] and
/// persists across steps; the returned IGBP list is recycled through the
/// arena (hand it back with [`ConnArena::recycle_igbps`] once connectivity
/// has consumed it). Blanking is identical with a fresh or a warm arena;
/// callers without a persistent arena pass `&mut ConnArena::new()`.
///
/// An inverse map with a non-identity pose is ignored here: solid masks
/// are classified in the map's *lattice* frame, and re-deriving them
/// through the pose is not bit-safe against the unmasked cutter's
/// world-frame verdicts. A recently-moved grid therefore pays the
/// unmasked per-node cost until its next full rebuild re-anchors the
/// lattice — blanking stays bit-identical throughout.
pub fn cut_holes_and_find_fringe_arena(
    block: &mut Block,
    solids: &[(usize, Solid)],
    inv: Option<&InverseMap>,
    arena: &mut ConnArena,
) -> (Vec<Igbp>, u64) {
    let inv = inv.filter(|m| m.pose_is_identity());
    let ow = block.owned_local();
    // Reset: every owned node back to Field.
    for p in ow.iter() {
        block.iblank[p] = Blank::Field;
    }

    let isa = arena.isa;
    let ConnArena { fringe_nodes, foreign_solids, solid_boxes, bin_classes, igbp_pool, .. } = arena;

    // Containment tests against foreign solids: cheap bounding-box
    // pre-check, detailed test only inside a solid's (padded) box.
    foreign_solids.clear();
    foreign_solids.extend(solids.iter().filter(|(g, _)| *g != block.grid_id).map(|(_, s)| *s));
    let mut flops = 0u64;
    if !foreign_solids.is_empty() {
        // Pad boxes by the largest plausible pad once.
        let probe = overset_grid::Ijk::new(
            (ow.lo.i + ow.hi.i) / 2,
            (ow.lo.j + ow.hi.j) / 2,
            (ow.lo.k + ow.hi.k) / 2,
        );
        let pad_hint = HOLE_PAD_CELLS * local_spacing(block, probe) * 4.0;
        solid_boxes.clear();
        solid_boxes.extend(foreign_solids.iter().map(|s| s.bbox().inflate(pad_hint)));
        // With an inverse map, classify its hole lattice against each solid
        // once; whole bins then resolve without per-node detailed tests.
        let classes: Option<&[Vec<BinClass>]> = if let Some(m) = inv {
            flops += classify_solids_into(m, foreign_solids, pad_hint, bin_classes);
            Some(bin_classes)
        } else {
            None
        };
        // Lane-batched containment: test W nodes at a time, one node per
        // SIMD lane. The per-lane masks replay the scalar control flow —
        // bin-class skips, bbox pre-check, detailed test, first-hit break —
        // so the blanking verdicts *and* the flop charges are bit-identical
        // to the scalar per-node loop for every `Isa`.
        let mut nodes = [Ijk::new(0, 0, 0); W];
        let mut xs = [0.0f64; 3 * W];
        let mut pads = [0.0f64; W];
        let mut bins = [None; W];
        let mut n_chunk = 0usize;
        let mut it = ow.iter();
        loop {
            match it.next() {
                Some(p) => {
                    let x = block.coords[p];
                    nodes[n_chunk] = p;
                    for (m, &xm) in x.iter().enumerate() {
                        xs[m * W + n_chunk] = xm;
                    }
                    pads[n_chunk] = HOLE_PAD_CELLS * local_spacing(block, p);
                    bins[n_chunk] = inv.map(|m| m.hole_bin(x));
                    n_chunk += 1;
                    if n_chunk < W {
                        continue;
                    }
                }
                None => {
                    if n_chunk == 0 {
                        break;
                    }
                    // Ragged tail: idle lanes replicate lane 0 (their
                    // results are masked out).
                    for l in n_chunk..W {
                        for m in 0..3 {
                            xs[m * W + l] = xs[m * W];
                        }
                        pads[l] = pads[0];
                    }
                }
            }
            // One charge per node: the per-solid loop overhead (unmasked)
            // or the hole-lattice bin lookup (masked).
            flops += n_chunk as u64 * FLOPS_PER_NODE_BBOX;
            let mut hole = [false; W];
            let mut alive = [false; W];
            for a in alive.iter_mut().take(n_chunk) {
                *a = true;
            }
            let mut inb = [false; W];
            let mut ins = [false; W];
            for (si, (s, bb)) in foreign_solids.iter().zip(solid_boxes.iter()).enumerate() {
                // Per-lane bin-class routing, exactly the scalar verdicts.
                let mut test = [false; W];
                let mut any = false;
                for l in 0..n_chunk {
                    if !alive[l] {
                        continue;
                    }
                    if let (Some(c), Some(b)) = (&classes, bins[l]) {
                        match c[si][b] {
                            // No point of this bin reaches the padded box:
                            // the unmasked cutter's bbox pre-check would
                            // skip too — without its per-solid flops.
                            BinClass::Outside => continue,
                            // Whole bin inside at zero pad; any per-node
                            // pad ≥ 0 only blanks more: verdict certain.
                            BinClass::Inside => {
                                hole[l] = true;
                                alive[l] = false;
                                continue;
                            }
                            BinClass::Boundary => {}
                        }
                    }
                    flops += FLOPS_PER_NODE_BBOX;
                    test[l] = true;
                    any = true;
                }
                if any {
                    containment_lanes(isa, s, bb, &xs, &pads, &mut inb, &mut ins);
                    for l in 0..n_chunk {
                        if !test[l] || !inb[l] {
                            continue;
                        }
                        flops += FLOPS_PER_DETAILED_TEST;
                        if ins[l] {
                            hole[l] = true;
                            alive[l] = false;
                        }
                    }
                }
                if !alive.iter().any(|&a| a) {
                    break;
                }
            }
            for l in 0..n_chunk {
                if hole[l] {
                    block.iblank[nodes[l]] = Blank::Hole;
                }
            }
            if n_chunk < W {
                break;
            }
            n_chunk = 0;
        }
    }

    // Hole fringe: field nodes with a hole neighbour (6-connectivity,
    // in-plane for 2-D blocks).
    fringe_nodes.clear();
    if !foreign_solids.is_empty() {
        for p in ow.iter() {
            if block.iblank[p] != Blank::Field {
                continue;
            }
            let mut near_hole = false;
            for &dir in block.active_dirs() {
                for d in [-1isize, 1] {
                    let c = p.get(dir) as isize + d;
                    if c < 0 || c as usize >= block.local_dims.get(dir) {
                        continue;
                    }
                    let mut q = p;
                    q.set(dir, c as usize);
                    if block.iblank[q] == Blank::Hole {
                        near_hole = true;
                    }
                }
            }
            if near_hole {
                fringe_nodes.push(p);
            }
        }
    }
    for &p in fringe_nodes.iter() {
        block.iblank[p] = Blank::Fringe;
    }

    // Outer-boundary fringe: layers of faces carrying OversetOuter patches.
    for face in 0..6 {
        if block.face_bc[face] != Some(BcKind::OversetOuter) {
            continue;
        }
        let layers = block.layer_box(face, OUTER_FRINGE_LAYERS, false);
        for p in layers.iter() {
            if block.iblank[p] != Blank::Hole {
                block.iblank[p] = Blank::Fringe;
            }
        }
    }

    // Collect all fringe nodes as IGBPs (into a recycled buffer).
    let mut igbps = igbp_pool.take();
    for p in ow.iter() {
        if block.iblank[p] == Blank::Fringe {
            igbps.push(Igbp { node: p, xyz: block.coords[p] });
        }
    }
    (igbps, flops)
}

fn local_spacing(block: &Block, p: Ijk) -> f64 {
    let d = block.local_dims;
    let q = if p.i + 1 < d.ni { Ijk::new(p.i + 1, p.j, p.k) } else { Ijk::new(p.i - 1, p.j, p.k) };
    let (a, b) = (block.coords[p], block.coords[q]);
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::curvilinear::{BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;

    /// Hole cut with a cold arena.
    fn cut(b: &mut Block, solids: &[(usize, Solid)], inv: Option<&InverseMap>) -> (Vec<Igbp>, u64) {
        cut_holes_and_find_fringe_arena(b, solids, inv, &mut ConnArena::new())
    }

    fn bg_block(n: usize, outer_overset: bool) -> Block {
        let d = Dims::new(n, n, 1);
        let h = 4.0 / (n - 1) as f64;
        let coords = Field3::from_fn(d, |p| [-2.0 + h * p.i as f64, -2.0 + h * p.j as f64, 0.0]);
        let mut g = CurvilinearGrid::new("bg", coords, GridKind::Background);
        if outer_overset {
            g.patches = Face::ALL[..4]
                .iter()
                .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
                .collect();
        }
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(1, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn solid_cuts_hole_with_fringe_ring() {
        let mut b = bg_block(21, false);
        let solids = vec![(0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        let (igbps, flops) = cut(&mut b, &solids, None);
        assert!(flops > 0);
        // Center is a hole.
        let c = b.to_local(Ijk::new(10, 10, 0));
        assert_eq!(b.iblank[c], Blank::Hole);
        // Holes exist, fringe ring surrounds them.
        let holes = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert!(holes > 4, "holes = {holes}");
        assert!(!igbps.is_empty());
        // Every fringe node touches a hole.
        for ig in &igbps {
            let p = ig.node;
            let mut touches = false;
            for dir in 0..2 {
                for d in [-1isize, 1] {
                    let mut q = p;
                    q.set(dir, (q.get(dir) as isize + d) as usize);
                    if b.iblank[q] == Blank::Hole {
                        touches = true;
                    }
                }
            }
            assert!(touches, "fringe {p:?} not adjacent to a hole");
        }
    }

    #[test]
    fn own_solids_do_not_cut_own_grid() {
        let mut b = bg_block(11, false);
        // Solid belongs to grid 1 == block's own grid.
        let solids = vec![(1usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        let (igbps, _) = cut(&mut b, &solids, None);
        assert!(igbps.is_empty());
        for p in b.owned_local().iter() {
            assert_eq!(b.iblank[p], Blank::Field);
        }
    }

    #[test]
    fn outer_boundary_becomes_fringe() {
        let mut b = bg_block(11, true);
        let (igbps, _) = cut(&mut b, &[], None);
        // Single fringe on all 4 edges of an 11x11 grid: 11^2 - 9^2 = 40.
        assert_eq!(igbps.len(), 40);
        let ow = b.owned_local();
        assert_eq!(b.iblank[Ijk::new(ow.lo.i, ow.lo.j + 5, 0)], Blank::Fringe);
        assert_eq!(b.iblank[Ijk::new(ow.lo.i + 5, ow.lo.j + 5, 0)], Blank::Field);
    }

    #[test]
    fn recut_resets_previous_state() {
        let mut b = bg_block(15, false);
        let near = vec![(0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        cut(&mut b, &near, None);
        let before: usize = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert!(before > 0);
        // Solid moves away: holes must vanish.
        let far =
            vec![(0usize, Solid::Ellipsoid { center: [50.0, 0.0, 0.0], radii: [0.7, 0.7, 10.0] })];
        let (igbps, _) = cut(&mut b, &far, None);
        let after: usize = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert_eq!(after, 0);
        assert!(igbps.is_empty());
    }

    #[test]
    fn masked_cut_matches_unmasked_bitwise() {
        // 2-D background block against two foreign solids: blanking, fringe
        // and IGBPs must be bit-identical with and without the mask.
        let mut a = bg_block(41, false);
        let mut b = bg_block(41, false);
        let solids = vec![
            (0usize, Solid::Ellipsoid { center: [0.3, -0.2, 0.0], radii: [0.8, 0.6, 10.0] }),
            (
                0usize,
                Solid::Slab { aabb: overset_grid::Aabb::new([-1.8, 1.0, -1.0], [-0.9, 1.9, 1.0]) },
            ),
        ];
        let inv = InverseMap::build(&a);
        let (ia, _) = cut(&mut a, &solids, Some(&inv));
        let (ib, _) = cut(&mut b, &solids, None);
        assert_eq!(ia, ib);
        for p in a.owned_local().iter() {
            assert_eq!(a.iblank[p], b.iblank[p], "blanking differs at {p:?}");
        }
    }

    #[test]
    fn masked_cut_is_cheaper_on_3d_blocks() {
        let d = Dims::new(33, 33, 33);
        let h = 4.0 / 32.0;
        let coords = Field3::from_fn(d, |p| {
            [-2.0 + h * p.i as f64, -2.0 + h * p.j as f64, -2.0 + h * p.k as f64]
        });
        let g = CurvilinearGrid::new("bg3", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut a = Block::from_grid(1, &g, d.full_box(), [None; 6], &fc);
        let mut b = Block::from_grid(1, &g, d.full_box(), [None; 6], &fc);
        let solids = vec![
            (0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [1.2, 1.0, 1.1] }),
            (0usize, Solid::Ellipsoid { center: [0.8, 0.6, -0.4], radii: [0.9, 1.1, 0.8] }),
        ];
        let inv = InverseMap::build(&a);
        let (ia, fa) = cut(&mut a, &solids, Some(&inv));
        let (ib, fb) = cut(&mut b, &solids, None);
        assert_eq!(ia, ib);
        for p in a.owned_local().iter() {
            assert_eq!(a.iblank[p], b.iblank[p]);
        }
        assert!(fa < fb, "masked cut {fa} flops vs unmasked {fb}");
    }

    #[test]
    fn moving_solid_shifts_the_hole() {
        let mut b = bg_block(21, false);
        let s0 =
            vec![(0usize, Solid::Ellipsoid { center: [-0.5, 0.0, 0.0], radii: [0.5, 0.5, 10.0] })];
        cut(&mut b, &s0, None);
        let left_hole = b.iblank[b.to_local(Ijk::new(7, 10, 0))] == Blank::Hole;
        let s1 =
            vec![(0usize, Solid::Ellipsoid { center: [0.5, 0.0, 0.0], radii: [0.5, 0.5, 10.0] })];
        cut(&mut b, &s1, None);
        let right_hole = b.iblank[b.to_local(Ijk::new(13, 10, 0))] == Blank::Hole;
        assert!(left_hole && right_hole);
        assert_ne!(b.iblank[b.to_local(Ijk::new(7, 10, 0))], Blank::Hole);
    }
}
