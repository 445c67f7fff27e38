//! Inverse-map acceleration structures: DCF3D's auxiliary Cartesian maps.
//!
//! DCF3D seeds its stencil-walk donor searches from auxiliary Cartesian
//! "inverse maps" instead of cold-starting every walk from the middle of the
//! grid. This module reproduces that layer for one block:
//!
//! * a **seed lattice** — a uniform Cartesian bin grid over the block's
//!   owned bounding box mapping each bin to a nearby owned cell, so a cold
//!   donor search starts O(1) cells from the target instead of half a block
//!   away ([`InverseMap::query`] replaces `center_start`),
//! * a coarse **occupancy bitmask** ([`OCC_NB`]³ bins packed into
//!   `[u64; 8]`) broadcast with the bounding boxes, so request routing can
//!   prune ranks whose *box* contains a point but whose *cells* cannot
//!   (curved grids — an O-grid annulus most of whose bounding box is empty
//!   interior — generate exactly these false positives),
//! * per-solid **inside/outside/boundary ternary masks** over a hole
//!   lattice, so hole cutting runs the detailed containment test only for
//!   nodes in *boundary* bins (see [`classify_solids_into`]).
//!
//! The structure is rebuilt once per motion event (only for blocks whose
//! grid moved; static grids reuse it across steps) and its build is charged
//! to the virtual-time model like any other compute, so the acceleration is
//! visible — and honest — in the paper's virtual timings.
//!
//! A fine bin no owned cell midpoint lands in takes the seed of its nearest
//! seeded bin — Chebyshev distance on the bin lattice, ties to the lowest
//! flattened bin index — found by one multi-source breadth-first search
//! over the 26-neighbour lattice. Host cost is therefore linear in the bin
//! count, in line with the [`FLOPS_PER_BIN_FILL`] charged per filled bin.
//!
//! Every pruning decision is *conservative*: occupancy bins are marked from
//! cell bounding boxes inflated past the walk's acceptance slack, and solid
//! masks only claim Inside/Outside when convexity proves it, so connectivity
//! results (donors, weights, blanking, orphans) are bit-identical with the
//! acceleration on or off. The `use_inverse_map` ablation tests assert this.

use crate::protocol::owned_bbox;
use overset_grid::curvilinear::Solid;
use overset_grid::index::Ijk;
use overset_grid::{Aabb, RigidTransform};
use overset_solver::Block;

/// Flops to bin one owned cell during the build (midpoint, bin index,
/// occupancy update).
pub const FLOPS_PER_CELL_BUILD: u64 = 12;
/// Flops to fill one empty bin from its nearest seeded neighbor.
pub const FLOPS_PER_BIN_FILL: u64 = 4;
/// Flops per seed query (three scaled subtractions + clamps).
pub const FLOPS_PER_QUERY: u64 = 10;
/// Flops for the bounding-box rejection of one (solid, hole-lattice bin).
pub const FLOPS_PER_BIN_BBOX: u64 = 6;
/// Flops per convexity-based containment probe of a hole-lattice bin corner
/// (same primitive as the hole cutter's detailed per-node test).
pub const FLOPS_PER_SOLID_PROBE: u64 = 25;
/// Flops per seed query through a non-identity pose (inverse rigid
/// transform — quaternion rotate — on top of the lattice binning).
pub const FLOPS_PER_POSED_QUERY: u64 = 40;
/// Flops for one incremental pose advance: transform composition, inverse,
/// and the 8-corner world-bounds check. Charged instead of a full rebuild.
pub const FLOPS_PER_INCR_UPDATE: u64 = 200;
/// An incremental advance is rejected (forcing a full rebuild) when the
/// world-frame enclosing box of the rotated lattice grows past this factor
/// of the lattice diagonal. Pure translations never grow the box; the
/// factor corresponds to roughly 3 degrees of accumulated rotation.
pub const INCR_MAX_DIAG_GROWTH: f64 = 1.05;

/// Fine-lattice resolution cap per axis (bins, not nodes).
const MAX_FINE_BINS: usize = 48;
/// Hole-lattice resolution cap per axis. Deliberately coarse: the win is
/// skipping per-node detailed tests for whole bins, so bins must hold many
/// nodes for classification to pay for itself.
const MAX_HOLE_BINS: usize = 8;
/// Coarse occupancy resolution per axis: [`OCC_NB`]³ = 512 bins = `[u64; 8]`.
pub const OCC_NB: usize = 8;

/// Occupancy bitmask words per rank ([`OCC_NB`]³ bins / 64 bits).
pub const OCC_WORDS: usize = OCC_NB * OCC_NB * OCC_NB / 64;

/// Ternary classification of one hole-lattice bin against one solid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinClass {
    /// No point of the bin can be inside the solid's padded bounding box:
    /// the detailed containment test is skipped entirely (same skip the
    /// unmasked cutter's per-node bbox pre-check would take).
    Outside,
    /// Every point of the bin is inside the solid at zero pad (convexity of
    /// the bin corners); any non-negative per-node pad can only blank more.
    Inside,
    /// Neither bound holds: run the full per-node test.
    Boundary,
}

/// Per-block inverse map: seed lattice + coarse occupancy + hole lattice.
#[derive(Clone, Debug)]
pub struct InverseMap {
    /// Physical bounds of every lattice: the block's owned bbox plus one
    /// halo layer (identical to the broadcast routing box, so occupancy
    /// bins computed by *other* ranks from the broadcast box line up with
    /// the bins marked here).
    bounds: Aabb,
    /// Fine-lattice bins per axis (≥ 1; 1 in k for 2-D blocks).
    nb: [usize; 3],
    /// Seed cell (local indices) per fine bin, bin-major (i fastest).
    seeds: Vec<Ijk>,
    /// Coarse occupancy: bit set ⇔ some owned-anchored cell's (inflated)
    /// bounding box overlaps the bin.
    occupancy: [u64; OCC_WORDS],
    /// Hole-lattice bins per axis for [`classify_solids_into`].
    hole_nb: [usize; 3],
    /// Flops spent building (the caller charges them to virtual time).
    build_flops: u64,
    /// Cumulative rigid motion of the block since this map was built
    /// (lattice frame → current world frame). Identity right after a
    /// build; composed by [`InverseMap::advance`] on incremental updates.
    pose: RigidTransform,
    /// Precomputed inverse of `pose` (world frame → lattice frame), applied
    /// to every query point before binning.
    inv_pose: RigidTransform,
}

/// Bin index of `x` on a `nb`-bin axis spanning `[lo, hi]`, clamped into
/// range (queries slightly outside the box land in an edge bin).
#[inline]
fn axis_bin(x: f64, lo: f64, hi: f64, nb: usize) -> usize {
    if nb <= 1 || hi <= lo {
        return 0;
    }
    let t = (x - lo) / (hi - lo) * nb as f64;
    (t.floor().max(0.0) as usize).min(nb - 1)
}

/// Hard per-axis bin ceiling of the adaptive allocation: a memory backstop
/// for pathological aspect ratios, far above anything the paper-scale cases
/// reach.
const MAX_AXIS_BINS: usize = 512;

/// Aspect-adaptive fine-lattice resolution: distribute the flat-cap bin
/// budget ([`MAX_FINE_BINS`] per active axis, i.e. 48³ in 3-D / 48² in 2-D)
/// across the axes in proportion to the block's physical extent — equal
/// bin *edge length* on every axis — then clamp each axis independently to
/// `[1, cells_d]` (and the [`MAX_AXIS_BINS`] backstop). A physically
/// stretched block (long chordwise, thin wall-normal) concentrates its bins
/// where its cells are; an isotropic block, or a curvilinear ring whose
/// bounding box is square, reproduces the old flat cap exactly. Clamped
/// axes do *not* hand their unused share to the others: the lattice is
/// Cartesian in physical space, so an index-space cell count says nothing
/// about how much physical resolution the remaining axes can use.
/// Deterministic: a pure function of extents and cell counts.
fn fine_bins(ext: [f64; 3], cells: [usize; 3], two_d: bool) -> [usize; 3] {
    let naxes: usize = if two_d { 2 } else { 3 };
    let budget = (MAX_FINE_BINS as f64).powi(naxes as i32);
    let prod: f64 = ext.iter().take(naxes).map(|e| e.max(1e-300)).product();
    // nb_d = ext_d · s with s chosen so the active axes' product fills the
    // budget (before clamping).
    let s = (budget / prod).powf(1.0 / naxes as f64);
    let mut nb = [1usize; 3];
    for d in 0..naxes {
        let want = (ext[d].max(1e-300) * s).round().clamp(1.0, MAX_AXIS_BINS as f64) as usize;
        nb[d] = want.clamp(1, cells[d]);
    }
    nb
}

/// The corner nodes of the cell anchored at `cell` (4 in 2-D, 8 in 3-D).
fn cell_corners(block: &Block, cell: Ijk) -> impl Iterator<Item = Ijk> + '_ {
    let kmax = if block.two_d { 1 } else { 2 };
    (0..kmax).flat_map(move |dk| {
        (0..2).flat_map(move |dj| {
            (0..2).map(move |di| Ijk::new(cell.i + di, cell.j + dj, cell.k + dk))
        })
    })
}

impl InverseMap {
    /// Build the map for a block's current geometry. Deterministic: the
    /// same block produces bit-identical seeds and occupancy.
    pub fn build(block: &Block) -> InverseMap {
        let bounds = owned_bbox(block);
        let ow = block.owned_local();
        let cells_i = (ow.hi.i - ow.lo.i).max(1);
        let cells_j = (ow.hi.j - ow.lo.j).max(1);
        let cells_k = if block.two_d { 1 } else { (ow.hi.k - ow.lo.k).max(1) };
        let nb = fine_bins(bounds.extent(), [cells_i, cells_j, cells_k], block.two_d);
        Self::build_with_bins(block, nb)
    }

    /// Build with an explicit fine-lattice resolution (tests compare the
    /// adaptive allocation against the old flat cap through this).
    fn build_with_bins(block: &Block, nb: [usize; 3]) -> InverseMap {
        let bounds = owned_bbox(block);
        let hole_nb =
            [nb[0].min(MAX_HOLE_BINS), nb[1].min(MAX_HOLE_BINS), nb[2].min(MAX_HOLE_BINS)];
        let Binned { mut seeds, mut seeded, occupancy, mut build_flops } =
            bin_owned_cells(block, &bounds, nb);
        build_flops += FLOPS_PER_BIN_FILL * fill_empty_bins(nb, &mut seeds, &mut seeded) as u64;

        InverseMap {
            bounds,
            nb,
            seeds,
            occupancy,
            hole_nb,
            build_flops,
            pose: RigidTransform::IDENTITY,
            inv_pose: RigidTransform::IDENTITY,
        }
    }

    /// Try to track a rigid motion of the block *without* rebuilding: the
    /// lattice keeps its build-time geometry and accumulates the motion as
    /// a pose; queries map world points back into the lattice frame through
    /// the inverse pose. The rigidly-moved cells sit exactly where the
    /// lattice (viewed through the pose) says they are, so seed answers
    /// stay as sharp as on the build step.
    ///
    /// Returns `false` — leaving the map untouched — when the accumulated
    /// rotation would inflate the world-frame enclosing box past
    /// [`INCR_MAX_DIAG_GROWTH`]; the caller must then rebuild from scratch.
    /// On success the caller charges [`FLOPS_PER_INCR_UPDATE`] to virtual
    /// time instead of a full build.
    pub fn advance(&mut self, t: &RigidTransform) -> bool {
        let pose = if self.pose.is_identity() { *t } else { self.pose.then(t) };
        let world = posed_bounds(&self.bounds, &pose);
        if world.diagonal() > self.bounds.diagonal().max(1e-300) * INCR_MAX_DIAG_GROWTH {
            return false;
        }
        self.inv_pose = pose.inverse();
        self.pose = pose;
        true
    }

    /// Is the map posed at its build-time geometry (no accumulated motion)?
    pub fn pose_is_identity(&self) -> bool {
        self.pose.is_identity()
    }

    /// The accumulated pose (lattice frame → world frame).
    pub fn pose(&self) -> &RigidTransform {
        &self.pose
    }

    /// The inverse pose (world frame → lattice frame), as broadcast to
    /// other ranks for posed occupancy binning.
    pub fn inv_pose(&self) -> &RigidTransform {
        &self.inv_pose
    }

    /// World-frame routing box: the lattice bounds carried through the
    /// pose. Bit-identical to [`InverseMap::bounds`] while the pose is the
    /// identity; a conservative enclosing box of the rotated lattice
    /// otherwise.
    pub fn world_bounds(&self) -> Aabb {
        if self.pose.is_identity() {
            self.bounds
        } else {
            posed_bounds(&self.bounds, &self.pose)
        }
    }

    /// Flops one seed query costs at the current pose (posed queries pay
    /// for the inverse transform). Deterministic — a pure function of the
    /// map's state, never of the host.
    pub fn query_flops(&self) -> u64 {
        if self.pose.is_identity() {
            FLOPS_PER_QUERY
        } else {
            FLOPS_PER_POSED_QUERY
        }
    }

    /// Physical bounds of the lattices (the broadcast routing box).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Flops spent by [`InverseMap::build`]; charge them to virtual time.
    pub fn build_flops(&self) -> u64 {
        self.build_flops
    }

    /// Coarse occupancy words, ready for the topology allgather.
    pub fn occupancy(&self) -> [u64; OCC_WORDS] {
        self.occupancy
    }

    /// O(1) walk seed for a target point: the seed cell of the fine bin
    /// holding `p` (points outside the bounds clamp into an edge bin).
    /// Under a non-identity pose the point is first mapped back into the
    /// lattice frame; the identity path is byte-for-byte the legacy one.
    pub fn query(&self, p: [f64; 3]) -> Ijk {
        let q = if self.pose.is_identity() { p } else { self.inv_pose.apply(p) };
        self.seeds[bin_index(&self.bounds, self.nb, q)]
    }

    /// Hole-lattice bin index of a node coordinate (used with the classes
    /// from [`classify_solids_into`]). Lattice-frame only: hole classification
    /// is gated on an identity pose (see `holes.rs`), so no inverse
    /// transform is applied here.
    pub fn hole_bin(&self, p: [f64; 3]) -> usize {
        bin_index(&self.bounds, self.hole_nb, p)
    }

    /// Number of hole-lattice bins.
    pub fn hole_bins(&self) -> usize {
        self.hole_nb[0] * self.hole_nb[1] * self.hole_nb[2]
    }

    /// Physical box of one hole-lattice bin.
    fn hole_bin_box(&self, b: usize) -> Aabb {
        let (bi, bj, bk) = unflatten(b, self.hole_nb);
        let ext = self.bounds.extent();
        let f = |lo: f64, e: f64, n: usize, i: usize| -> (f64, f64) {
            if n <= 1 {
                (lo, lo + e)
            } else {
                let w = e / n as f64;
                (lo + w * i as f64, lo + w * (i + 1) as f64)
            }
        };
        let (x0, x1) = f(self.bounds.min[0], ext[0], self.hole_nb[0], bi);
        let (y0, y1) = f(self.bounds.min[1], ext[1], self.hole_nb[1], bj);
        let (z0, z1) = f(self.bounds.min[2], ext[2], self.hole_nb[2], bk);
        Aabb::new([x0, y0, z0], [x1, y1, z1])
    }
}

/// Flattened fine/hole-lattice bin index of a point (row-major, i fastest).
fn bin_index(bounds: &Aabb, nb: [usize; 3], p: [f64; 3]) -> usize {
    let bi = axis_bin(p[0], bounds.min[0], bounds.max[0], nb[0]);
    let bj = axis_bin(p[1], bounds.min[1], bounds.max[1], nb[1]);
    let bk = axis_bin(p[2], bounds.min[2], bounds.max[2], nb[2]);
    (bk * nb[1] + bj) * nb[0] + bi
}

fn unflatten(b: usize, nb: [usize; 3]) -> (usize, usize, usize) {
    let bi = b % nb[0];
    let bj = (b / nb[0]) % nb[1];
    let bk = b / (nb[0] * nb[1]);
    (bi, bj, bk)
}

/// The fine lattice after binning the owned cells, before the fill.
struct Binned {
    /// Seed cell per bin; the owned-region corner where no midpoint landed.
    seeds: Vec<Ijk>,
    /// Per bin: did an owned cell midpoint land in it?
    seeded: Vec<bool>,
    occupancy: [u64; OCC_WORDS],
    build_flops: u64,
}

/// Bin every owned-anchored cell of `block`: seed the fine bin holding its
/// midpoint (first write wins, row-major sweep) and mark its inflated box
/// in the coarse occupancy mask.
fn bin_owned_cells(block: &Block, bounds: &Aabb, nb: [usize; 3]) -> Binned {
    let ow = block.owned_local();
    let nbins = nb[0] * nb[1] * nb[2];
    // A block with no owned cells (degenerate slivers) still gets a valid
    // map: every query answers the owned-region corner.
    let fallback = Ijk::new(ow.lo.i, ow.lo.j, ow.lo.k);
    let mut seeds = vec![fallback; nbins];
    let mut seeded = vec![false; nbins];
    let mut occupancy = [0u64; OCC_WORDS];
    let mut build_flops = 0u64;

    // Acceptance slack: the walk accepts trilinear coordinates in
    // [-TOL, 1+TOL] and Newton can accept before full convergence, so
    // occupancy marks each cell's bounding box inflated well past that
    // slack — pruning must never drop a rank that could answer.
    let diag_eps = 1e-9 * bounds.diagonal().max(1.0);

    let kmax_anchor = if block.two_d { ow.lo.k + 1 } else { ow.hi.k };
    for k in ow.lo.k..kmax_anchor {
        for j in ow.lo.j..ow.hi.j {
            for i in ow.lo.i..ow.hi.i {
                // Cells are anchored at their lower-corner node; the far
                // corner must exist in local storage.
                if i + 1 >= block.local_dims.ni
                    || j + 1 >= block.local_dims.nj
                    || (!block.two_d && k + 1 >= block.local_dims.nk)
                {
                    continue;
                }
                let cell = Ijk::new(i, j, k);
                build_flops += FLOPS_PER_CELL_BUILD;
                let mut cb = Aabb::EMPTY;
                for n in cell_corners(block, cell) {
                    cb.include(block.coords[n]);
                }
                let b = bin_index(bounds, nb, cb.center());
                if !seeded[b] {
                    seeded[b] = true;
                    seeds[b] = cell;
                }
                // Conservative occupancy: the cell box inflated by an
                // eighth of its own extent plus a global epsilon.
                let e = cb.extent();
                let pad = 0.125 * e[0].max(e[1]).max(e[2]) + diag_eps;
                mark_occupancy(&mut occupancy, bounds, &cb.inflate(pad));
            }
        }
    }
    Binned { seeds, seeded, occupancy, build_flops }
}

/// Give every empty fine bin the seed of its nearest seeded bin by
/// Chebyshev (26-neighbour) distance, ties to the lowest seeded-bin index;
/// returns the number of bins filled (none when no bin is seeded). Bins
/// far from any cell — the hollow middle of an annulus — still answer with
/// the closest real cell, which is exactly the right walk start.
///
/// One multi-source breadth-first search, O(bins · 27): the queue starts
/// with the seeded bins in ascending index, and each empty bin copies the
/// seed of the neighbour that reaches it first. A bin at distance d has a
/// neighbour at d − 1 on a shortest path to each of its nearest seeds, and
/// every nearest seed of such a neighbour is one of its own; FIFO order
/// keeps each distance layer sorted by source index, so the first
/// neighbour to arrive carries the lowest. That is the bin the exhaustive
/// ascending scan over all seeded bins would pick.
fn fill_empty_bins(nb: [usize; 3], seeds: &mut [Ijk], reached: &mut [bool]) -> usize {
    if !reached.contains(&true) {
        return 0;
    }
    assert!(reached.len() <= u32::MAX as usize, "fine lattice {nb:?} too large");
    // Every bin enters the queue exactly once.
    let mut queue: Vec<u32> = Vec::with_capacity(reached.len());
    queue.extend((0..reached.len() as u32).filter(|&b| reached[b as usize]));
    let nseeded = queue.len();
    let mut head = 0;
    while let Some(&b) = queue.get(head) {
        head += 1;
        let b = b as usize;
        let (bi, bj, bk) = unflatten(b, nb);
        for k in bk.saturating_sub(1)..(bk + 2).min(nb[2]) {
            for j in bj.saturating_sub(1)..(bj + 2).min(nb[1]) {
                let row = (k * nb[1] + j) * nb[0];
                for n in row + bi.saturating_sub(1)..row + (bi + 2).min(nb[0]) {
                    if !reached[n] {
                        reached[n] = true;
                        seeds[n] = seeds[b];
                        queue.push(n as u32);
                    }
                }
            }
        }
    }
    queue.len() - nseeded
}

/// Set every coarse occupancy bit whose bin overlaps `cell_box`.
fn mark_occupancy(occ: &mut [u64; OCC_WORDS], bounds: &Aabb, cell_box: &Aabb) {
    let ext = bounds.extent();
    let range = |d: usize| -> (usize, usize) {
        if ext[d] <= 0.0 {
            return (0, OCC_NB - 1);
        }
        let lo = axis_bin(cell_box.min[d], bounds.min[d], bounds.max[d], OCC_NB);
        let hi = axis_bin(cell_box.max[d], bounds.min[d], bounds.max[d], OCC_NB);
        (lo, hi)
    };
    let (i0, i1) = range(0);
    let (j0, j1) = range(1);
    let (k0, k1) = range(2);
    for k in k0..=k1 {
        for j in j0..=j1 {
            for i in i0..=i1 {
                let bit = (k * OCC_NB + j) * OCC_NB + i;
                occ[bit / 64] |= 1u64 << (bit % 64);
            }
        }
    }
}

/// Enclosing world-frame box of `bounds` carried through `pose`: the AABB
/// of the 8 transformed corners. Conservative for every interior point
/// (rigid maps are affine).
fn posed_bounds(bounds: &Aabb, pose: &RigidTransform) -> Aabb {
    let mut world = Aabb::EMPTY;
    for ci in 0..8 {
        let c = [
            if ci & 1 == 0 { bounds.min[0] } else { bounds.max[0] },
            if ci & 2 == 0 { bounds.min[1] } else { bounds.max[1] },
            if ci & 4 == 0 { bounds.min[2] } else { bounds.max[2] },
        ];
        world.include(pose.apply(c));
    }
    world
}

/// Posed variant of [`occupancy_admits`] for the receive side of the
/// routing broadcast: map the world point into the sender's lattice frame
/// through its broadcast inverse pose, then test against the *lattice* box
/// the occupancy bits were marked in. The identity path is bit-identical
/// to [`occupancy_admits`].
pub fn occupancy_admits_posed(
    occ: &[u64; OCC_WORDS],
    lat_box: &Aabb,
    inv_pose: &RigidTransform,
    p: [f64; 3],
) -> bool {
    let q = if inv_pose.is_identity() { p } else { inv_pose.apply(p) };
    occupancy_admits(occ, lat_box, q)
}

/// Does the occupancy mask (broadcast alongside `rank_box`) admit `p`?
/// All-ones masks (ranks running without a map) admit everything.
pub fn occupancy_admits(occ: &[u64; OCC_WORDS], rank_box: &Aabb, p: [f64; 3]) -> bool {
    let bi = axis_bin(p[0], rank_box.min[0], rank_box.max[0], OCC_NB);
    let bj = axis_bin(p[1], rank_box.min[1], rank_box.max[1], OCC_NB);
    let bk = axis_bin(p[2], rank_box.min[2], rank_box.max[2], OCC_NB);
    let bit = (bk * OCC_NB + bj) * OCC_NB + bi;
    occ[bit / 64] & (1u64 << (bit % 64)) != 0
}

/// The all-ones occupancy mask: what a rank broadcasts when it runs without
/// an inverse map (admits every point — pruning disabled).
pub const OCC_ALL: [u64; OCC_WORDS] = [u64::MAX; OCC_WORDS];

/// Classify every hole-lattice bin of `inv` against each solid in `solids`
/// (one `Vec<BinClass>` per solid, bin-major), writing into caller-owned
/// storage: the outer vector is resized to the solid count and the inner
/// per-bin vectors keep their capacity, so a steady-state re-classification
/// allocates nothing. `pad_hint` must be the same padded-bbox inflation the
/// unmasked cutter uses, so an `Outside` verdict reproduces its
/// bounding-box rejection exactly. Returns the flops spent.
pub fn classify_solids_into(
    inv: &InverseMap,
    solids: &[Solid],
    pad_hint: f64,
    classes: &mut Vec<Vec<BinClass>>,
) -> u64 {
    let nbins = inv.hole_bins();
    let mut flops = 0u64;
    classes.truncate(solids.len());
    while classes.len() < solids.len() {
        classes.push(Vec::new());
    }
    for (s, per_bin) in solids.iter().zip(classes.iter_mut()) {
        let padded = s.bbox().inflate(pad_hint);
        per_bin.clear();
        for b in 0..nbins {
            flops += FLOPS_PER_BIN_BBOX;
            let bb = inv.hole_bin_box(b);
            if !bb.intersects(&padded) {
                per_bin.push(BinClass::Outside);
                continue;
            }
            // Inside needs every corner (and the center, to guard the
            // degenerate flat bins of 2-D blocks) contained at zero pad;
            // every solid shape is convex, so the whole bin follows.
            let mut probes = 1u64;
            let mut inside = s.contains(bb.center(), 0.0);
            if inside {
                'corners: for ci in 0..8 {
                    let c = [
                        if ci & 1 == 0 { bb.min[0] } else { bb.max[0] },
                        if ci & 2 == 0 { bb.min[1] } else { bb.max[1] },
                        if ci & 4 == 0 { bb.min[2] } else { bb.max[2] },
                    ];
                    probes += 1;
                    if !s.contains(c, 0.0) {
                        inside = false;
                        break 'corners;
                    }
                }
            }
            flops += probes * FLOPS_PER_SOLID_PROBE;
            per_bin.push(if inside { BinClass::Inside } else { BinClass::Boundary });
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::donor::{walk_search, SearchCost, SearchOutcome};
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;
    use overset_solver::Isa;

    fn cart_block(n: usize, h: f64) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * h, p.j as f64 * h, p.k as f64 * h]);
        let g = CurvilinearGrid::new("c", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    fn annulus_block(nth: usize, nr: usize) -> Block {
        annulus_block_from(nth, nr, 1.0)
    }

    fn annulus_block_from(nth: usize, nr: usize, r0: f64) -> Block {
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = r0 + 0.25 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("a", coords, GridKind::NearBody);
        g.periodic_i = true;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn query_seeds_land_one_step_from_the_target() {
        let b = cart_block(17, 0.25);
        let inv = InverseMap::build(&b);
        assert!(inv.build_flops() > 0);
        // Every interior cell midpoint must be found from its seed in very
        // few walk steps (the whole point of the map).
        for (i, j, k) in [(2usize, 3usize, 4usize), (15, 1, 8), (8, 14, 2)] {
            let target =
                [(i as f64 + 0.5) * 0.25, (j as f64 + 0.5) * 0.25, (k as f64 + 0.5) * 0.25];
            let mut cost = SearchCost::default();
            match walk_search(&b, target, inv.query(target), &mut cost, false, Isa::Scalar) {
                SearchOutcome::Found(d) => {
                    assert_eq!(b.to_global(d.cell), Ijk::new(i, j, k));
                }
                o => panic!("expected Found, got {o:?}"),
            }
            assert!(cost.walk_steps <= 2, "walk from seed took {} steps", cost.walk_steps);
        }
    }

    #[test]
    fn seeded_walk_is_cheaper_than_center_start() {
        let b = cart_block(33, 0.125);
        let inv = InverseMap::build(&b);
        let target = [0.3, 3.8, 0.2];
        let mut cold = SearchCost::default();
        walk_search(&b, target, crate::donor::center_start(&b), &mut cold, false, Isa::Scalar);
        let mut seeded = SearchCost::default();
        walk_search(&b, target, inv.query(target), &mut seeded, false, Isa::Scalar);
        assert!(
            seeded.flops() < cold.flops(),
            "seeded {} vs cold {}",
            seeded.flops(),
            cold.flops()
        );
    }

    /// A physically stretched 2-D block — the wake/boundary-layer shape of
    /// the airfoil system: long in x, thin in y.
    fn stretched_block(nx: usize, ny: usize, hx: f64, hy: f64) -> Block {
        let d = Dims::new(nx, ny, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * hx, p.j as f64 * hy, 0.0]);
        let g = CurvilinearGrid::new("w", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn high_aspect_block_walks_fewer_steps_with_identical_donors() {
        // Aspect 16:1 — under the flat 48/axis cap every x-bin held > 5
        // cells while the y-bins were finer than the cells; proportional
        // allocation moves that wasted y budget onto x.
        let b = stretched_block(257, 17, 0.05, 0.05);
        let adaptive = InverseMap::build(&b);
        assert!(
            adaptive.nb[0] > MAX_FINE_BINS,
            "long axis should outgrow the old flat cap, got {:?}",
            adaptive.nb
        );
        assert!(adaptive.nb[1] < 17, "thin axis should give up bins: {:?}", adaptive.nb);
        // Exactly what the old flat per-axis cap produced for this block.
        let flat = InverseMap::build_with_bins(&b, [MAX_FINE_BINS, 17, 1]);
        let (mut adaptive_steps, mut flat_steps) = (0u64, 0u64);
        for q in 0..500 {
            // Generic interior points (off any cell face) along the block.
            let x = 0.13 + (q as f64 * 0.0251) % 12.5;
            let y = 0.03 + (q as f64 * 0.0173) % 0.75;
            let p = [x, y, 0.0];
            let mut ca = SearchCost::default();
            let oa = walk_search(&b, p, adaptive.query(p), &mut ca, false, Isa::Scalar);
            let mut cf = SearchCost::default();
            let of = walk_search(&b, p, flat.query(p), &mut cf, false, Isa::Scalar);
            assert!(matches!(oa, SearchOutcome::Found(_)), "lost a donor at {p:?}: {oa:?}");
            assert_eq!(oa, of, "donor must not depend on the seed lattice at {p:?}");
            adaptive_steps += ca.walk_steps;
            flat_steps += cf.walk_steps;
        }
        assert!(
            adaptive_steps < flat_steps,
            "adaptive lattice should walk less: {adaptive_steps} vs flat {flat_steps}"
        );
        // A curvilinear ring's bounding box is square: the adaptive
        // allocation must reproduce the old flat cap exactly there (no
        // regression on O-grids — extent proportionality is physical, not
        // index-space).
        let ring = InverseMap::build(&annulus_block_from(257, 3, 2.5));
        assert_eq!(ring.nb, [MAX_FINE_BINS, 3, 1]);
    }

    #[test]
    fn occupancy_admits_every_contained_point_and_prunes_the_annulus_hollow() {
        // Thin annulus r ∈ [2.5, 3]: most of its bounding box is hollow —
        // the false-positive shape occupancy pruning exists for.
        let b = annulus_block_from(65, 3, 2.5);
        let inv = InverseMap::build(&b);
        let occ = inv.occupancy();
        let bounds = inv.bounds();
        // Any point actually inside some cell must be admitted
        // (conservativeness: pruning never loses a donor).
        for (r, th_deg) in [(2.55, 13.0), (2.7, 250.0), (2.9, 117.0), (2.95, 359.0)] {
            let th = -f64::to_radians(th_deg);
            let p = [r * th.cos(), r * th.sin(), 0.0];
            assert!(occupancy_admits(&occ, &bounds, p), "pruned a real donor point {p:?}");
        }
        // The hollow center of the annulus is inside the bbox but holds no
        // cells: occupancy must prune it.
        assert!(bounds.contains([0.0, 0.0, 0.0]));
        assert!(!occupancy_admits(&occ, &bounds, [0.0, 0.0, 0.0]));
        // The all-ones mask admits everything.
        assert!(occupancy_admits(&OCC_ALL, &bounds, [0.0, 0.0, 0.0]));
    }

    #[test]
    fn annulus_queries_seed_near_the_target_angle() {
        let b = annulus_block(65, 9);
        let inv = InverseMap::build(&b);
        for th_deg in [10.0f64, 95.0, 181.0, 340.0] {
            let th = -th_deg.to_radians();
            let target = [1.6 * th.cos(), 1.6 * th.sin(), 0.0];
            let mut cost = SearchCost::default();
            match walk_search(&b, target, inv.query(target), &mut cost, false, Isa::Scalar) {
                SearchOutcome::Found(_) => {}
                o => panic!("{th_deg} deg: {o:?}"),
            }
            assert!(cost.walk_steps <= 8, "{th_deg} deg took {} steps", cost.walk_steps);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let b = annulus_block(33, 7);
        let a = InverseMap::build(&b);
        let c = InverseMap::build(&b);
        assert_eq!(a.seeds, c.seeds);
        assert_eq!(a.occupancy, c.occupancy);
        assert_eq!(a.build_flops, c.build_flops);
    }

    #[test]
    fn pose_advance_tracks_translation_in_lattice_frame() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        assert!(inv.pose_is_identity());
        assert_eq!(inv.query_flops(), FLOPS_PER_QUERY);
        // Probe at cell midpoints (bin interiors, robust to FP rounding).
        let probes: Vec<[f64; 3]> = [(2usize, 3usize, 4usize), (15, 1, 8), (8, 14, 2)]
            .iter()
            .map(|&(i, j, k)| {
                [(i as f64 + 0.5) * 0.25, (j as f64 + 0.5) * 0.25, (k as f64 + 0.5) * 0.25]
            })
            .collect();
        let legacy: Vec<Ijk> = probes.iter().map(|&p| inv.query(p)).collect();
        let bounds = inv.bounds();
        let shift = [3.0, -1.5, 0.75];
        assert!(inv.advance(&RigidTransform::translation(shift)));
        assert!(!inv.pose_is_identity());
        assert_eq!(inv.query_flops(), FLOPS_PER_POSED_QUERY);
        // A world point that moved with the block seeds the same cell the
        // unmoved point seeded before the advance.
        for (p, want) in probes.iter().zip(&legacy) {
            let moved = [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]];
            assert_eq!(inv.query(moved), *want);
        }
        // The routing box followed the motion; the lattice box did not.
        let wb = inv.world_bounds();
        for (d, sh) in shift.iter().enumerate() {
            assert!((wb.min[d] - (bounds.min[d] + sh)).abs() < 1e-12);
            assert!((wb.max[d] - (bounds.max[d] + sh)).abs() < 1e-12);
        }
        assert_eq!(inv.bounds().min, bounds.min);
    }

    #[test]
    fn pose_advance_rejects_large_rotation_and_leaves_map_untouched() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        let big = RigidTransform::rotation_about(
            inv.bounds().center(),
            [0.0, 0.0, 1.0],
            f64::to_radians(10.0),
        );
        assert!(!inv.advance(&big));
        assert!(inv.pose_is_identity());
        assert_eq!(inv.world_bounds().min, inv.bounds().min);
    }

    #[test]
    fn pose_accumulates_small_rotations_until_growth_threshold() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        let step = RigidTransform::rotation_about(
            inv.bounds().center(),
            [0.0, 0.0, 1.0],
            f64::to_radians(1.0),
        );
        let mut accepted = 0;
        while inv.advance(&step) {
            accepted += 1;
            assert!(accepted < 90, "growth threshold never tripped");
        }
        // A cube trips the 5% diagonal-growth threshold near 5 degrees.
        assert!((2..=8).contains(&accepted), "accepted {accepted} one-degree steps");
        // After rejection the pose still holds the last accepted rotation.
        assert!(!inv.pose_is_identity());
    }

    #[test]
    fn posed_occupancy_matches_identity_path_and_tracks_motion() {
        let b = annulus_block_from(65, 3, 2.5);
        let mut inv = InverseMap::build(&b);
        let occ = inv.occupancy();
        let bounds = inv.bounds();
        let id = RigidTransform::IDENTITY;
        for (r, th_deg) in [(2.55, 13.0), (2.9, 117.0)] {
            let th = -f64::to_radians(th_deg);
            let p = [r * th.cos(), r * th.sin(), 0.0];
            assert_eq!(
                occupancy_admits_posed(&occ, &bounds, &id, p),
                occupancy_admits(&occ, &bounds, p)
            );
        }
        // Translate the annulus far from the origin: the hollow center
        // moves with it, and the posed test must follow.
        let shift = [100.0, 0.0, 0.0];
        assert!(inv.advance(&RigidTransform::translation(shift)));
        let inv_pose = *inv.inv_pose();
        assert!(!occupancy_admits_posed(&occ, &bounds, &inv_pose, [100.0, 0.0, 0.0]));
        let th = -f64::to_radians(13.0);
        let p = [100.0 + 2.55 * th.cos(), 2.55 * th.sin(), 0.0];
        assert!(occupancy_admits_posed(&occ, &bounds, &inv_pose, p));
    }

    #[test]
    fn solid_classification_is_consistent_with_brute_force() {
        let b = cart_block(21, 0.2); // covers [0,4]^3
        let inv = InverseMap::build(&b);
        let solid = Solid::Ellipsoid { center: [2.0, 2.0, 2.0], radii: [1.3, 1.1, 1.2] };
        let mut classes = Vec::new();
        assert!(classify_solids_into(&inv, &[solid], 0.1, &mut classes) > 0);
        let classes = &classes[0];
        let mut counts = [0usize; 3];
        for (bin, cls) in classes.iter().enumerate() {
            let bb = inv.hole_bin_box(bin);
            counts[match cls {
                BinClass::Outside => 0,
                BinClass::Inside => 1,
                BinClass::Boundary => 2,
            }] += 1;
            // Probe a grid of points in the bin; Inside bins must contain
            // all of them (pad 0) and Outside bins must reject all of them
            // even with the per-node pad bound.
            for pi in 0..3 {
                for pj in 0..3 {
                    for pk in 0..3 {
                        let p = [
                            bb.min[0] + (bb.max[0] - bb.min[0]) * pi as f64 / 2.0,
                            bb.min[1] + (bb.max[1] - bb.min[1]) * pj as f64 / 2.0,
                            bb.min[2] + (bb.max[2] - bb.min[2]) * pk as f64 / 2.0,
                        ];
                        match cls {
                            BinClass::Inside => assert!(solid.contains(p, 0.0), "{p:?}"),
                            BinClass::Outside => {
                                assert!(!solid.bbox().inflate(0.1).contains(p), "{p:?}")
                            }
                            BinClass::Boundary => {}
                        }
                    }
                }
            }
        }
        // A solid well inside the block yields all three classes.
        assert!(counts[0] > 0 && counts[1] > 0 && counts[2] > 0, "{counts:?}");
    }

    #[test]
    fn two_d_block_map_works() {
        let d = Dims::new(11, 11, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.3, p.j as f64 * 0.3, 0.0]);
        let g = CurvilinearGrid::new("p", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        let inv = InverseMap::build(&b);
        let target = [1.0, 2.0, 0.0];
        let mut cost = SearchCost::default();
        match walk_search(&b, target, inv.query(target), &mut cost, false, Isa::Scalar) {
            SearchOutcome::Found(dn) => assert_eq!(b.to_global(dn.cell), Ijk::new(3, 6, 0)),
            o => panic!("{o:?}"),
        }
        assert!(cost.walk_steps <= 2);
    }

    /// The exhaustive fill the BFS replaced, kept as its reference: each
    /// empty bin scans every seeded bin in ascending index and keeps the
    /// first at the smallest Chebyshev distance. O(empty × seeded). Returns
    /// the filled seeds and the fill's flops.
    fn fill_quadratic_reference(
        nb: [usize; 3],
        seeds: &[Option<Ijk>],
        fallback: Ijk,
    ) -> (Vec<Ijk>, u64) {
        let mut seeds = seeds.to_vec();
        let mut build_flops = 0u64;
        let filled: Vec<(usize, Ijk)> =
            seeds.iter().enumerate().filter_map(|(b, s)| s.map(|c| (b, c))).collect();
        if !filled.is_empty() {
            for (b, seed) in seeds.iter_mut().enumerate() {
                if seed.is_some() {
                    continue;
                }
                build_flops += FLOPS_PER_BIN_FILL;
                let (bi, bj, bk) = unflatten(b, nb);
                let mut best: Option<(usize, Ijk)> = None;
                for &(fb, cell) in &filled {
                    let (fi, fj, fk) = unflatten(fb, nb);
                    let d = fi.abs_diff(bi).max(fj.abs_diff(bj)).max(fk.abs_diff(bk));
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, cell));
                    }
                }
                *seed = best.map(|(_, c)| c);
            }
        }
        (seeds.into_iter().map(|s| s.unwrap_or(fallback)).collect(), build_flops)
    }

    /// The seeded bins of a binned lattice, `None` where the fill must act.
    fn seeded_bins(binned: &Binned) -> Vec<Option<Ijk>> {
        binned.seeded.iter().zip(&binned.seeds).map(|(&s, &c)| s.then_some(c)).collect()
    }

    #[test]
    fn bfs_fill_matches_reference_on_real_3d_rank_blocks() {
        use overset_grid::gen::{delta_wing::delta_wing_system, store::store_system};
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        // Rank blocks at the benchmark's 0.55 scale: half of the delta-wing
        // shell (delta-7 gives the wing two ranks) and a whole store body
        // shell (store-dynlb-18 gives most grids one rank).
        for (g, parts) in [(&delta_wing_system(0.55)[0], 2), (&store_system(0.55)[1], 1)] {
            let owned = g.dims().full_box().split(0, parts)[0];
            let b = Block::from_grid(0, g, owned, [None; 6], &fc);
            let inv = InverseMap::build(&b);
            let binned = bin_owned_cells(&b, &inv.bounds, inv.nb);
            let seeded = seeded_bins(&binned);
            let nseeded = seeded.iter().filter(|s| s.is_some()).count();
            assert!(
                inv.nb[2] > 1 && nseeded > 0 && nseeded < inv.seeds.len(),
                "{}: want a 3-D lattice with empty bins, got {:?} with {nseeded} seeded",
                g.name,
                inv.nb
            );
            let ow = b.owned_local();
            let fallback = Ijk::new(ow.lo.i, ow.lo.j, ow.lo.k);
            let (want, fill_flops) = fill_quadratic_reference(inv.nb, &seeded, fallback);
            assert!(inv.seeds == want, "{}: seeds differ from the reference", g.name);
            assert_eq!(inv.build_flops, binned.build_flops + fill_flops, "{}", g.name);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The BFS fill reproduces the exhaustive nearest-seed scan bit for
        /// bit — seeds and flops — on random lattices (1-bin axes, 2-D) and
        /// seeded-bin patterns: one seed, dense, a hollow shell, an annulus
        /// with an empty middle, and none at all (fallback).
        #[test]
        fn bfs_fill_bit_equals_quadratic_reference(
            seed in 1u64..(1 << 60),
            ni in 1usize..14,
            nj in 1usize..14,
            nk_draw in 0usize..12,
            pattern in 0usize..5,
        ) {
            // A third of the lattices are 2-D.
            let nb = [ni, nj, if nk_draw < 4 { 1 } else { nk_draw - 2 }];
            let nbins = nb[0] * nb[1] * nb[2];
            let mut s = seed;
            let mut draw = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let one = (draw() * nbins as f64) as usize;
            let (ci, cj) = ((nb[0] - 1) as f64 / 2.0, (nb[1] - 1) as f64 / 2.0);
            let r_out = ci.min(cj) + 0.5;
            let fallback = Ijk::new(0, 0, 0);
            let mut binned = Binned {
                seeds: vec![fallback; nbins],
                seeded: vec![false; nbins],
                occupancy: [0; OCC_WORDS],
                build_flops: 0,
            };
            for b in 0..nbins {
                let (i, j, k) = unflatten(b, nb);
                let shell = i == 0
                    || j == 0
                    || k == 0
                    || i + 1 == nb[0]
                    || j + 1 == nb[1]
                    || k + 1 == nb[2];
                let r = (i as f64 - ci).hypot(j as f64 - cj);
                let hit = match pattern {
                    0 => b == one,
                    1 => draw() < 0.6,
                    2 => shell && draw() < 0.5,
                    3 => r >= 0.5 * r_out && r <= r_out && draw() < 0.8,
                    _ => false,
                };
                if hit {
                    binned.seeded[b] = true;
                    binned.seeds[b] = Ijk::new(b, 1, 2);
                }
            }
            let (want, want_flops) = fill_quadratic_reference(nb, &seeded_bins(&binned), fallback);
            let filled = fill_empty_bins(nb, &mut binned.seeds, &mut binned.seeded);
            prop_assert!(
                binned.seeds == want,
                "seed {} nb {:?} pattern {}: seeds differ from the reference",
                seed,
                nb,
                pattern
            );
            prop_assert_eq!(
                FLOPS_PER_BIN_FILL * filled as u64,
                want_flops,
                "seed {} nb {:?} pattern {}",
                seed,
                nb,
                pattern
            );
        }
    }
}
