//! The distributed donor-search protocol (Barszcz's DCF3D parallelization).
//!
//! Per timestep, after hole cutting and fringe identification:
//!
//! 1. every rank broadcasts the bounding box of its owned region (the
//!    "bounding box information ... broadcast globally"),
//! 2. each rank consults its grid's hierarchical search list and the boxes
//!    to decide which processor to send each IGBP search request to,
//! 3. requests are sent asynchronously; every rank services the requests it
//!    receives (the *donor search* — step 3 of Fig. 3, the dominant and
//!    load-imbalanced cost), interpolates, and replies,
//! 4. a request whose walk leaves the serving rank's subdomain is retried on
//!    the next candidate processor (equivalent to the paper's forwarding
//!    across processor boundaries), then on the next grid in the hierarchy.
//!
//! "nth-level restart": each rank caches its fringe points' donors
//! (rank + global donor cell) and sends the next step's first request
//! straight there with a warm-start hint.
//!
//! The protocol runs in deterministic rounds (an allgather of per-rank send
//! counts opens each round) so virtual times are bit-reproducible; the
//! paper's asynchronous overlap is retained within a round — a rank services
//! everything it received before waiting on its own replies.

use crate::arena::ConnArena;
use crate::donor::{center_start, walk_search_batch, BatchQuery, SearchOutcome};
use crate::holes::Igbp;
use crate::interp::{interpolate, FLOPS_PER_INTERP};
use crate::inverse_map::{occupancy_admits_posed, InverseMap, OCC_ALL, OCC_WORDS};
use overset_comm::metrics::names;
use overset_comm::trace::ArgVal;
use overset_comm::{Comm, Wire, WireError, WireReader, WorkClass};
use overset_grid::index::{Ijk, IndexBox};
use overset_grid::{Aabb, RigidTransform};
use overset_solver::Block;
use std::collections::HashMap;

/// Message tag base for connectivity traffic (distinct from solver tags).
const TAG_BASE: u64 = 10_000;
const MAX_ROUNDS: usize = 24;

/// Global, rank-replicated description of the partition, needed for routing.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Component grid each rank works on.
    pub grid_of_rank: Vec<usize>,
    /// Global rank range of each grid.
    pub ranks_of_grid: Vec<std::ops::Range<usize>>,
    /// Hierarchical donor-search lists per grid.
    pub search_order: Vec<Vec<usize>>,
}

/// Per-rank donor cache for nth-level restart: fringe node → (donor rank,
/// donor grid, donor cell in *global* donor-grid indices, relaxed donor).
#[derive(Clone, Debug, Default)]
pub struct DonorCache {
    map: HashMap<Ijk, (usize, usize, Ijk, bool)>,
}

impl DonorCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidate everything (the A1 restart-off ablation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Remap donor *ranks* after a repartition: the cached donor cells are
    /// still geometrically valid; only their owning rank changed. `owner`
    /// maps (donor grid, donor cell anchor) to the new rank. Far cheaper
    /// than re-searching everything from scratch.
    pub fn remap_ranks(&mut self, owner: impl Fn(usize, Ijk) -> usize) {
        for (_, (rank, grid, cell, _)) in self.map.iter_mut() {
            *rank = owner(*grid, *cell);
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One rank's connectivity statistics for a step: the quantities Algorithm 2
/// and the paper's tables consume.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    /// IGBPs owned by this rank.
    pub igbps: usize,
    /// Search-request points *serviced* by this rank: the paper's I(p).
    pub serviced: usize,
    /// Of the owned IGBPs, how many were resolved.
    pub resolved: usize,
    pub orphans: usize,
    /// Total walk steps performed while servicing.
    pub walk_steps: u64,
    /// Rounds until global quiescence.
    pub rounds: usize,
}

impl Wire for ConnStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.igbps.encode(out);
        self.serviced.encode(out);
        self.resolved.encode(out);
        self.orphans.encode(out);
        self.walk_steps.encode(out);
        self.rounds.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ConnStats {
            igbps: usize::decode(r)?,
            serviced: usize::decode(r)?,
            resolved: usize::decode(r)?,
            orphans: usize::decode(r)?,
            walk_steps: u64::decode(r)?,
            rounds: usize::decode(r)?,
        })
    }
}

#[derive(Clone, Copy)]
pub(crate) struct ReqPoint {
    id: u32,
    xyz: [f64; 3],
    /// Warm-start hint: donor cell in global donor-grid indices.
    hint: Option<Ijk>,
    /// Last-resort pass: accept donors whose stencil touches holes.
    relaxed: bool,
}

const REQ_POINT_BYTES: usize = 44;

// `Ijk` lives in the grid crate, which does not depend on overset-comm, so
// it cannot implement `Wire` itself; the protocol encodes it inline as
// three indices. These impls define the on-the-wire schema of the search
// protocol — field order is part of the format (docs/TRANSPORT.md).
fn encode_ijk(c: Ijk, out: &mut Vec<u8>) {
    c.i.encode(out);
    c.j.encode(out);
    c.k.encode(out);
}

fn decode_ijk(r: &mut WireReader<'_>) -> Result<Ijk, WireError> {
    Ok(Ijk::new(usize::decode(r)?, usize::decode(r)?, usize::decode(r)?))
}

impl Wire for ReqPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.xyz.encode(out);
        match self.hint {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                encode_ijk(c, out);
            }
        }
        self.relaxed.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = u32::decode(r)?;
        let xyz = <[f64; 3]>::decode(r)?;
        let hint = match r.u8()? {
            0 => None,
            1 => Some(decode_ijk(r)?),
            _ => return Err(WireError::Invalid("ReqPoint hint discriminant")),
        };
        let relaxed = bool::decode(r)?;
        Ok(ReqPoint { id, xyz, hint, relaxed })
    }
}

#[derive(Clone, Copy)]
pub(crate) enum Answer {
    Found { value: [f64; 5], cell_global: Ijk },
    Miss,
}

const ANSWER_BYTES: usize = 68;

impl Wire for Answer {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Answer::Found { value, cell_global } => {
                out.push(0);
                value.encode(out);
                encode_ijk(*cell_global, out);
            }
            Answer::Miss => out.push(1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Answer::Found { value: <[f64; 5]>::decode(r)?, cell_global: decode_ijk(r)? }),
            1 => Ok(Answer::Miss),
            _ => Err(WireError::Invalid("Answer discriminant")),
        }
    }
}

/// One rank's entry in the routing broadcast, decoded: the world-frame box
/// requests are routed by, the lattice box its occupancy bits were marked
/// in, and the inverse pose mapping world points back into that lattice.
/// For static ranks (and ranks without a map) the pose is the identity and
/// `world == lat`, reproducing the legacy box+occupancy routing exactly.
pub(crate) struct RankRoute {
    world: Aabb,
    lat: Aabb,
    inv_pose: RigidTransform,
    occ: [u64; OCC_WORDS],
}

impl RankRoute {
    /// Could this rank's cells possibly contain `p`? Conservative: `false`
    /// only when the routing box or the (pose-corrected) occupancy mask
    /// proves no cell can hold the point.
    #[inline]
    fn admits(&self, p: [f64; 3]) -> bool {
        self.world.contains(p) && occupancy_admits_posed(&self.occ, &self.lat, &self.inv_pose, p)
    }
}

/// Wire size of one rank's routing broadcast entry: world box + lattice box
/// (6 f64 each), flattened inverse pose (10 f64), occupancy words.
const ROUTE_BYTES: usize = 48 + 48 + 80 + 8 * OCC_WORDS;

/// One rank's routing broadcast: world-frame routing box, lattice box,
/// flattened inverse pose, and the coarse occupancy mask.
type RouteMsg = ([f64; 6], [f64; 6], [f64; 10], [u64; OCC_WORDS]);

/// Pending state of one unresolved IGBP during the round loop. `Copy`, and
/// candidate ranks live as a range into the arena's flat `cand_pool` — the
/// per-IGBP candidate vector was the dominant per-step allocation.
#[derive(Clone, Copy)]
pub(crate) struct Pending {
    igbp: usize,
    /// Index into the search hierarchy of this rank's grid (usize::MAX when
    /// trying the cached donor first).
    level: usize,
    /// Start of this IGBP's candidate ranks in the arena `cand_pool`.
    cand_start: u32,
    /// Number of candidate ranks in the range.
    cand_len: u32,
    /// Cursor into the range: the next candidate to try. Advancing the
    /// cursor on a miss is O(1).
    cand_idx: u32,
    hint: Option<Ijk>,
    /// Second sweep through the hierarchy with relaxed donor acceptance.
    relaxed: bool,
}

impl Pending {
    /// No candidate rank left to try at the current hierarchy level.
    fn exhausted(&self) -> bool {
        self.cand_idx >= self.cand_len
    }

    /// The candidate rank the cursor points at.
    fn current(&self, cand_pool: &[usize]) -> usize {
        cand_pool[(self.cand_start + self.cand_idx) as usize]
    }
}

/// Run the distributed connectivity solution for this rank's block.
///
/// Preconditions: holes cut and `igbps` identified (see [`crate::holes`]),
/// and the block's halo state freshly exchanged (donor stencils near
/// subdomain edges read halo values).
///
/// An optional inverse map (`inv`, built for the block's *current*
/// geometry) seeds cold donor searches from its O(1) lookup instead of the
/// block center, and its coarse occupancy mask rides along with the
/// bounding-box broadcast so candidate routing prunes ranks whose boxes
/// contain a point but whose cells cannot. Donors, weights and orphans are
/// identical with or without the map — pruning only removes ranks that
/// would certainly answer Miss. With `inv = None` the rank broadcasts an
/// all-ones mask and cold-starts from the center.
///
/// Scratch lives on the caller-owned [`ConnArena`], which only changes
/// *where* collections get their memory — the protocol, its message
/// traffic, and every flop charge are identical whether the arena is fresh
/// or warm, so states and virtual times are bit-identical across the two; a
/// persistent arena just drops the steady-state transient-allocation count
/// to near zero.
pub fn connect_distributed_arena(
    block: &mut Block,
    igbps: &[Igbp],
    topo: &Topology,
    cache: &mut DonorCache,
    comm: &mut Comm,
    inv: Option<&InverseMap>,
    arena: &mut ConnArena,
) -> ConnStats {
    let nranks = comm.size();
    let me = comm.rank();
    let my_grid = topo.grid_of_rank[me];
    let mut stats = ConnStats { igbps: igbps.len(), ..Default::default() };
    let t_conn = comm.now();
    arena.begin_protocol(nranks);
    let isa = arena.isa;
    let ConnArena {
        pending,
        next_pending,
        cand_pool,
        orphaned,
        outgoing,
        sent_to,
        writes,
        answers_by_id,
        routes,
        req_pool,
        ans_pool,
        counts_pool,
        walk_queries,
        walk_outcomes,
        walk_costs,
        ..
    } = arena;

    // 1. Broadcast routing info. A rank with a map broadcasts its lattice
    //    box (so every receiver bins points into exactly the lattice the
    //    occupancy bits were marked on), the world-frame routing box, and
    //    the inverse pose that maps world points back into the lattice;
    //    while the pose is the identity — always, for static grids — the
    //    two boxes coincide and routing is exactly the legacy behavior.
    let (my_world, my_lat, my_pose, my_occ) = match inv {
        Some(m) => (m.world_bounds(), m.bounds(), m.inv_pose().to_flat(), m.occupancy()),
        None => {
            let bb = owned_bbox(block);
            (bb, bb, RigidTransform::IDENTITY.to_flat(), OCC_ALL)
        }
    };
    let wflat: [f64; 6] = [
        my_world.min[0],
        my_world.min[1],
        my_world.min[2],
        my_world.max[0],
        my_world.max[1],
        my_world.max[2],
    ];
    let lflat: [f64; 6] =
        [my_lat.min[0], my_lat.min[1], my_lat.min[2], my_lat.max[0], my_lat.max[1], my_lat.max[2]];
    let gathered: Vec<RouteMsg> = comm.allgather((wflat, lflat, my_pose, my_occ), ROUTE_BYTES);
    routes.extend(gathered.iter().map(|(w, l, p, o)| RankRoute {
        world: Aabb::new([w[0], w[1], w[2]], [w[3], w[4], w[5]]),
        lat: Aabb::new([l[0], l[1], l[2]], [l[3], l[4], l[5]]),
        inv_pose: RigidTransform::from_flat(*p),
        occ: *o,
    }));

    // 2. Seed pending requests: cached donors first, hierarchy otherwise.
    for (idx, ig) in igbps.iter().enumerate() {
        if let Some(&(rank, _grid, cell, relaxed)) = cache.map.get(&ig.node) {
            let cand_start = cand_pool.len() as u32;
            cand_pool.push(rank);
            pending.push(Pending {
                igbp: idx,
                level: usize::MAX,
                cand_start,
                cand_len: 1,
                cand_idx: 0,
                hint: Some(cell),
                relaxed,
            });
        } else {
            let mut p = Pending {
                igbp: idx,
                level: 0,
                cand_start: 0,
                cand_len: 0,
                cand_idx: 0,
                hint: None,
                relaxed: false,
            };
            // Advance through the hierarchy until some grid's boxes contain
            // the point (the first listed grid need not).
            refill_candidates(&mut p, cand_pool, ig, my_grid, topo, routes);
            while p.exhausted() {
                p.level += 1;
                if p.level >= topo.search_order[my_grid].len() {
                    break;
                }
                refill_candidates(&mut p, cand_pool, ig, my_grid, topo, routes);
            }
            pending.push(p);
        }
    }
    // Drop IGBPs with no candidates anywhere (instant orphans).
    pending.retain(|p| {
        if p.exhausted() {
            orphaned.push(p.igbp);
            false
        } else {
            true
        }
    });

    // 3. Round loop. Interpolated values are buffered and applied only
    //    after the loop: every donor rank then serves from its
    //    pre-connectivity state, so an answer cannot depend on which round
    //    a request happens to arrive in (occupancy pruning shortens miss
    //    chains, which would otherwise shift arrival rounds between the
    //    map-on and map-off modes and perturb values at the last bit).
    let mut round = 0usize;
    loop {
        let active: usize = comm.allreduce_sum_usize(pending.len());
        if active == 0 || round >= MAX_ROUNDS {
            break;
        }
        stats.rounds = round + 1;

        // Build per-destination request lists.
        for p in pending.iter() {
            let dst = p.current(cand_pool);
            let ig = &igbps[p.igbp];
            outgoing[dst].push(ReqPoint {
                id: p.igbp as u32,
                xyz: ig.xyz,
                hint: p.hint,
                relaxed: p.relaxed,
            });
        }
        // The count vector is consumed by the collective, but the gathered
        // result hands back `nranks` freshly decoded vectors — one is
        // recycled through the pool for the next round, so steady-state
        // rounds allocate no count storage.
        let mut my_counts = counts_pool.take();
        my_counts.extend(outgoing.iter().map(|v| v.len() as u32));
        let mut all_counts: Vec<Vec<u32>> = comm.allgather(my_counts, 4 * nranks);

        // Send requests. Each request carries an empty reply buffer from
        // the requester's answer pool, and the servicer sends both buffers
        // back with the reply — every vector makes a full round trip home,
        // so pool balance is independent of how asymmetric the request
        // traffic is (a rank that only *asks* would otherwise bleed its
        // buffers to the ranks that *serve*, reallocating every round).
        let tag_req = TAG_BASE + 2 * round as u64;
        let tag_rep = tag_req + 1;
        sent_to.clear();
        for (dst, out) in outgoing.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            let nbytes = out.len() * REQ_POINT_BYTES;
            let pts = std::mem::replace(out, req_pool.take());
            let reply_buf: Vec<(u32, Answer)> = ans_pool.take();
            comm.send(dst, tag_req, (pts, reply_buf), nbytes);
            sent_to.push(dst);
        }

        // Service incoming requests (in rank order — deterministic).
        for (src, counts) in all_counts.iter().enumerate() {
            let n_in = counts[me] as usize;
            if n_in == 0 {
                continue;
            }
            let t_serve = comm.now();
            let (mut pts, mut answers): (Vec<ReqPoint>, Vec<(u32, Answer)>) =
                comm.recv(src, tag_req);
            assert_eq!(pts.len(), n_in);
            stats.serviced += n_in;
            comm.metrics_mut().add(names::CONN_SERVICED, n_in as u64);
            let mut service_flops = 0u64;
            let steps_before = stats.walk_steps;
            // Lane-lockstep donor search over the whole request batch: up
            // to W pending points walk side by side, one SIMD lane each.
            // Outcomes and per-point costs are bit-identical to searching
            // the points one at a time with the scalar code.
            walk_queries.clear();
            walk_queries.extend(pts.iter().map(|pt| {
                let start = match (pt.hint, inv) {
                    // Warm restart hint beats everything.
                    (Some(gc), _) => clamp_to_local_cell(block, gc),
                    // Cold search: O(1) inverse-map seed near the target
                    // (posed queries charge for the inverse transform).
                    (None, Some(m)) => {
                        service_flops += m.query_flops();
                        m.query(pt.xyz)
                    }
                    // Legacy cold start from the block center.
                    (None, None) => center_start(block),
                };
                BatchQuery { xyz: pt.xyz, start, relaxed: pt.relaxed }
            }));
            walk_search_batch(block, walk_queries, isa, walk_outcomes, walk_costs);
            for (pt, (out, cost)) in pts.iter().zip(walk_outcomes.iter().zip(walk_costs.iter())) {
                stats.walk_steps += cost.walk_steps;
                service_flops += cost.flops();
                let ans = match out {
                    SearchOutcome::Found(d) => {
                        let value = interpolate(block, d);
                        service_flops += FLOPS_PER_INTERP;
                        Answer::Found { value, cell_global: block.to_global(d.cell) }
                    }
                    _ => Answer::Miss,
                };
                answers.push((pt.id, ans));
            }
            comm.compute(service_flops as f64, WorkClass::Search);
            comm.metrics_mut().add(names::CONN_WALK_STEPS, stats.walk_steps - steps_before);
            // Hand both buffers back to their owner (the request vector
            // emptied: its capacity, not its contents, travels home).
            pts.clear();
            comm.send(src, tag_rep, (pts, answers), n_in * ANSWER_BYTES);
            comm.trace_complete(
                "conn",
                "serve",
                t_serve,
                &[("src", ArgVal::U64(src as u64)), ("points", ArgVal::U64(n_in as u64))],
            );
        }

        // Park one gathered count vector for the next round's fill.
        if let Some(v) = all_counts.pop() {
            counts_pool.put(v);
        }

        // Collect replies and update pending set.
        answers_by_id.clear();
        for &dst in sent_to.iter() {
            let (reqv, answers): (Vec<ReqPoint>, Vec<(u32, Answer)>) = comm.recv(dst, tag_rep);
            req_pool.put(reqv);
            for &(id, a) in &answers {
                answers_by_id.insert(id, (dst, a));
            }
            ans_pool.put(answers);
        }
        next_pending.clear();
        for &(mut p) in pending.iter() {
            let (from, ans) = answers_by_id[&(p.igbp as u32)];
            match ans {
                Answer::Found { value, cell_global } => {
                    if p.level == usize::MAX {
                        comm.metrics_mut().inc(names::CONN_CACHE_HIT);
                    }
                    let ig = &igbps[p.igbp];
                    writes.push((ig.node, value));
                    cache
                        .map
                        .insert(ig.node, (from, topo.grid_of_rank[from], cell_global, p.relaxed));
                    stats.resolved += 1;
                }
                Answer::Miss => {
                    // Advance to the next candidate / hierarchy level; after
                    // the strict hierarchy is exhausted, sweep it once more
                    // with relaxed donor acceptance before giving up.
                    if p.level == usize::MAX {
                        comm.metrics_mut().inc(names::CONN_CACHE_MISS);
                    }
                    let ig = igbps[p.igbp];
                    p.hint = None;
                    p.cand_idx += 1;
                    while p.exhausted() {
                        p.level = if p.level == usize::MAX { 0 } else { p.level + 1 };
                        if p.level >= topo.search_order[my_grid].len() {
                            if p.relaxed {
                                break;
                            }
                            p.relaxed = true;
                            p.level = 0;
                        }
                        refill_candidates(&mut p, cand_pool, &ig, my_grid, topo, routes);
                    }
                    if p.exhausted() {
                        orphaned.push(p.igbp);
                        cache.map.remove(&ig.node);
                    } else {
                        comm.metrics_mut().inc(names::CONN_FORWARDS);
                        next_pending.push(p);
                    }
                }
            }
        }
        std::mem::swap(pending, next_pending);
        round += 1;
    }

    for &(node, value) in writes.iter() {
        block.q.set_node(node, value);
    }

    // Anything still pending at the round cap is an orphan this step.
    for p in pending.iter() {
        orphaned.push(p.igbp);
    }
    stats.orphans = orphaned.len();
    let m = comm.metrics_mut();
    m.add(names::CONN_ORPHANS, stats.orphans as u64);
    m.add(names::CONN_ROUNDS, stats.rounds as u64);
    comm.trace_complete(
        "conn",
        "connect",
        t_conn,
        &[("igbps", ArgVal::U64(stats.igbps as u64)), ("rounds", ArgVal::U64(stats.rounds as u64))],
    );
    stats
}

/// Candidate ranks for one IGBP at its current hierarchy level: the ranks of
/// the level's grid whose bounding boxes contain the point — and whose
/// occupancy masks admit it, pruning ranks whose *box* overlaps but whose
/// *cells* cannot hold the point (the hollow of an O-grid) — nearest
/// bounding box center first (deterministic rank-id tie-break). Proximity
/// ordering makes the first candidate almost always the owner, so cold
/// searches rarely pay for a miss.
fn refill_candidates(
    p: &mut Pending,
    cand_pool: &mut Vec<usize>,
    ig: &Igbp,
    my_grid: usize,
    topo: &Topology,
    routes: &[RankRoute],
) {
    let level = if p.level == usize::MAX { 0 } else { p.level };
    p.cand_idx = 0;
    let Some(&grid) = topo.search_order[my_grid].get(level) else {
        p.cand_start = cand_pool.len() as u32;
        p.cand_len = 0;
        return;
    };
    p.level = level;
    let start = cand_pool.len();
    cand_pool.extend(topo.ranks_of_grid[grid].clone().filter(|&r| routes[r].admits(ig.xyz)));
    let dist2 = |r: usize| -> f64 {
        let c = routes[r].world.center();
        (c[0] - ig.xyz[0]).powi(2) + (c[1] - ig.xyz[1]).powi(2) + (c[2] - ig.xyz[2]).powi(2)
    };
    // Strict total order (distance, then rank id), so the unstable sort is
    // deterministic and allocation-free.
    cand_pool[start..]
        .sort_unstable_by(|&a, &b| dist2(a).partial_cmp(&dist2(b)).unwrap().then(a.cmp(&b)));
    p.cand_start = start as u32;
    p.cand_len = (cand_pool.len() - start) as u32;
}

/// Bounding box of a block's owned region *plus one halo layer of nodes*:
/// any point whose containing cell is anchored at an owned node lies within
/// this box (the cell's far corners are at most one layer outside the owned
/// nodes, and the halo carries real neighbor geometry). Without the halo
/// layer, points in boundary cells of stretched grids would be routed
/// nowhere.
pub fn owned_bbox(block: &Block) -> Aabb {
    let mut bb = Aabb::EMPTY;
    let ow = block.owned_local();
    let grown = IndexBox::new(
        Ijk::new(
            ow.lo.i.saturating_sub(1),
            ow.lo.j.saturating_sub(1),
            ow.lo.k.saturating_sub(usize::from(block.halo[2] > 0)),
        ),
        Ijk::new(
            (ow.hi.i + 1).min(block.local_dims.ni),
            (ow.hi.j + 1).min(block.local_dims.nj),
            (ow.hi.k + usize::from(block.halo[2] > 0)).min(block.local_dims.nk),
        ),
    );
    for p in grown.iter() {
        bb.include(block.coords[p]);
    }
    bb.inflate(1e-9 * bb.diagonal().max(1.0))
}

/// Convert a global donor-grid cell hint to a local cell on this block,
/// clamped into local storage (the hint may point slightly off this rank's
/// region after motion or when the cache predates a repartition).
fn clamp_to_local_cell(block: &Block, global_cell: Ijk) -> Ijk {
    let h = block.halo;
    let lo = block.owned.lo;
    let ld = block.local_dims;
    let map1 = |g: usize, lo: usize, h: usize, n: usize| -> usize {
        (g as isize + h as isize - lo as isize).clamp(0, n as isize - 2) as usize
    };
    Ijk::new(
        map1(global_cell.i, lo.i, h[0], ld.ni),
        map1(global_cell.j, lo.j, h[1], ld.nj),
        map1(global_cell.k, lo.k, h[2], ld.nk.max(2)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holes::cut_holes_and_find_fringe_arena;
    use overset_comm::{MachineModel, Universe};
    use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::{Dims, IndexBox};
    use overset_solver::FlowConditions;

    fn inner_grid() -> CurvilinearGrid {
        let di = Dims::new(17, 17, 1);
        let ci = Field3::from_fn(di, |p| [1.0 + 0.125 * p.i as f64, 1.0 + 0.125 * p.j as f64, 0.0]);
        let mut gi = CurvilinearGrid::new("inner", ci, GridKind::NearBody);
        gi.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
            .collect();
        gi
    }

    fn outer_grid() -> CurvilinearGrid {
        let do_ = Dims::new(17, 17, 1);
        let co = Field3::from_fn(do_, |p| [0.25 * p.i as f64, 0.25 * p.j as f64, 0.0]);
        let mut go = CurvilinearGrid::new("outer", co, GridKind::Background);
        go.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield })
            .collect();
        go
    }

    /// 3 ranks: rank 0 owns the inner grid; ranks 1-2 split the outer grid.
    fn topo() -> Topology {
        Topology {
            grid_of_rank: vec![0, 1, 1],
            ranks_of_grid: vec![0..1, 1..3],
            search_order: vec![vec![1], vec![0]],
        }
    }

    fn build_block(rank: usize, fc: &FlowConditions) -> Block {
        match rank {
            0 => {
                let g = inner_grid();
                Block::from_grid(0, &g, g.dims().full_box(), [None; 6], fc)
            }
            1 => {
                let g = outer_grid();
                let owned = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(9, 17, 1));
                Block::from_grid(1, &g, owned, [None, Some(2), None, None, None, None], fc)
            }
            _ => {
                let g = outer_grid();
                let owned = IndexBox::new(Ijk::new(9, 0, 0), Ijk::new(17, 17, 1));
                Block::from_grid(1, &g, owned, [Some(1), None, None, None, None, None], fc)
            }
        }
    }

    /// One connectivity pass with the defaults: fresh hole cut and fringe,
    /// no inverse map, cold arenas.
    fn connect(
        block: &mut Block,
        cache: &mut DonorCache,
        comm: &mut Comm,
    ) -> (Vec<Igbp>, ConnStats) {
        let (igbps, _) = cut_holes_and_find_fringe_arena(block, &[], None, &mut ConnArena::new());
        let stats = connect_distributed_arena(
            block,
            &igbps,
            &topo(),
            cache,
            comm,
            None,
            &mut ConnArena::new(),
        );
        (igbps, stats)
    }

    fn paint_linear(b: &mut Block) {
        for p in b.local_dims.iter() {
            let [x, y, _] = b.coords[p];
            b.q.set_node(p, [1.0 + x + 2.0 * y, 0.0, 0.0, 0.0, 1.0]);
        }
    }

    #[test]
    fn distributed_resolution_matches_interpolant() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut block = build_block(comm.rank(), &fc);
            if comm.rank() > 0 {
                paint_linear(&mut block);
            }
            let mut cache = DonorCache::new();
            let (igbps, stats) = connect(&mut block, &mut cache, comm);
            // Verify resolved fringe values against the analytic field.
            let mut max_err = 0.0f64;
            for ig in &igbps {
                let q = block.q.node(ig.node);
                let expect = 1.0 + ig.xyz[0] + 2.0 * ig.xyz[1];
                max_err = max_err.max((q[0] - expect).abs());
            }
            (stats, max_err)
        });
        let (s0, err0) = &out[0].result;
        assert!(s0.igbps > 0);
        assert_eq!(s0.orphans, 0, "{s0:?}");
        assert_eq!(s0.resolved, s0.igbps);
        assert!(*err0 < 1e-10, "interp err {err0}");
        // The two outer ranks serviced the inner grid's requests.
        let (s1, _) = &out[1].result;
        let (s2, _) = &out[2].result;
        assert!(s1.serviced + s2.serviced >= s0.igbps);
    }

    #[test]
    fn restart_reduces_walk_steps_and_rounds_stay_bounded() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut block = build_block(comm.rank(), &fc);
            paint_linear(&mut block);
            let mut cache = DonorCache::new();
            let (_, s1) = connect(&mut block, &mut cache, comm);
            let (_, s2) = connect(&mut block, &mut cache, comm);
            (s1, s2)
        });
        // Walk work on the servicing ranks drops with warm hints.
        let cold: u64 = out.iter().map(|o| o.result.0.walk_steps).sum();
        let warm: u64 = out.iter().map(|o| o.result.1.walk_steps).sum();
        assert!(warm < cold, "restart not effective: {warm} vs {cold}");
        // Warm pass resolves in a single round.
        assert!(out[0].result.1.rounds <= out[0].result.0.rounds);
    }

    #[test]
    fn deterministic_virtual_times() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let run = || {
            Universe::builder().ranks(3).machine(&MachineModel::ibm_sp2()).run(|comm| {
                let mut block = build_block(comm.rank(), &fc);
                paint_linear(&mut block);
                connect(&mut block, &mut DonorCache::new(), comm);
                comm.now()
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.to_bits(), y.result.to_bits());
        }
    }

    #[test]
    fn metrics_registry_matches_protocol_stats_across_ranks() {
        use overset_comm::metrics::MetricsRegistry;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut block = build_block(comm.rank(), &fc);
            paint_linear(&mut block);
            let mut cache = DonorCache::new();
            let (_, s1) = connect(&mut block, &mut cache, comm);
            let (_, s2) = connect(&mut block, &mut cache, comm);
            (s1, s2)
        });
        // Per-rank: the registry's serviced counter is exactly the sum of
        // the per-step stats — single source of truth for I(p).
        for o in &out {
            let expect = (o.result.0.serviced + o.result.1.serviced) as u64;
            assert_eq!(o.metrics.counter(names::CONN_SERVICED), expect);
        }
        // Cross-rank aggregation sums counters and merges histograms.
        let regs: Vec<MetricsRegistry> = out.iter().map(|o| o.metrics.clone()).collect();
        let agg = MetricsRegistry::aggregate(&regs);
        let total: u64 =
            out.iter().map(|o| (o.result.0.serviced + o.result.1.serviced) as u64).sum();
        assert!(total > 0);
        assert_eq!(agg.counter(names::CONN_SERVICED), total);
        // The warm second pass produced cache hits on the requesting rank.
        assert!(agg.counter(names::CONN_CACHE_HIT) > 0);
        assert!(agg.cache_hit_rate().unwrap() > 0.5);
    }

    #[test]
    fn service_load_concentrates_on_overlap_owner() {
        // Rank 1 owns the left half of the outer grid; the inner grid sits
        // at [1,3]^2, so both outer ranks serve, but rank 0 serves nothing
        // (no outer fringe reaches into the inner grid's bbox...
        // actually outer grid has Farfield edges: no IGBPs of its own).
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut block = build_block(comm.rank(), &fc);
            paint_linear(&mut block);
            connect(&mut block, &mut DonorCache::new(), comm).1
        });
        assert_eq!(out[1].result.igbps + out[2].result.igbps, 0);
        assert_eq!(out[0].result.serviced, 0);
        assert!(out[1].result.serviced > 0);
        assert!(out[2].result.serviced > 0);
    }

    #[test]
    fn protocol_messages_roundtrip_on_the_wire() {
        let reqs = [
            ReqPoint { id: 7, xyz: [1.5, -2.25, 1e300], hint: None, relaxed: false },
            ReqPoint {
                id: u32::MAX,
                xyz: [0.0, -0.0, f64::NAN],
                hint: Some(Ijk::new(3, 0, 9)),
                relaxed: true,
            },
        ];
        for r in reqs {
            let back = ReqPoint::from_wire_bytes(&r.to_wire_bytes()).unwrap();
            assert_eq!(back.id, r.id);
            assert_eq!(back.xyz.map(f64::to_bits), r.xyz.map(f64::to_bits));
            assert_eq!(back.hint, r.hint);
            assert_eq!(back.relaxed, r.relaxed);
        }
        let answers = [
            Answer::Found { value: [1.0, 2.0, 3.0, 4.0, 5.0], cell_global: Ijk::new(1, 2, 3) },
            Answer::Miss,
        ];
        for a in answers {
            let back = Answer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
            match (a, back) {
                (
                    Answer::Found { value: v1, cell_global: c1 },
                    Answer::Found { value: v2, cell_global: c2 },
                ) => {
                    assert_eq!(v1.map(f64::to_bits), v2.map(f64::to_bits));
                    assert_eq!(c1, c2);
                }
                (Answer::Miss, Answer::Miss) => {}
                _ => panic!("variant changed across the wire"),
            }
        }
        // Corrupt discriminants are rejected, not misread.
        assert!(Answer::from_wire_bytes(&[9]).is_err());
        let s =
            ConnStats { igbps: 4, serviced: 9, resolved: 4, orphans: 0, walk_steps: 77, rounds: 2 };
        let back = ConnStats::from_wire_bytes(&s.to_wire_bytes()).unwrap();
        assert_eq!(back.serviced, 9);
        assert_eq!(back.walk_steps, 77);
    }
}
