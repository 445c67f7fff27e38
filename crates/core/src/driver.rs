//! The OVERFLOW-D1 driver: the three-phase timestep loop (flow solve, grid
//! motion, domain connectivity) with barriers between phases, integrated
//! static/dynamic load balancing, and per-phase performance accounting —
//! everything the paper's tables and figures are computed from.

use crate::comm_impl::MpSolverComm;
use crate::redistribute::redistribute_state;
use crate::setup::{build_block, build_topology};
use overset_balance::{
    dynamic_rebalance, fit_np_to_dims_min, static_balance, Partition, ServiceWindow,
};
use overset_comm::metrics::names;
use overset_comm::trace::{ArgVal, RankTrace, TraceConfig};
use overset_comm::{
    AllocRecord, AllocTotals, Comm, MachineModel, MetricsRegistry, OversetError, PerfSummary,
    Phase, RankOutput, RankStats, StepRecord, TransportConfig, Universe, VecPool, Wire, WireError,
    WireReader, WorkClass, NUM_PHASES,
};
use overset_connectivity::{
    connect_distributed_arena, connect_serial_arena, cut_holes_and_find_fringe_arena, ConnArena,
    DonorCache, InverseMap, SerialCache, FLOPS_PER_INCR_UPDATE,
};
use overset_grid::curvilinear::{CurvilinearGrid, Solid};
use overset_grid::transform::RigidTransform;
use overset_grid::Dims;
use overset_motion::{BodyMotion, Loads};
use overset_solver::adi::implicit_sweeps;
use overset_solver::bc::apply_bcs;
use overset_solver::rhs::compute_residual;
use overset_solver::turbulence::compute_mu_t;
use overset_solver::{FlowConditions, Scratch, SerialComm, SolverComm};

/// Load-balance configuration: the user-specified factor `f_o` and how often
/// the dynamic scheme checks the measured service loads (Algorithm 2's
/// "check solution after specified number of timesteps").
#[derive(Clone, Copy, Debug)]
pub struct LbConfig {
    pub fo: f64,
    pub check_interval: usize,
}

impl LbConfig {
    /// Static balancing only (`f_o = ∞`), the paper's default.
    pub fn static_only() -> Self {
        LbConfig { fo: f64::INFINITY, check_interval: usize::MAX }
    }

    pub fn dynamic(fo: f64, check_interval: usize) -> Self {
        LbConfig { fo, check_interval }
    }
}

/// A complete moving-body overset case.
#[derive(Clone)]
pub struct CaseConfig {
    pub name: String,
    pub grids: Vec<CurvilinearGrid>,
    /// Hierarchical donor-search lists per grid.
    pub search_order: Vec<Vec<usize>>,
    /// Moving bodies (sets of grids sharing one prescribed or 6-DOF motion).
    pub motions: Vec<BodyMotion>,
    pub fc: FlowConditions,
    pub steps: usize,
    pub lb: LbConfig,
    /// Collect the full final state into [`RunResult::states`] (debugging /
    /// validation; off by default).
    pub collect_state: bool,
    /// Use the nth-level-restart donor cache (Barszcz). Disabling forces a
    /// from-scratch donor search every step (the A1 ablation).
    pub use_restart: bool,
    /// Use the DCF3D-style inverse-map acceleration structures: O(1) walk
    /// seeds for cold donor searches, occupancy-pruned candidate routing,
    /// and masked hole cutting. Connectivity results are identical either
    /// way; disabling (the ablation) only changes where the virtual time
    /// goes. Maps are rebuilt per motion event, only for grids that moved.
    pub use_inverse_map: bool,
    /// Keep one [`ConnArena`] per rank for the whole run so steady-state
    /// connectivity steps reuse buffer capacity instead of reallocating.
    /// Disabling (the ablation) resets the arena every step — the *same*
    /// code path runs, so states, walk outcomes and virtual times are
    /// bit-identical; only host-side allocation counts differ.
    pub use_arena: bool,
    /// Advance an existing inverse map under a small rigid motion (pose
    /// composition) instead of rebuilding it from scratch. Falls back to a
    /// full rebuild when the accumulated pose would inflate the map's
    /// world-space routing box past its threshold. Connectivity results are
    /// bit-identical either way; virtual time honestly reflects the cheaper
    /// incremental update (and the costlier posed queries).
    pub use_incremental_invmap: bool,
    /// Event tracing (virtual-time spans collected into
    /// [`RunResult::trace`]). Disabled by default; zero-cost when off.
    pub trace: TraceConfig,
    /// Bound on the OS threads executing the ranks. `None` (default): one
    /// thread per rank. `Some(n)`: the runtime multiplexes the ranks onto
    /// `n` worker threads (M:N mode) whenever `n` is below the rank count —
    /// required for rank counts far beyond the host's cores. Virtual times
    /// are bit-identical either way.
    pub max_threads: Option<usize>,
    /// Communication backend for the parallel run: in-process mailboxes
    /// (default) or rank-group OS processes over Unix sockets. Virtual
    /// times are bit-identical either way; the serial driver always runs
    /// in-process.
    pub transport: TransportConfig,
    /// Test hook for the allocation gate: when nonzero, every rank makes
    /// one synthetic heap allocation of this many bytes per timestep inside
    /// the connectivity phase. Physics- and virtual-time-neutral; it exists
    /// so `repro compare` can be proven to fail on an injected host-cost
    /// regression (`--inject-alloc`).
    pub inject_alloc: usize,
    /// Run the lane-batched compute kernels on the host's SIMD units
    /// (AVX2) when available. Disabling (the `--no-simd` ablation) runs the
    /// *same* batched code through the portable scalar lanes — states, walk
    /// outcomes, and virtual times are bit-identical; only host wall-clock
    /// changes. On hosts without AVX2 this flag is inert (the scalar lanes
    /// are the only path).
    pub use_simd: bool,
}

impl CaseConfig {
    pub fn total_points(&self) -> usize {
        self.grids.iter().map(|g| g.num_points()).sum()
    }

    /// Start building a case from its required geometry and flow inputs.
    /// Every runtime toggle (restart cache, inverse map, tracing, thread
    /// bound, transport backend, load balancing) gets its default here and
    /// is changed by assigning the built config's public field.
    pub fn builder(
        name: impl Into<String>,
        grids: Vec<CurvilinearGrid>,
        search_order: Vec<Vec<usize>>,
        fc: FlowConditions,
    ) -> CaseConfigBuilder {
        CaseConfigBuilder {
            cfg: CaseConfig {
                name: name.into(),
                grids,
                search_order,
                motions: Vec::new(),
                fc,
                steps: 1,
                lb: LbConfig::static_only(),
                collect_state: false,
                use_restart: true,
                use_inverse_map: true,
                use_arena: true,
                use_incremental_invmap: true,
                trace: TraceConfig::disabled(),
                max_threads: None,
                transport: TransportConfig::InProcess,
                inject_alloc: 0,
                use_simd: true,
            },
        }
    }
}

/// Builder for [`CaseConfig`]: geometry comes in through
/// [`CaseConfig::builder`], the motions and step count through the setters
/// below.
#[derive(Clone)]
pub struct CaseConfigBuilder {
    cfg: CaseConfig,
}

impl CaseConfigBuilder {
    pub fn motions(mut self, motions: Vec<BodyMotion>) -> Self {
        self.cfg.motions = motions;
        self
    }

    pub fn steps(mut self, steps: usize) -> Self {
        self.cfg.steps = steps;
        self
    }

    pub fn build(self) -> CaseConfig {
        self.cfg
    }
}

/// One field node's final state: (grid, global node index, conserved
/// vector).
pub type NodeState = (usize, overset_grid::Ijk, [f64; 5]);

/// Aggregated outcome of a run: the raw material for every table row.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub nranks: usize,
    /// RMS of the conserved state over all field nodes at the end of the
    /// run — a physics checksum used by the N-rank ≡ serial equivalence
    /// tests.
    pub state_rms: f64,
    pub steps: usize,
    pub total_points: usize,
    pub summary: PerfSummary,
    /// Elapsed (virtual) time per phase, summed over steps; phases are
    /// barrier-separated so this is exact, not an average.
    pub phase_elapsed: [f64; NUM_PHASES],
    pub wall_time: f64,
    /// IGBPs owned per rank at the last step.
    pub igbps_last: usize,
    /// Search-request points serviced per rank at the last step: I(p).
    pub serviced_last: Vec<usize>,
    pub orphans_last: usize,
    pub repartitions: usize,
    pub np_final: Vec<usize>,
    pub rank_stats: Vec<RankStats>,
    /// Per-rank virtual-time spans (empty unless [`CaseConfig::trace`] was
    /// enabled). Feed to [`overset_comm::chrome_trace_json`].
    pub trace: Vec<RankTrace>,
    /// Metrics aggregated over every rank's registry (counters summed,
    /// histograms merged).
    pub metrics: MetricsRegistry,
    /// Flight-recorder telemetry: one `Vec<StepRecord>` per rank (rank
    /// order), one record per timestep. Always collected — the recorder is
    /// as cheap as the metrics registry and physics-neutral.
    pub step_records: Vec<Vec<StepRecord>>,
    /// Step records evicted by the ring bound, summed over ranks (0 unless
    /// a run exceeded the recorder capacity).
    pub steps_dropped: u64,
    /// Host wall-clock seconds per phase, taken as the max over ranks (the
    /// slowest rank bounds real elapsed time). Nondeterministic — reported
    /// in the advisory `host` section of run reports, never bit-compared.
    pub host_phase_elapsed: [f64; NUM_PHASES],
    /// Host wall-clock seconds per phase for *every* rank (rank order) —
    /// the per-rank series behind [`RunResult::host_phase_elapsed`]'s max.
    /// Nondeterministic, advisory only.
    pub host_phase_by_rank: Vec<[f64; NUM_PHASES]>,
    /// End-of-run heap-allocation attribution per rank (rank order):
    /// per-phase counts and bytes from the counting global allocator.
    /// Counts and bytes are deterministic for a fixed configuration
    /// (`peak_bytes` is allocation-order-dependent and advisory).
    pub alloc_by_rank: Vec<AllocTotals>,
    /// Per-step allocation deltas per rank (rank order), in lockstep with
    /// [`RunResult::step_records`]. Deterministic like `alloc_by_rank`.
    pub alloc_records: Vec<Vec<AllocRecord>>,
    /// Final state per (grid, node) when `collect_state` was set.
    pub states: Vec<NodeState>,
}

impl RunResult {
    /// The paper's "% time in DCF3D" (connectivity elapsed over total).
    pub fn connectivity_fraction(&self) -> f64 {
        let total: f64 = self.phase_elapsed.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.phase_elapsed[Phase::Connectivity as usize] / total
        }
    }

    /// Average Mflops per node.
    pub fn mflops_per_node(&self) -> f64 {
        self.summary.mflops_per_node()
    }

    /// Time per timestep (virtual seconds).
    pub fn time_per_step(&self) -> f64 {
        self.wall_time / self.steps as f64
    }

    /// Measured donor-search service imbalance f(p) = I(p)/mean.
    pub fn f_max(&self) -> f64 {
        overset_balance::service_imbalance(&self.serviced_last)
    }

    /// Heap allocations made in `phase` on the last (steady-state) step,
    /// summed over ranks. Deterministic for a fixed configuration.
    pub fn last_step_allocs(&self, phase: Phase) -> u64 {
        self.alloc_records
            .iter()
            .filter_map(|recs| recs.last())
            .map(|a| a.allocs[phase as usize])
            .sum()
    }
}

/// Per-rank return value collected by `run_case`.
struct RankReturn {
    phase_elapsed: [f64; NUM_PHASES],
    state_sum_sq: f64,
    state_count: usize,
    states: Vec<NodeState>,
    igbps_last: usize,
    serviced_last: usize,
    orphans_last: usize,
    repartitions: usize,
    np_final: Vec<usize>,
}

// On a process transport each rank's return value crosses a socket; `Ijk`
// is foreign to the comm crate, so the states are encoded inline as three
// indices per cell. Field order is the wire schema.
impl Wire for RankReturn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.phase_elapsed.encode(out);
        self.state_sum_sq.encode(out);
        self.state_count.encode(out);
        (self.states.len() as u64).encode(out);
        for (grid, cell, q) in &self.states {
            grid.encode(out);
            cell.i.encode(out);
            cell.j.encode(out);
            cell.k.encode(out);
            q.encode(out);
        }
        self.igbps_last.encode(out);
        self.serviced_last.encode(out);
        self.orphans_last.encode(out);
        self.repartitions.encode(out);
        self.np_final.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let phase_elapsed = <[f64; NUM_PHASES]>::decode(r)?;
        let state_sum_sq = f64::decode(r)?;
        let state_count = usize::decode(r)?;
        let n = r.len_prefix()?;
        let mut states = Vec::with_capacity(n.min(r.remaining().max(16)));
        for _ in 0..n {
            let grid = usize::decode(r)?;
            let cell =
                overset_grid::Ijk::new(usize::decode(r)?, usize::decode(r)?, usize::decode(r)?);
            states.push((grid, cell, <[f64; 5]>::decode(r)?));
        }
        Ok(RankReturn {
            phase_elapsed,
            state_sum_sq,
            state_count,
            states,
            igbps_last: usize::decode(r)?,
            serviced_last: usize::decode(r)?,
            orphans_last: usize::decode(r)?,
            repartitions: usize::decode(r)?,
            np_final: Vec::<usize>::decode(r)?,
        })
    }
}

/// Minimum subdomain widths per grid for partition-count repair: a periodic
/// O-grid needs every `i`-piece to keep at least 2 nodes, because the seam
/// piece drops the duplicated wrap node from its cyclic solve.
fn grid_min_widths(grids: &[CurvilinearGrid]) -> Vec<[usize; 3]> {
    grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect()
}

/// Run a case on `nranks` ranks of `machine`. Deterministic in virtual time.
///
/// Configuration errors (an infeasible partition, a malformed search
/// hierarchy) are reported before any rank thread spawns. A panic inside a
/// rank body (an internal invariant violation, not bad input) surfaces as
/// [`OversetError::RankPanicked`] naming the rank and phase, with every
/// peer unblocked — never a hang or an opaque scope abort.
pub fn run_case(
    cfg: &CaseConfig,
    nranks: usize,
    machine: &MachineModel,
) -> Result<RunResult, OversetError> {
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let initial = static_balance(&sizes, nranks)?;
    // At large NP Algorithm 1 can hand a grid a subdomain count the
    // prime-factor splitter cannot realize (e.g. a prime larger than every
    // index dimension) or slice a periodic O-grid so thin its seam
    // subdomain holds only the duplicated wrap node; repair the counts
    // before partitioning.
    let min_widths = grid_min_widths(&cfg.grids);
    let np = fit_np_to_dims_min(&sizes, &dims, &initial.np, &min_widths)?;
    let base_partition = Partition::build(&dims, &np);
    // Validate the search hierarchy once up front; per-rank rebuilds after a
    // repartition reuse the same (already validated) hierarchy.
    build_topology(&base_partition, &cfg.search_order)?;

    let mut builder = Universe::builder()
        .ranks(nranks)
        .machine(machine)
        .trace(cfg.trace.clone())
        .transport(cfg.transport.clone());
    if let Some(n) = cfg.max_threads {
        builder = builder.max_threads(n);
    }
    let outputs =
        builder.try_run(|comm| run_rank(cfg, &sizes, &dims, base_partition.clone(), comm))?;
    Ok(assemble(cfg, outputs))
}

/// Fold the per-rank outputs of either driver into one [`RunResult`].
fn assemble(cfg: &CaseConfig, outputs: Vec<RankOutput<RankReturn>>) -> RunResult {
    let rank_stats: Vec<RankStats> = outputs.iter().map(|o| o.stats.clone()).collect();
    let summary = PerfSummary::from_ranks(&rank_stats);
    let mut metrics = MetricsRegistry::new();
    for o in &outputs {
        metrics.merge_from(&o.metrics);
    }
    let trace: Vec<RankTrace> = if cfg.trace.enabled {
        outputs
            .iter()
            .enumerate()
            .map(|(rank, o)| RankTrace { rank, events: o.trace.clone() })
            .collect()
    } else {
        Vec::new()
    };
    let sum_sq: f64 = outputs.iter().map(|o| o.result.state_sum_sq).sum();
    let count: usize = outputs.iter().map(|o| o.result.state_count).sum();
    let r0 = &outputs[0].result;
    let states = outputs.iter().flat_map(|o| o.result.states.iter().copied()).collect();
    let step_records: Vec<Vec<StepRecord>> = outputs.iter().map(|o| o.steps.clone()).collect();
    let steps_dropped: u64 = outputs.iter().map(|o| o.steps_dropped).sum();
    let host_phase_elapsed = host_phase_max(outputs.iter().map(|o| &o.host_time));
    let host_phase_by_rank: Vec<[f64; NUM_PHASES]> = outputs.iter().map(|o| o.host_time).collect();
    let alloc_by_rank: Vec<AllocTotals> = outputs.iter().map(|o| o.alloc).collect();
    let alloc_records: Vec<Vec<AllocRecord>> =
        outputs.iter().map(|o| o.alloc_steps.clone()).collect();
    RunResult {
        nranks: outputs.len(),
        states,
        state_rms: (sum_sq / count.max(1) as f64).sqrt(),
        steps: cfg.steps,
        total_points: cfg.total_points(),
        phase_elapsed: r0.phase_elapsed,
        wall_time: summary.wall_time,
        igbps_last: outputs.iter().map(|o| o.result.igbps_last).sum(),
        serviced_last: outputs.iter().map(|o| o.result.serviced_last).collect(),
        orphans_last: outputs.iter().map(|o| o.result.orphans_last).sum(),
        repartitions: r0.repartitions,
        np_final: r0.np_final.clone(),
        rank_stats,
        trace,
        metrics,
        step_records,
        steps_dropped,
        host_phase_elapsed,
        host_phase_by_rank,
        alloc_by_rank,
        alloc_records,
        summary,
    }
}

/// Physics checksum over the owned field nodes of `blocks` — sum of
/// squares and node count, in block then node order — plus the node states
/// themselves (grid, global index, conserved vector) when `collect` is set.
fn gather_state<'a>(
    blocks: impl IntoIterator<Item = &'a overset_solver::Block>,
    collect: bool,
) -> (f64, usize, Vec<NodeState>) {
    let mut sum_sq = 0.0f64;
    let mut count = 0usize;
    let mut states = Vec::new();
    for block in blocks {
        for p in block.owned_local().iter() {
            if block.iblank[p] != overset_solver::Blank::Field {
                continue;
            }
            let q = block.q.node(p);
            sum_sq += q.iter().map(|v| v * v).sum::<f64>();
            count += 1;
            if collect {
                states.push((block.grid_id, block.to_global(p), *q));
            }
        }
    }
    (sum_sq, count, states)
}

/// Per-phase host wall-clock elapsed: max over ranks, since the slowest
/// rank bounds real time the way the barrier does in virtual time.
fn host_phase_max<'a>(ranks: impl Iterator<Item = &'a [f64; NUM_PHASES]>) -> [f64; NUM_PHASES] {
    let mut out = [0.0f64; NUM_PHASES];
    for h in ranks {
        for (o, &x) in out.iter_mut().zip(h.iter()) {
            *o = o.max(x);
        }
    }
    out
}

/// One rank's SPMD body.
fn run_rank(
    cfg: &CaseConfig,
    sizes: &[usize],
    dims: &[Dims],
    mut partition: Partition,
    comm: &mut Comm,
) -> RankReturn {
    let me = comm.rank();
    let fc = cfg.fc;
    let ngrids = cfg.grids.len();

    // Replicated motion state: every rank steps every motion so cumulative
    // transforms and solid positions stay in sync without communication.
    // 6-DOF bodies additionally need the aerodynamic loads, which are
    // integrated locally over each rank's wall patches and allreduce-summed
    // (deterministic rank-ordered sum), so the replicated rigid-body states
    // remain bitwise identical on every rank.
    let mut motions: Vec<BodyMotion> = cfg.motions.clone();
    let mut cumulative: Vec<RigidTransform> = vec![RigidTransform::IDENTITY; ngrids];
    let mut solids: Vec<(usize, Solid)> = cfg
        .grids
        .iter()
        .enumerate()
        .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
        .collect();

    // Inputs were validated by `run_case` before the threads spawned: a
    // failure here is an internal invariant violation, not bad input.
    let (mut block, mut wall) = build_block(me, &partition, &cfg.grids, &cumulative, &fc)
        .unwrap_or_else(|e| panic!("rank {me}: {e}"));
    let mut scratch = Scratch::for_block(&block);
    scratch.sweep.isa = overset_solver::select_isa(cfg.use_simd);
    let mut topo =
        build_topology(&partition, &cfg.search_order).unwrap_or_else(|e| panic!("rank {me}: {e}"));
    let mut cache = DonorCache::new();
    // Inverse-map lifecycle: build lazily in the connectivity phase, reuse
    // across steps, and mark dirty whenever this rank's grid moves or the
    // block is rebuilt by a repartition.
    let mut inv: Option<InverseMap> = None;
    let mut inv_dirty = true;
    // Rigid motion applied to this rank's grid since the inverse map was
    // last brought up to date — the candidate for an incremental `advance`.
    let mut pending_motion: Option<RigidTransform> = None;
    // Step-scoped connectivity scratch. With `use_arena` the buffers keep
    // their capacity across steps; the ablation replaces the arena each
    // step (same code path, cold buffers), so only allocation counts
    // change — never results or virtual times.
    let mut arena = ConnArena::new();
    arena.isa = overset_solver::select_isa(cfg.use_simd);
    // Recycled halo-exchange buffers, same lifecycle as the arena.
    let mut halo_pool: VecPool<f64> = VecPool::new();

    let mut last_step_transform: Vec<Option<RigidTransform>> = vec![None; ngrids];
    let mut phase_elapsed = [0.0f64; NUM_PHASES];
    // I(p) over the current balance window, read from the metrics registry
    // (the single source of truth for service load).
    let mut svc = ServiceWindow::begin(comm.metrics());
    let mut repartitions = 0usize;
    let mut last_conn = Default::default();
    let mut igbps_last = 0usize;

    comm.set_working_set(block.working_set_bytes());
    comm.barrier();

    for step in 0..cfg.steps {
        // ---- Phase 1: flow solve -------------------------------------
        {
            let mut ph = comm.phase(Phase::Flow);
            let t0 = ph.now();
            {
                let mut mp = MpSolverComm { comm: &mut ph, halo_pool: &mut halo_pool };
                mp.exchange_halo(&mut block);
                if block.turbulent && block.viscous {
                    if let Some(w) = &wall {
                        let flops = compute_mu_t(&mut block, w);
                        mp.comm.compute(flops as f64, WorkClass::Flow);
                    }
                }
                let flops = compute_residual(&block, &fc, &mut scratch.res);
                mp.comm.compute(flops as f64, WorkClass::Flow);
                for v in scratch.res.as_mut_slice() {
                    *v *= fc.dt;
                }
                implicit_sweeps(&block, &fc, &mut scratch.res, &mut mp, &mut scratch.sweep);
                // Update field nodes.
                let ow = block.owned_local();
                let mut update_flops = 0u64;
                for p in ow.iter().collect::<Vec<_>>() {
                    if block.iblank[p] != overset_solver::Blank::Field {
                        continue;
                    }
                    update_flops += 5;
                    let dq = *scratch.res.node(p);
                    let q = block.q.node_mut(p);
                    for v in 0..5 {
                        q[v] += dq[v];
                    }
                    overset_solver::conditions::enforce_positivity(q);
                }
                mp.comm.compute(update_flops as f64, WorkClass::Flow);
                let bc_flops = apply_bcs(&mut block, &fc);
                mp.comm.compute(bc_flops as f64, WorkClass::Flow);
            }
            ph.barrier();
            phase_elapsed[Phase::Flow as usize] += ph.now() - t0;
        }

        // ---- Phase 2: grid motion ------------------------------------
        {
            let mut ph = comm.phase(Phase::Motion);
            let t0 = ph.now();
            for body in motions.iter_mut() {
                // 6-DOF bodies: integrate aerodynamic loads over this rank's
                // wall patches of the body's grids, then allreduce. Every rank
                // participates in the collective (zero contribution if it owns
                // no wall of this body).
                let aero = if body.needs_aero() {
                    let mut local = Loads::ZERO;
                    if body.grids.contains(&block.grid_id) {
                        let refp = body.moment_reference();
                        let mut flops = 0u64;
                        for face in 0..6 {
                            if let Some((nu, nv, coords, press)) =
                                overset_solver::bc::wall_surface(&block, face)
                            {
                                // Gauge pressure: open per-grid patches must not
                                // feel the uniform freestream.
                                let p_inf = overset_solver::conditions::pressure(&fc.freestream());
                                let gauge: Vec<f64> = press.iter().map(|p| p - p_inf).collect();
                                let l = overset_motion::integrate_surface_loads(
                                    nu, nv, &coords, &gauge, refp, 1.0,
                                );
                                local = local.add(&l);
                                flops += (nu * nv) as u64 * 30;
                            }
                        }
                        ph.compute(flops as f64, WorkClass::Other);
                    }
                    let flat = [
                        local.force[0],
                        local.force[1],
                        local.force[2],
                        local.moment[0],
                        local.moment[1],
                        local.moment[2],
                    ];
                    let all: Vec<[f64; 6]> = ph.allgather(flat, 48);
                    let mut sum = [0.0f64; 6];
                    for a in &all {
                        for i in 0..6 {
                            sum[i] += a[i];
                        }
                    }
                    Loads { force: [sum[0], sum[1], sum[2]], moment: [sum[3], sum[4], sum[5]] }
                } else {
                    Loads::ZERO
                };
                let t = body.motion.step(fc.dt, &aero);
                for &g in &body.grids {
                    cumulative[g] = cumulative[g].then(&t);
                    for (sg, s) in solids.iter_mut() {
                        if *sg == g {
                            *s = s.transformed(&t);
                        }
                    }
                    last_step_transform[g] = Some(t);
                }
                if body.grids.contains(&block.grid_id) {
                    block.apply_motion(&t, fc.dt);
                    // Identity / below-epsilon motion must not mark the grid
                    // "moved": a pointless full inverse-map rebuild would
                    // follow. `apply_motion` still ran above — it refreshes
                    // the (zero) grid velocity — only the dirty-marking is
                    // skipped. Scale comes from the map's lattice box; with
                    // no map yet, only an exact identity is skippable.
                    let negligible = match &inv {
                        Some(m) => t.is_negligible_for(&m.bounds()),
                        None => t.is_identity(),
                    };
                    if !negligible {
                        inv_dirty = true;
                        pending_motion = Some(match &pending_motion {
                            Some(prev) => prev.then(&t),
                            None => t,
                        });
                    }
                    if let Some(w) = &mut wall {
                        for p in &mut w.wall_xyz {
                            *p = t.apply(*p);
                        }
                    }
                    // Re-apply wall BCs with the *new* grid velocity: the wall
                    // state must move with the wall, otherwise the stale no-slip
                    // velocity acts as an impulsive slip over the tiny wall
                    // cells.
                    let bc_flops = apply_bcs(&mut block, &fc);
                    ph.compute(bc_flops as f64, WorkClass::Other);
                }
                ph.compute(500.0, WorkClass::Other);
            }
            ph.barrier();
            phase_elapsed[Phase::Motion as usize] += ph.now() - t0;
        }

        // ---- Phase 3: domain connectivity ----------------------------
        {
            let mut ph = comm.phase(Phase::Connectivity);
            let t0 = ph.now();
            if !cfg.use_arena {
                // Ablation: cold buffers every step, identical code path.
                arena = ConnArena::new();
                arena.isa = overset_solver::select_isa(cfg.use_simd);
                halo_pool = VecPool::new();
            }
            {
                let mut mp = MpSolverComm { comm: &mut ph, halo_pool: &mut halo_pool };
                mp.exchange_halo(&mut block);
            }
            if cfg.use_inverse_map {
                if inv_dirty {
                    // Prefer the incremental path: compose the step's rigid
                    // motion into the existing map's pose instead of
                    // rebuilding the lattice. `advance` refuses (and leaves
                    // the map untouched) when the accumulated pose would
                    // inflate the world routing box past its threshold.
                    let advanced = cfg.use_incremental_invmap
                        && match (inv.as_mut(), pending_motion.as_ref()) {
                            (Some(m), Some(t)) => m.advance(t),
                            _ => false,
                        };
                    if advanced {
                        ph.compute(FLOPS_PER_INCR_UPDATE as f64, WorkClass::Search);
                        ph.metrics_mut().inc(names::CONN_INVMAP_INCR);
                    } else {
                        let m = InverseMap::build(&block);
                        ph.compute(m.build_flops() as f64, WorkClass::Search);
                        ph.metrics_mut().inc(names::CONN_INVMAP_BUILDS);
                        inv = Some(m);
                    }
                    inv_dirty = false;
                    pending_motion = None;
                }
            } else {
                inv = None;
            }
            let (igbps, hole_flops) =
                cut_holes_and_find_fringe_arena(&mut block, &solids, inv.as_ref(), &mut arena);
            ph.compute(hole_flops as f64, WorkClass::Search);
            if !cfg.use_restart {
                cache.clear();
            }
            let stats = connect_distributed_arena(
                &mut block,
                &igbps,
                &topo,
                &mut cache,
                &mut ph,
                inv.as_ref(),
                &mut arena,
            );
            last_conn = stats;
            igbps_last = igbps.len();
            arena.recycle_igbps(igbps);
            svc.note_step();
            if cfg.inject_alloc > 0 {
                // Synthetic host-cost regression for gate tests: one extra
                // heap allocation per step, attributed to this phase.
                std::hint::black_box(vec![0u8; cfg.inject_alloc]);
            }
            ph.barrier();
            phase_elapsed[Phase::Connectivity as usize] += ph.now() - t0;
        }

        // ---- Phase 4: dynamic load balance check (Algorithm 2) -------
        let check = cfg.lb.fo.is_finite()
            && cfg.lb.check_interval != usize::MAX
            && (step + 1) % cfg.lb.check_interval == 0
            && step + 1 < cfg.steps;
        if check {
            let mut ph = comm.phase(Phase::Balance);
            let t0 = ph.now();
            let mean_i = svc.mean_per_step(ph.metrics());
            let all_i: Vec<usize> = ph.allgather(mean_i, 8);
            let decision = dynamic_rebalance(
                &all_i,
                &partition.grid_of_rank_vec(),
                sizes,
                &partition.np,
                cfg.lb.fo,
            )
            .unwrap_or_else(|e| panic!("rank {me}: dynamic rebalance failed: {e}"));
            ph.metrics_mut().observe(names::LB_F_RATIO, decision.f[me]);
            if let Some(rb) = decision.rebalance {
                // Deterministic repair: every rank computes the same counts.
                let np = fit_np_to_dims_min(sizes, dims, &rb.np, &grid_min_widths(&cfg.grids))
                    .unwrap_or_else(|e| panic!("rank {me}: rebalance infeasible: {e}"));
                let new_partition = Partition::build(dims, &np);
                let (mut new_block, new_wall) =
                    build_block(me, &new_partition, &cfg.grids, &cumulative, &fc)
                        .unwrap_or_else(|e| panic!("rank {me}: {e}"));
                redistribute_state(&block, &mut new_block, &partition, &new_partition, &mut ph);
                block = new_block;
                wall = new_wall;
                scratch = Scratch::for_block(&block);
                scratch.sweep.isa = overset_solver::select_isa(cfg.use_simd);
                partition = new_partition;
                topo = build_topology(&partition, &cfg.search_order)
                    .unwrap_or_else(|e| panic!("rank {me}: {e}"));
                // Donor cells survive a repartition; only their owning
                // ranks changed. Remap instead of cold-restarting the
                // whole connectivity solution.
                let part_ref = &partition;
                let gd: Vec<overset_grid::Dims> = dims.to_vec();
                cache.remap_ranks(move |grid, cell| {
                    let d = gd[grid];
                    let clamped = overset_grid::Ijk::new(
                        cell.i.min(d.ni - 1),
                        cell.j.min(d.nj - 1),
                        cell.k.min(d.nk - 1),
                    );
                    part_ref.owner_of(grid, clamped)
                });
                ph.set_working_set(block.working_set_bytes());
                // The rebuilt block covers a different region: the inverse
                // map is stale until the next connectivity phase, and any
                // pending rigid motion refers to the old map's lattice.
                inv = None;
                inv_dirty = true;
                pending_motion = None;
                // Restore blanking on the new block immediately: the next
                // flow step must not treat redistributed hole values as
                // live field points. A throwaway arena: this one-off re-cut
                // must not change what the rank arena's pools hold when the
                // connectivity phase next runs.
                let (_, hole_flops) = cut_holes_and_find_fringe_arena(
                    &mut block,
                    &solids,
                    None,
                    &mut ConnArena::new(),
                );
                ph.compute(hole_flops as f64, WorkClass::Search);
                // Restore the ALE grid velocities of a moving grid (the
                // rebuilt block is at the current pose with zero velocity).
                if let Some(t) = &last_step_transform[block.grid_id] {
                    block.set_grid_velocity_from(t, fc.dt);
                }
                repartitions += 1;
                ph.metrics_mut().inc(names::LB_REPARTITIONS);
                ph.trace_complete(
                    "lb",
                    "repartition",
                    t0,
                    &[("f_max", ArgVal::F64(decision.f_max))],
                );
            }
            svc.reset(ph.metrics());
            ph.barrier();
            phase_elapsed[Phase::Balance as usize] += ph.now() - t0;
        }

        // Close the step for the flight recorder (reads counters only —
        // physics- and timing-neutral).
        comm.end_step();
    }

    // Physics checksum over owned field nodes.
    let _ph = comm.phase(Phase::Other);
    let (state_sum_sq, state_count, states) = gather_state([&block], cfg.collect_state);

    RankReturn {
        phase_elapsed,
        state_sum_sq,
        state_count,
        states,
        igbps_last,
        serviced_last: last_conn.serviced,
        orphans_last: last_conn.orphans,
        repartitions,
        np_final: partition.np.clone(),
    }
}

/// Run a case serially (one processor holding every grid) — the Cray Y-MP
/// baseline of Table 6 and the reference for parallel-equivalence tests.
pub fn run_case_serial(
    cfg: &CaseConfig,
    machine: &MachineModel,
) -> Result<RunResult, OversetError> {
    let ngrids = cfg.grids.len();
    let single =
        Partition::build(&cfg.grids.iter().map(|g| g.dims()).collect::<Vec<_>>(), &vec![1; ngrids]);
    // Same up-front hierarchy validation as the parallel path.
    build_topology(&single, &cfg.search_order)?;

    let outputs = Universe::builder().machine(machine).trace(cfg.trace.clone()).run(|comm| {
        let fc = cfg.fc;
        let mut motions = cfg.motions.clone();
        let mut solids: Vec<(usize, Solid)> = cfg
            .grids
            .iter()
            .enumerate()
            .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
            .collect();
        let mut blocks: Vec<overset_solver::Block> = Vec::with_capacity(ngrids);
        let mut walls = Vec::with_capacity(ngrids);
        let mut scratches = Vec::with_capacity(ngrids);
        let cum = vec![RigidTransform::IDENTITY; ngrids];
        for g in 0..ngrids {
            // Build each grid as a whole single block (ignore the partition
            // rank mapping; serial holds all of them).
            let (b, w) = build_block(single.start[g], &single, &cfg.grids, &cum, &fc)
                .unwrap_or_else(|e| panic!("{e}"));
            let mut sc = Scratch::for_block(&b);
            sc.sweep.isa = overset_solver::select_isa(cfg.use_simd);
            scratches.push(sc);
            blocks.push(b);
            walls.push(w);
        }
        let ws: f64 = blocks.iter().map(|b| b.working_set_bytes()).sum();
        comm.set_working_set(ws);
        let mut cache = SerialCache::new();
        // Per-grid inverse maps, rebuilt only for grids whose pose changed.
        let mut maps: Vec<InverseMap> = Vec::new();
        let mut moved: Vec<bool> = vec![true; ngrids];
        // Rigid motion accumulated per grid since its map was last brought
        // up to date (the incremental `advance` candidate).
        let mut pending_t: Vec<Option<RigidTransform>> = vec![None; ngrids];
        // Connectivity scratch, persistent across steps under `use_arena`.
        let mut arena = ConnArena::new();
        arena.isa = overset_solver::select_isa(cfg.use_simd);
        let mut phase_elapsed = [0.0f64; NUM_PHASES];
        let mut igbps_last = 0usize;
        let mut orphans_last = 0usize;

        for _step in 0..cfg.steps {
            {
                let mut ph = comm.phase(Phase::Flow);
                let t0 = ph.now();
                for g in 0..ngrids {
                    let rep = overset_solver::step_block(
                        &mut blocks[g],
                        &fc,
                        walls[g].as_ref(),
                        &mut SerialComm,
                        &mut scratches[g],
                    );
                    ph.compute(rep.flops as f64, WorkClass::Flow);
                }
                phase_elapsed[Phase::Flow as usize] += ph.now() - t0;
            }

            {
                let mut ph = comm.phase(Phase::Motion);
                let t0 = ph.now();
                for body in motions.iter_mut() {
                    let aero = if body.needs_aero() {
                        let refp = body.moment_reference();
                        let p_inf = overset_solver::conditions::pressure(&fc.freestream());
                        let mut total = Loads::ZERO;
                        let mut flops = 0u64;
                        for &g in &body.grids {
                            for face in 0..6 {
                                if let Some((nu, nv, coords, press)) =
                                    overset_solver::bc::wall_surface(&blocks[g], face)
                                {
                                    let gauge: Vec<f64> = press.iter().map(|p| p - p_inf).collect();
                                    let l = overset_motion::integrate_surface_loads(
                                        nu, nv, &coords, &gauge, refp, 1.0,
                                    );
                                    total = total.add(&l);
                                    flops += (nu * nv) as u64 * 30;
                                }
                            }
                        }
                        ph.compute(flops as f64, WorkClass::Other);
                        total
                    } else {
                        Loads::ZERO
                    };
                    let t = body.motion.step(fc.dt, &aero);
                    for &g in &body.grids {
                        for (sg, s) in solids.iter_mut() {
                            if *sg == g {
                                *s = s.transformed(&t);
                            }
                        }
                        blocks[g].apply_motion(&t, fc.dt);
                        // Identity / below-epsilon motion: don't mark the
                        // grid moved (see the parallel driver's rationale).
                        let negligible = if maps.len() == ngrids {
                            t.is_negligible_for(&maps[g].bounds())
                        } else {
                            t.is_identity()
                        };
                        if !negligible {
                            moved[g] = true;
                            pending_t[g] = Some(match &pending_t[g] {
                                Some(prev) => prev.then(&t),
                                None => t,
                            });
                        }
                        if let Some(w) = &mut walls[g] {
                            for p in &mut w.wall_xyz {
                                *p = t.apply(*p);
                            }
                        }
                        // Keep the wall state consistent with the new velocity.
                        let bc_flops = apply_bcs(&mut blocks[g], &fc);
                        ph.compute(bc_flops as f64, WorkClass::Other);
                    }
                }
                phase_elapsed[Phase::Motion as usize] += ph.now() - t0;
            }

            {
                let mut ph = comm.phase(Phase::Connectivity);
                let t0 = ph.now();
                if !cfg.use_arena {
                    // Ablation: cold buffers every step, same code path.
                    arena = ConnArena::new();
                    arena.isa = overset_solver::select_isa(cfg.use_simd);
                }
                let stats = if cfg.use_inverse_map {
                    let mut build_flops = 0u64;
                    if maps.len() != ngrids {
                        maps = blocks.iter().map(InverseMap::build).collect();
                        build_flops = maps.iter().map(|m| m.build_flops()).sum();
                        ph.metrics_mut().add(names::CONN_INVMAP_BUILDS, ngrids as u64);
                        moved.iter_mut().for_each(|f| *f = false);
                        pending_t.iter_mut().for_each(|p| *p = None);
                    } else {
                        for g in 0..ngrids {
                            if !moved[g] {
                                continue;
                            }
                            // Incremental pose advance when enabled and the
                            // accumulated motion is small enough; full
                            // rebuild otherwise.
                            let advanced = cfg.use_incremental_invmap
                                && match pending_t[g].as_ref() {
                                    Some(t) => maps[g].advance(t),
                                    None => false,
                                };
                            if advanced {
                                build_flops += FLOPS_PER_INCR_UPDATE;
                                ph.metrics_mut().inc(names::CONN_INVMAP_INCR);
                            } else {
                                maps[g] = InverseMap::build(&blocks[g]);
                                build_flops += maps[g].build_flops();
                                ph.metrics_mut().inc(names::CONN_INVMAP_BUILDS);
                            }
                            moved[g] = false;
                            pending_t[g] = None;
                        }
                    }
                    ph.compute(build_flops as f64, WorkClass::Search);
                    connect_serial_arena(
                        &mut blocks,
                        &cfg.search_order,
                        &solids,
                        &mut cache,
                        Some(&maps),
                        &mut arena,
                    )
                } else {
                    connect_serial_arena(
                        &mut blocks,
                        &cfg.search_order,
                        &solids,
                        &mut cache,
                        None,
                        &mut arena,
                    )
                };
                ph.compute(stats.flops as f64, WorkClass::Search);
                ph.metrics_mut().add(names::CONN_SERVICED, stats.igbps as u64);
                ph.metrics_mut().add(names::CONN_WALK_STEPS, stats.walk_steps);
                igbps_last = stats.igbps;
                orphans_last = stats.orphans;
                if cfg.inject_alloc > 0 {
                    std::hint::black_box(vec![0u8; cfg.inject_alloc]);
                }
                phase_elapsed[Phase::Connectivity as usize] += ph.now() - t0;
            }
            comm.end_step();
        }
        let _ph = comm.phase(Phase::Other);
        let (state_sum_sq, state_count, states) = gather_state(&blocks, cfg.collect_state);
        RankReturn {
            phase_elapsed,
            state_sum_sq,
            state_count,
            states,
            igbps_last,
            serviced_last: igbps_last,
            orphans_last,
            repartitions: 0,
            np_final: vec![1; ngrids],
        }
    });
    Ok(assemble(cfg, outputs))
}
