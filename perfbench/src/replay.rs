//! The traced replay: `run_case_serial`'s timestep loop (every grid one
//! block, one thread) rebuilt from the crates' public functions, with a
//! span around each layer call. It must reproduce the serial driver bit
//! for bit; [`ReplayResult::matches`] is that check.

use crate::trace::Recorder;
use overflow_d::setup::build_block;
use overflow_d::{CaseConfig, RunResult};
use overset_balance::Partition;
use overset_comm::metrics::names;
use overset_connectivity::{connect_serial_arena, ConnArena, InverseMap, SerialCache};
use overset_grid::curvilinear::Solid;
use overset_grid::transform::RigidTransform;
use overset_grid::Dims;
use overset_motion::Loads;
use overset_solver::adi::implicit_sweeps;
use overset_solver::bc::apply_bcs;
use overset_solver::conditions::enforce_positivity;
use overset_solver::rhs::{compute_residual, residual_l2};
use overset_solver::turbulence::compute_mu_t;
use overset_solver::{select_isa, Blank, Scratch, SerialComm, SolverComm};

/// Counter names recorded at the span boundaries.
pub const SOLVER_FLOPS: &str = "solver.flops";
pub const WALK_STEPS: &str = "connectivity.walk_steps";
pub const IGBPS: &str = "connectivity.igbps";
pub const INVMAP_BUILDS: &str = "connectivity.invmap_builds";
pub const INVMAP_ADVANCES: &str = "connectivity.invmap_advances";

/// Outputs of one replay compared against `run_case_serial`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayResult {
    pub state_rms: f64,
    pub walk_steps: u64,
    pub invmap_builds: u64,
    pub invmap_advances: u64,
    pub igbps_last: usize,
    pub orphans_last: usize,
}

impl ReplayResult {
    /// Bit-for-bit agreement with the serial driver's run of the same case.
    pub fn matches(&self, serial: &RunResult) -> Result<(), String> {
        let expect = ReplayResult {
            state_rms: serial.state_rms,
            walk_steps: serial.metrics.counter(names::CONN_WALK_STEPS),
            invmap_builds: serial.metrics.counter(names::CONN_INVMAP_BUILDS),
            invmap_advances: serial.metrics.counter(names::CONN_INVMAP_INCR),
            igbps_last: serial.igbps_last,
            orphans_last: serial.orphans_last,
        };
        if self.state_rms.to_bits() == expect.state_rms.to_bits() && *self == expect {
            Ok(())
        } else {
            Err(format!("replay {self:?} differs from run_case_serial {expect:?}"))
        }
    }
}

/// Replay `cfg` on one thread, recording into `rec` one `step` span per
/// timestep with `flow`, `motion` and `connectivity` phase spans and the
/// layer spans below them.
pub fn replay(cfg: &CaseConfig, rec: &mut Recorder) -> Result<ReplayResult, String> {
    if cfg.motions.iter().any(|b| b.needs_aero()) {
        return Err("the replay covers prescribed motion only".into());
    }
    if !cfg.use_inverse_map || !cfg.use_arena {
        return Err("the replay covers the default inverse-map and arena settings only".into());
    }
    let fc = cfg.fc;
    let ngrids = cfg.grids.len();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let single = Partition::build(&dims, &vec![1; ngrids]);
    let isa = select_isa(cfg.use_simd);
    let mut motions = cfg.motions.clone();
    let mut solids: Vec<(usize, Solid)> = cfg
        .grids
        .iter()
        .enumerate()
        .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
        .collect();
    let cum = vec![RigidTransform::IDENTITY; ngrids];
    let mut blocks = Vec::with_capacity(ngrids);
    let mut walls = Vec::with_capacity(ngrids);
    let mut scratches = Vec::with_capacity(ngrids);
    for g in 0..ngrids {
        let (b, w) = build_block(single.start[g], &single, &cfg.grids, &cum, &fc)
            .map_err(|e| e.to_string())?;
        let mut sc = Scratch::for_block(&b);
        sc.sweep.isa = isa;
        scratches.push(sc);
        blocks.push(b);
        walls.push(w);
    }
    let mut cache = SerialCache::new();
    let mut maps: Vec<InverseMap> = Vec::new();
    let mut moved = vec![true; ngrids];
    let mut pending_t: Vec<Option<RigidTransform>> = vec![None; ngrids];
    let mut arena = ConnArena::new();
    arena.isa = isa;
    let mut igbps_last = 0;
    let mut orphans_last = 0;

    for _ in 0..cfg.steps {
        let step = rec.open("step");

        // Flow: `step_block` on each grid, one span per kernel.
        let flow = rec.open("flow");
        for ((block, sc), wall) in blocks.iter_mut().zip(&mut scratches).zip(&walls) {
            let mut flops = 0;
            rec.span("solver.update_bc", || SerialComm.exchange_halo(block));
            if block.turbulent && block.viscous {
                if let Some(w) = wall {
                    flops += rec.span("solver.turbulence", || compute_mu_t(block, w));
                }
            }
            flops += rec.span("solver.rhs", || {
                let f = compute_residual(block, &fc, &mut sc.res);
                std::hint::black_box(residual_l2(block, &sc.res));
                f
            });
            flops += rec.span("solver.sweeps", || {
                for v in sc.res.as_mut_slice() {
                    *v *= fc.dt;
                }
                implicit_sweeps(block, &fc, &mut sc.res, &mut SerialComm, &mut sc.sweep)
            });
            flops += rec.span("solver.update_bc", || {
                for p in block.owned_local().iter() {
                    if block.iblank[p] != Blank::Field {
                        continue;
                    }
                    let dq = *sc.res.node(p);
                    let q = block.q.node_mut(p);
                    for (qv, dv) in q.iter_mut().zip(dq) {
                        *qv += dv;
                    }
                    enforce_positivity(q);
                }
                apply_bcs(block, &fc)
            });
            rec.count(SOLVER_FLOPS, flops);
        }
        rec.close(flow);

        rec.span("motion", || {
            for body in motions.iter_mut() {
                let t = body.motion.step(fc.dt, &Loads::ZERO);
                for &g in &body.grids {
                    for (sg, s) in solids.iter_mut() {
                        if *sg == g {
                            *s = s.transformed(&t);
                        }
                    }
                    blocks[g].apply_motion(&t, fc.dt);
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
                    apply_bcs(&mut blocks[g], &fc);
                }
            }
        });

        let conn = rec.open("connectivity");
        let (builds, advances) = rec.span("connectivity.invmap", || {
            let (mut builds, mut advances) = (0u64, 0u64);
            if maps.len() != ngrids {
                maps = blocks.iter().map(InverseMap::build).collect();
                builds += ngrids as u64;
                moved.iter_mut().for_each(|f| *f = false);
                pending_t.iter_mut().for_each(|p| *p = None);
            } else {
                for g in 0..ngrids {
                    if !moved[g] {
                        continue;
                    }
                    let advanced = cfg.use_incremental_invmap
                        && pending_t[g].as_ref().is_some_and(|t| maps[g].advance(t));
                    if advanced {
                        advances += 1;
                    } else {
                        maps[g] = InverseMap::build(&blocks[g]);
                        builds += 1;
                    }
                    moved[g] = false;
                    pending_t[g] = None;
                }
            }
            (builds, advances)
        });
        rec.count(INVMAP_BUILDS, builds);
        rec.count(INVMAP_ADVANCES, advances);
        let stats = rec.span("connectivity.connect", || {
            connect_serial_arena(
                &mut blocks,
                &cfg.search_order,
                &solids,
                &mut cache,
                Some(&maps),
                &mut arena,
            )
        });
        rec.count(WALK_STEPS, stats.walk_steps);
        rec.count(IGBPS, stats.igbps as u64);
        igbps_last = stats.igbps;
        orphans_last = stats.orphans;
        rec.close(conn);
        rec.close(step);
    }

    let mut sum_sq = 0.0f64;
    let mut count = 0usize;
    for b in &blocks {
        for p in b.owned_local().iter() {
            if b.iblank[p] != Blank::Field {
                continue;
            }
            sum_sq += b.q.node(p).iter().map(|v| v * v).sum::<f64>();
            count += 1;
        }
    }
    let counts = rec.counts();
    Ok(ReplayResult {
        state_rms: (sum_sq / count.max(1) as f64).sqrt(),
        walk_steps: counts.get(WALK_STEPS).copied().unwrap_or(0),
        invmap_builds: counts.get(INVMAP_BUILDS).copied().unwrap_or(0),
        invmap_advances: counts.get(INVMAP_ADVANCES).copied().unwrap_or(0),
        igbps_last,
        orphans_last,
    })
}
