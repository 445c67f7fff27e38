//! The benchmark's workloads — the paper's three cases at quick effort on
//! the IBM-SP2 machine model — their seed-derived motion phase offset, and
//! the timed mirror of `run_case`'s set-up sequence.

use overflow_d::setup::{build_block, build_topology};
use overflow_d::{airfoil_case, delta_wing_case, store_case, CaseConfig, LbConfig};
use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
use overset_grid::transform::RigidTransform;
use overset_grid::Dims;
use overset_motion::Motion;

use crate::sys::process_cpu_s;

/// One named workload: a case, a rank count and a load-balance setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Oscillating NACA 0012, 3 grids, 6 ranks, static balance.
    Airfoil6,
    /// Finned-store separation, 16 grids, 18 ranks, dynamic balance
    /// (f_o = 3, checked every 4 steps).
    StoreDynlb18,
    /// Descending delta wing, 4 grids, 7 ranks, static balance.
    Delta7,
}

/// Exclusive upper bound of the motion phase offset, in timesteps.
pub const MAX_PHASE_OFFSET: u64 = 8;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Airfoil6, Workload::StoreDynlb18, Workload::Delta7];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Airfoil6 => "airfoil-6",
            Workload::StoreDynlb18 => "store-dynlb-18",
            Workload::Delta7 => "delta-7",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn nranks(self) -> usize {
        match self {
            Workload::Airfoil6 => 6,
            Workload::StoreDynlb18 => 18,
            Workload::Delta7 => 7,
        }
    }

    /// The paper case at `repro`'s quick effort, exactly as `repro report
    /// table1 --quick` (airfoil, dynamic-LB store) and `repro table3
    /// --quick` (delta wing) build it.
    fn paper_case(self) -> CaseConfig {
        match self {
            Workload::Airfoil6 => airfoil_case(0.6, 10),
            Workload::StoreDynlb18 => {
                let mut c = store_case(0.55, 10);
                c.lb = LbConfig::dynamic(3.0, 4);
                c
            }
            Workload::Delta7 => delta_wing_case(0.55, 5),
        }
    }

    /// The case for `seed`, run with ranks multiplexed onto `threads` OS
    /// threads over the in-process transport. Seed 0 is the paper case.
    pub fn case(self, seed: u64, threads: usize) -> CaseConfig {
        let mut cfg = self.paper_case();
        apply_phase_offset(&mut cfg, phase_offset_steps(seed));
        cfg.max_threads = Some(threads);
        cfg
    }
}

/// Timesteps the prescribed motion is advanced before the run: 0 for seed
/// 0, otherwise a hash of the seed below [`MAX_PHASE_OFFSET`].
pub fn phase_offset_steps(seed: u64) -> usize {
    if seed == 0 {
        return 0;
    }
    // splitmix64 finalizer: nearby seeds map to unrelated offsets.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % MAX_PHASE_OFFSET) as usize
}

/// Advance every prescribed motion `steps` timesteps: its `time` moves
/// on, and its grids (with their solids) are placed at the pose the motion
/// reaches by then. Moving the grids too is what makes the offset matter
/// for a constant-velocity descent, whose increments do not depend on
/// `time`.
fn apply_phase_offset(cfg: &mut CaseConfig, steps: usize) {
    if steps == 0 {
        return;
    }
    let dt = cfg.fc.dt;
    for body in &mut cfg.motions {
        let Motion::Prescribed(p) = &mut body.motion else { continue };
        let mut pose = RigidTransform::IDENTITY;
        for _ in 0..steps {
            pose = pose.then(&p.step(dt));
        }
        for &g in &body.grids {
            cfg.grids[g].apply_transform(&pose);
        }
    }
}

/// Host CPU seconds of one set-up, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Case construction: grid generation and the phase offset.
    pub generate_s: f64,
    /// Algorithm 1, partition-count repair, partitioning and topology.
    pub balance_s: f64,
    /// Every rank's `build_block`.
    pub build_block_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.balance_s + self.build_block_s
    }
}

/// Build the case and replay `run_case`'s set-up on it (static balance,
/// count repair, partition, topology, every rank's block), timing each
/// layer. Returns the case for the timed runs.
pub fn timed_setup(
    w: Workload,
    seed: u64,
    threads: usize,
) -> Result<(CaseConfig, SetupTimes), String> {
    let t0 = process_cpu_s();
    let cfg = w.case(seed, threads);
    let t1 = process_cpu_s();
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    // A periodic O-grid keeps at least 2 nodes per i-piece (run_case's
    // partition-count repair rule).
    let min_widths: Vec<[usize; 3]> =
        cfg.grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
    let initial = static_balance(&sizes, w.nranks()).map_err(|e| e.to_string())?;
    let np =
        fit_np_to_dims_min(&sizes, &dims, &initial.np, &min_widths).map_err(|e| e.to_string())?;
    let partition = Partition::build(&dims, &np);
    build_topology(&partition, &cfg.search_order).map_err(|e| e.to_string())?;
    let t2 = process_cpu_s();
    let cumulative = vec![RigidTransform::IDENTITY; cfg.grids.len()];
    for rank in 0..w.nranks() {
        let built = build_block(rank, &partition, &cfg.grids, &cumulative, &cfg.fc)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(built);
    }
    let t3 = process_cpu_s();
    let times = SetupTimes { generate_s: t1 - t0, balance_s: t2 - t1, build_block_s: t3 - t2 };
    Ok((cfg, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("airfoil"), None);
    }

    #[test]
    fn seed_zero_is_the_paper_case() {
        assert_eq!(phase_offset_steps(0), 0);
        for w in Workload::ALL {
            let a = w.case(0, 2);
            let b = w.paper_case();
            for (ga, gb) in a.grids.iter().zip(&b.grids) {
                assert!(ga.coords.as_slice() == gb.coords.as_slice());
            }
        }
    }

    #[test]
    fn offsets_are_bounded_and_vary() {
        let offsets: Vec<usize> = (1..=32).map(phase_offset_steps).collect();
        assert!(offsets.iter().all(|&k| (k as u64) < MAX_PHASE_OFFSET));
        assert!(offsets.iter().any(|&k| k != offsets[0]));
        assert_eq!(offsets, (1..=32).map(phase_offset_steps).collect::<Vec<_>>());
    }

    #[test]
    fn offset_moves_every_moving_grid() {
        let seed = (1..).find(|&s| phase_offset_steps(s) > 0).unwrap();
        for w in Workload::ALL {
            let a = w.case(seed, 2);
            let b = w.paper_case();
            for body in &b.motions {
                for &g in &body.grids {
                    assert!(a.grids[g].coords.as_slice() != b.grids[g].coords.as_slice());
                }
            }
        }
    }
}
