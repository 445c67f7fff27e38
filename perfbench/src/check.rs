//! The output check every repetition passes through: the run succeeded,
//! its state is finite and fully connected, its checksum agrees with the
//! serial driver, and every deterministic output repeats bit for bit.

use overflow_d::RunResult;
use overset_comm::{AllocRecord, StepRecord, NUM_PHASES};

/// Relative tolerance between the parallel and serial state checksums
/// (the bound of the workspace's parallel-vs-serial integration tests).
pub const SERIAL_RTOL: f64 = 1e-4;

/// Every output of a run that must not change between repetitions of the
/// same case: final state checksum, per-rank virtual clocks and phase
/// times, message census, counters, step records and allocation counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    state_rms: u64,
    wall_time: u64,
    phase_elapsed: [u64; NUM_PHASES],
    rank_clocks: Vec<u64>,
    rank_times: Vec<[u64; NUM_PHASES]>,
    msgs: u64,
    bytes: u64,
    counters: Vec<(&'static str, u64)>,
    serviced_last: Vec<usize>,
    igbps_last: usize,
    orphans_last: usize,
    repartitions: usize,
    np_final: Vec<usize>,
    step_records: Vec<Vec<StepRecord>>,
    alloc_counts: Vec<([u64; NUM_PHASES], [u64; NUM_PHASES])>,
    alloc_records: Vec<Vec<AllocRecord>>,
}

fn bits<const N: usize>(v: &[f64; N]) -> [u64; N] {
    v.map(f64::to_bits)
}

impl Digest {
    pub fn of(r: &RunResult) -> Digest {
        Digest {
            state_rms: r.state_rms.to_bits(),
            wall_time: r.wall_time.to_bits(),
            phase_elapsed: bits(&r.phase_elapsed),
            rank_clocks: r.rank_stats.iter().map(|s| s.final_clock.to_bits()).collect(),
            rank_times: r.rank_stats.iter().map(|s| bits(&s.time)).collect(),
            msgs: r.summary.msgs,
            bytes: r.summary.bytes,
            counters: r.metrics.counters().collect(),
            serviced_last: r.serviced_last.clone(),
            igbps_last: r.igbps_last,
            orphans_last: r.orphans_last,
            repartitions: r.repartitions,
            np_final: r.np_final.clone(),
            step_records: r.step_records.clone(),
            alloc_counts: r.alloc_by_rank.iter().map(|a| (a.allocs, a.bytes)).collect(),
            alloc_records: r.alloc_records.clone(),
        }
    }
}

/// Checks repetitions of one case against the serial reference and
/// against the first repetition.
pub struct Checker {
    serial_rms: Option<f64>,
    first: Option<Digest>,
}

impl Checker {
    /// `serial_rms` is `run_case_serial`'s state checksum for the same case
    /// and seed; `None` when the serial run failed, which fails every
    /// repetition.
    pub fn new(serial_rms: Option<f64>) -> Checker {
        Checker { serial_rms, first: None }
    }

    /// Check one repetition; `Err` names the first violated condition.
    pub fn check(&mut self, r: &RunResult) -> Result<(), String> {
        if !r.state_rms.is_finite() {
            return Err(format!("state checksum is not finite ({})", r.state_rms));
        }
        if r.orphans_last != 0 {
            return Err(format!("{} orphan points at the last step", r.orphans_last));
        }
        let serial = self.serial_rms.ok_or("no serial reference checksum")?;
        let rel = (r.state_rms - serial).abs() / serial.abs().max(f64::MIN_POSITIVE);
        if rel.is_nan() || rel > SERIAL_RTOL {
            return Err(format!(
                "state checksum {} differs from the serial {} by {rel:e} relative",
                r.state_rms, serial
            ));
        }
        let digest = Digest::of(r);
        match &self.first {
            None => self.first = Some(digest),
            Some(first) if *first != digest => {
                return Err("deterministic outputs differ from the first repetition".into())
            }
            Some(_) => {}
        }
        Ok(())
    }
}
