//! The two kinds of run: end to end (tracing off, repeated `run_case`
//! timed on the host clock) and traced (the per-layer replay next to one
//! parallel run for the virtual-time and counter layers).

use crate::check::Checker;
use crate::replay;
use crate::stats::{median, quantile, tail_percentile};
use crate::sys;
use crate::trace::Recorder;
use crate::workload::{phase_offset_steps, timed_setup, SetupTimes, Workload};
use overflow_d::{run_case, run_case_serial, CaseConfig, RunResult};
use overset_balance::service_imbalance;
use overset_comm::metrics::names;
use overset_comm::{MachineModel, Phase};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` and the set-up layers report their median.
const SETUP_REPS: usize = 11;

/// What one benchmark invocation measures.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: checked operations, metrics and provenance.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and sample details, each value already JSON-encoded.
    pub details: Vec<(String, String)>,
    /// The first few check failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn detail(&mut self, key: impl Into<String>, value: impl ToString) {
        self.details.push((key.into(), value.to_string()));
    }

    /// Count one checked operation.
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }
}

pub fn machine() -> MachineModel {
    MachineModel::ibm_sp2()
}

/// [`SETUP_REPS`] timed set-ups; returns the last case and every timing.
fn setups(a: &Args, threads: usize) -> Result<(CaseConfig, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cfg = None;
    for _ in 0..SETUP_REPS {
        let (c, t) = timed_setup(a.workload, a.seed, threads)?;
        times.push(t);
        cfg = Some(c);
    }
    Ok((cfg.expect("at least one set-up"), times))
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

fn provenance(o: &mut Outcome, a: &Args, cfg: &CaseConfig, threads: usize) {
    o.detail("workload", json_str(a.workload.name()));
    o.detail("seed", a.seed);
    o.detail("phase_offset_steps", phase_offset_steps(a.seed));
    o.detail("trace", a.trace);
    o.detail("nproc", sys::nproc());
    o.detail("ranks", a.workload.nranks());
    o.detail("os_threads", threads.min(a.workload.nranks()));
    o.detail("transport", json_str("inproc"));
    o.detail("machine", json_str(machine().name));
    o.detail("grid_points", cfg.total_points());
    o.detail("steps", cfg.steps);
    o.detail("git_commit", json_str(&sys::git_commit()));
}

/// Host time of one timestep, in milliseconds.
#[derive(Clone, Copy)]
struct StepTime {
    wall_ms: f64,
    cpu_ms: f64,
}

/// Summarize a series of per-step times as median, quartiles and, with
/// enough samples, the highest percentile that has ten samples beyond it.
fn describe(o: &mut Outcome, prefix: &str, xs: &[f64]) {
    let key = |s: &str| format!("{prefix}_{s}");
    let listed: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    o.detail(key("samples"), format!("[{}]", listed.join(", ")));
    o.detail(key("median"), median(xs));
    o.detail(key("q1"), quantile(xs, 0.25));
    o.detail(key("q3"), quantile(xs, 0.75));
    if let Some(p) = tail_percentile(xs.len()) {
        o.detail(key("tail_percentile"), p);
        o.detail(key("tail"), quantile(xs, p / 100.0));
    }
}

/// Repeat `run_case` on the workload for `seconds` after one untimed
/// warm-up repetition, checking every repetition.
pub fn end_to_end(a: &Args) -> Result<Outcome, String> {
    let threads = sys::nproc();
    let (cfg, setup) = setups(a, threads)?;
    let machine = machine();
    let mut o = Outcome::default();
    provenance(&mut o, a, &cfg, threads);
    let serial = run_case_serial(&cfg, &machine);
    if let Err(e) = &serial {
        o.failures.push(format!("serial reference: {e}"));
    }
    let mut checker = Checker::new(serial.ok().map(|r| r.state_rms));
    let steps = cfg.steps as f64;

    let mut virt_step_s = None;
    let mut rep = |o: &mut Outcome| -> Option<StepTime> {
        let (t0, c0) = (Instant::now(), sys::process_cpu_s());
        let r = run_case(&cfg, a.workload.nranks(), &machine);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), sys::process_cpu_s() - c0);
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                o.record("run_case", Err(e.to_string()));
                return None;
            }
        };
        o.record("repetition", checker.check(&r));
        virt_step_s.get_or_insert(r.time_per_step());
        Some(StepTime { wall_ms: wall * 1e3 / steps, cpu_ms: cpu * 1e3 / steps })
    };
    // Warm-up: fills caches and the allocator, and is the repetition the
    // others must repeat bit for bit.
    rep(&mut o);
    let window = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut samples = Vec::new();
    loop {
        samples.extend(rep(&mut o));
        if window.elapsed() >= budget {
            break;
        }
    }
    let virt_step_s = virt_step_s.ok_or("no repetition completed")?;
    if samples.is_empty() {
        return Err("no timed repetition completed".into());
    }
    let wall: Vec<f64> = samples.iter().map(|t| t.wall_ms).collect();
    let cpu: Vec<f64> = samples.iter().map(|t| t.cpu_ms).collect();
    o.detail("samples", samples.len());
    o.detail("setup_reps", setup.len());
    describe(&mut o, "step_ms", &wall);
    describe(&mut o, "cpu_step_ms", &cpu);
    // Failures also leave the result as `fail_frac` (0 when all is well);
    // the gated metric is its complement, which is never 0.
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.detail("fail_frac", fail_frac);

    o.metric("cpu_step_ms", median(&cpu), "ms");
    o.metric("virt_step_s", virt_step_s, "s");
    o.metric("setup_s", median_of(&setup, SetupTimes::total_s), "s");
    o.metric("peak_rss_mb", sys::peak_rss_mb().ok_or("VmHWM unavailable")?, "MiB");
    o.metric("pass_frac", 1.0 - fail_frac, "ratio");
    Ok(o)
}

/// One serial run and its traced replay.
struct Pair {
    serial_s: f64,
    replay_s: f64,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

fn pair(
    cfg: &CaseConfig,
    machine: &MachineModel,
    o: &mut Outcome,
) -> (Option<RunResult>, Pair, Recorder) {
    let t0 = Instant::now();
    let serial = run_case_serial(cfg, machine);
    let serial_s = t0.elapsed().as_secs_f64();
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let rr = replay::replay(cfg, &mut rec);
    let replay_s = t0.elapsed().as_secs_f64();
    let verdict = match (&rr, &serial) {
        (Ok(rr), Ok(s)) => rr.matches(s),
        (Err(e), _) => Err(e.clone()),
        (_, Err(e)) => Err(format!("run_case_serial: {e}")),
    };
    o.record("replay", verdict);
    let p = Pair { serial_s, replay_s, self_ns: rec.self_ns(), counts: rec.counts().clone() };
    (serial.ok(), p, rec)
}

/// The traced run: replay pairs for `seconds` (at least one), one parallel
/// run for the distributed-only layers, and the set-up layers.
pub fn traced(a: &Args, spans_out: &std::path::Path) -> Result<Outcome, String> {
    let threads = sys::nproc();
    let (cfg, setup) = setups(a, threads)?;
    let machine = machine();
    let mut o = Outcome::default();
    provenance(&mut o, a, &cfg, threads);
    let steps = cfg.steps as f64;

    let window = Instant::now();
    let (serial, first, mut rec) = pair(&cfg, &machine, &mut o);
    let mut pairs = vec![first];
    let par = run_case(&cfg, a.workload.nranks(), &machine).map_err(|e| e.to_string());
    let mut checker = Checker::new(serial.as_ref().map(|r| r.state_rms));
    o.record("parallel run", par.as_ref().map_err(Clone::clone).and_then(|r| checker.check(r)));
    let par = par?;
    let budget = Duration::from_secs_f64(a.seconds);
    while window.elapsed() < budget {
        let (_, p, r) = pair(&cfg, &machine, &mut o);
        pairs.push(p);
        rec = r;
    }
    if let Some(dir) = spans_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(spans_out, rec.chrome_json())
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    o.detail("spans_file", json_str(&spans_out.display().to_string()));
    o.detail("replay_pairs", pairs.len());
    o.detail("setup_reps", setup.len());

    // Host layers from the replay: median over pairs of per-step self time.
    let self_ms = |name: &str| {
        median(
            &pairs
                .iter()
                .map(|p| p.self_ns.get(name).copied().unwrap_or(0) as f64)
                .collect::<Vec<_>>(),
        ) / 1e6
            / steps
    };
    const SOLVER_SPANS: [&str; 4] =
        ["solver.rhs", "solver.sweeps", "solver.turbulence", "solver.update_bc"];
    let p0 = &pairs[0];
    let count = |name: &str| p0.counts.get(name).copied().unwrap_or(0) as f64;
    let gflops = median(
        &pairs
            .iter()
            .map(|p| {
                let busy_ns: u64 =
                    SOLVER_SPANS.iter().map(|s| p.self_ns.get(s).copied().unwrap_or(0)).sum();
                count(replay::SOLVER_FLOPS) / busy_ns.max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    let overhead =
        median(&pairs.iter().map(|p| (p.replay_s / p.serial_s - 1.0) * 100.0).collect::<Vec<_>>());

    // Distributed layers from the parallel run.
    let counter = |name: &str| par.metrics.counter(name) as f64;
    let virt = |phase: Phase| par.phase_elapsed[phase as usize] / steps;
    let nsteps = par.step_records.iter().map(Vec::len).min().unwrap_or(0);
    let f_max_peak = (0..nsteps)
        .map(|s| {
            let serviced: Vec<usize> =
                par.step_records.iter().map(|r| r[s].serviced as usize).collect();
            service_imbalance(&serviced)
        })
        .fold(par.f_max(), f64::max);
    let last_alloc = |f: &dyn Fn(&overset_comm::AllocRecord) -> u64| -> f64 {
        par.alloc_records.iter().filter_map(|r| r.last()).map(f).sum::<u64>() as f64
    };
    let stall_s = par.metrics.histogram(names::COMM_RECV_STALL).map_or(0.0, |h| h.sum);

    o.metric("solver.rhs_ms", self_ms("solver.rhs"), "ms");
    o.metric("solver.sweeps_ms", self_ms("solver.sweeps"), "ms");
    o.metric("solver.turbulence_ms", self_ms("solver.turbulence"), "ms");
    o.metric("solver.update_bc_ms", self_ms("solver.update_bc"), "ms");
    o.metric("solver.mflop", count(replay::SOLVER_FLOPS) / steps / 1e6, "Mflop");
    o.metric("solver.gflops", gflops, "Gflop/s");
    o.metric("solver.virt_s", virt(Phase::Flow), "s");
    o.metric("solver.allocs", last_alloc(&|r| r.allocs[Phase::Flow as usize]), "count");
    o.metric("connectivity.invmap_ms", self_ms("connectivity.invmap"), "ms");
    o.metric("connectivity.connect_ms", self_ms("connectivity.connect"), "ms");
    o.metric("connectivity.invmap_builds", counter(names::CONN_INVMAP_BUILDS), "count");
    o.metric("connectivity.invmap_advances", counter(names::CONN_INVMAP_INCR), "count");
    o.metric("connectivity.walk_steps", counter(names::CONN_WALK_STEPS), "count");
    o.metric(
        "connectivity.walks_per_igbp",
        counter(names::CONN_WALK_STEPS) / counter(names::CONN_SERVICED).max(1.0),
        "ratio",
    );
    o.metric("connectivity.cache_hit_rate", par.metrics.cache_hit_rate().unwrap_or(0.0), "ratio");
    o.metric("connectivity.forwards", counter(names::CONN_FORWARDS), "count");
    o.metric("connectivity.rounds", counter(names::CONN_ROUNDS), "count");
    o.metric("connectivity.orphans", par.orphans_last as f64, "count");
    o.metric("connectivity.virt_s", virt(Phase::Connectivity), "s");
    o.metric(
        "connectivity.allocs",
        last_alloc(&|r| r.allocs[Phase::Connectivity as usize]),
        "count",
    );
    o.metric("motion.ms", self_ms("motion"), "ms");
    o.metric("motion.virt_s", virt(Phase::Motion), "s");
    o.metric("motion.alloc_bytes", last_alloc(&|r| r.bytes[Phase::Motion as usize]), "B");
    o.metric("balance.static_ms", median_of(&setup, |t| t.balance_s) * 1e3, "ms");
    o.metric("balance.f_max_peak", f_max_peak, "ratio");
    o.metric("balance.f_max_last", par.f_max(), "ratio");
    o.metric("balance.repartitions", par.repartitions as f64, "count");
    o.metric("balance.virt_s", virt(Phase::Balance), "s");
    o.metric(
        "balance.alloc_bytes",
        par.alloc_by_rank.iter().map(|a| a.bytes[Phase::Balance as usize]).sum::<u64>() as f64,
        "B",
    );
    o.metric("comm.msgs", par.summary.msgs as f64, "count");
    o.metric("comm.kbytes", par.summary.bytes as f64 / 1e3, "kB");
    o.metric("comm.collectives", counter(names::COMM_COLLECTIVES), "count");
    o.metric("comm.recv_stall_s", stall_s, "s");
    o.metric("grid.generate_ms", median_of(&setup, |t| t.generate_s) * 1e3, "ms");
    o.metric("core.build_block_ms", median_of(&setup, |t| t.build_block_s) * 1e3, "ms");
    o.metric(
        "replay.step_ms",
        median(&pairs.iter().map(|p| p.replay_s).collect::<Vec<_>>()) * 1e3 / steps,
        "ms",
    );
    o.metric("replay.walk_steps", count(replay::WALK_STEPS), "count");
    o.metric("replay.overhead_pct", overhead, "%");
    Ok(o)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
