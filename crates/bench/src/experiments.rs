//! The experiment harness: one function per table / figure of the paper,
//! each printing the same rows or series the paper reports.
//!
//! Absolute numbers come from the virtual-time machine models (DESIGN.md
//! §2); the *shapes* — who wins, by what factor, where the curves bend —
//! are the reproduction targets. EXPERIMENTS.md records paper-vs-measured
//! values for every run.

use overflow_d::{
    airfoil_case, delta_wing_case, run_case, run_case_serial, store_case, CaseConfig, Equivalence,
    LbConfig, RunResult,
};
use overset_comm::trace::TraceConfig;
use overset_comm::{MachineModel, OversetError, Phase, TransportConfig};

/// Global experiment scaling knobs.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Geometric scale of the 3-D cases (1.0 = paper size).
    pub scale3d: f64,
    /// Geometric scale of the airfoil case.
    pub scale2d: f64,
    /// Timesteps per run (the paper averages long runs; the cold first-step
    /// connectivity solve amortizes over this many steps).
    pub steps2d: usize,
    pub steps3d: usize,
    /// Bound on the OS threads executing the ranks (`--max-threads`).
    /// `None`: one thread per rank; `Some(n)`: the comm runtime multiplexes
    /// the ranks onto `n` workers (M:N mode). Virtual times are bit-identical
    /// either way, so every table is unaffected — this only caps host load.
    pub max_threads: Option<usize>,
    /// Inverse-map acceleration (`--no-inverse-map` clears it): seeded cold
    /// walks, occupancy-pruned candidates, masked hole cutting. Answers are
    /// identical either way; only the work (and so the virtual time) moves.
    pub use_inverse_map: bool,
    /// Persistent connectivity arena (`--no-arena` clears it): per-rank
    /// step-scoped scratch that keeps its capacity across steps. The same
    /// code path runs either way — states, walk outcomes and virtual times
    /// are bit-identical; only host-side allocation counts change.
    pub use_arena: bool,
    /// Incremental inverse-map pose advance (`--no-incremental-invmap`
    /// clears it): small rigid motions compose into the map's pose instead
    /// of triggering a full lattice rebuild. Answers are identical; the
    /// virtual time honestly reflects the cheaper update.
    pub use_incremental_invmap: bool,
    /// Lane-batched SIMD compute kernels (`--no-simd` clears it): the line
    /// sweeps, donor Newton walks and hole containment tests run through the
    /// host's AVX2 units when available. The *same* batched code runs either
    /// way — states, walk outcomes and virtual times are bit-identical; only
    /// host wall-clock changes.
    pub use_simd: bool,
    /// Process-transport group count (`--transport proc[:N]`). `None`
    /// (default, `--transport inproc`): ranks as threads in this process.
    /// `Some(n)`: ranks split across `n` forked rank-group processes.
    /// Virtual times are bit-identical either way (`repro smoke` proves it).
    /// Sweeps pay quadratic replay cost (each forked child re-runs the
    /// sweep's earlier universes in-process to reach its own), so expect
    /// multi-case runs to be severalfold slower than `inproc`.
    pub proc_groups: Option<usize>,
    /// Test hook (`--inject-alloc <bytes>`): each rank makes one synthetic
    /// heap allocation of this many bytes per timestep inside the
    /// connectivity phase. Physics- and virtual-time-neutral; exists so the
    /// exact alloc gate in `repro compare` can be exercised end to end.
    pub inject_alloc: usize,
}

impl Effort {
    pub fn full() -> Self {
        Effort {
            scale3d: 1.0,
            scale2d: 1.0,
            steps2d: 20,
            steps3d: 12,
            max_threads: None,
            use_inverse_map: true,
            use_arena: true,
            use_incremental_invmap: true,
            use_simd: true,
            proc_groups: None,
            inject_alloc: 0,
        }
    }

    /// Reduced effort for CI / quick runs.
    pub fn quick() -> Self {
        Effort {
            scale3d: 0.55,
            scale2d: 0.6,
            steps2d: 10,
            steps3d: 5,
            max_threads: None,
            use_inverse_map: true,
            use_arena: true,
            use_incremental_invmap: true,
            use_simd: true,
            proc_groups: None,
            inject_alloc: 0,
        }
    }
}

/// Apply the effort's scheduler bound, feature toggles and transport to a
/// case config — the single place CLI flags become configuration.
pub(crate) fn tuned(mut cfg: CaseConfig, e: Effort) -> CaseConfig {
    cfg.max_threads = e.max_threads;
    cfg.use_inverse_map = e.use_inverse_map;
    cfg.use_arena = e.use_arena;
    cfg.use_incremental_invmap = e.use_incremental_invmap;
    cfg.use_simd = e.use_simd;
    cfg.transport = match e.proc_groups {
        None => TransportConfig::InProcess,
        Some(n) => TransportConfig::process(n),
    };
    cfg.inject_alloc = e.inject_alloc;
    cfg
}

fn sp2() -> MachineModel {
    MachineModel::ibm_sp2()
}

fn sp() -> MachineModel {
    MachineModel::ibm_sp()
}

/// One measured row of a performance table.
#[derive(Clone, Debug)]
pub struct PerfRow {
    pub nodes: usize,
    pub points_per_node: usize,
    pub mflops_per_node: [f64; 2], // SP2, SP
    pub speedup: [f64; 2],
    pub dcf3d_pct: [f64; 2],
    pub time_per_step: [f64; 2],
    /// Per-module elapsed times per step (flow, connectivity), per machine.
    pub flow_elapsed: [f64; 2],
    pub conn_elapsed: [f64; 2],
}

/// Run a case across node counts on both machines.
pub fn sweep(cfg_for: impl Fn() -> CaseConfig, nodes: &[usize]) -> Vec<PerfRow> {
    let machines = [sp2(), sp()];
    let mut rows = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let mut row = PerfRow {
            nodes: n,
            points_per_node: 0,
            mflops_per_node: [0.0; 2],
            speedup: [0.0; 2],
            dcf3d_pct: [0.0; 2],
            time_per_step: [0.0; 2],
            flow_elapsed: [0.0; 2],
            conn_elapsed: [0.0; 2],
        };
        for (mi, m) in machines.iter().enumerate() {
            let cfg = cfg_for();
            let r = run_case(&cfg, n, m).unwrap();
            row.points_per_node = r.total_points / n;
            row.mflops_per_node[mi] = r.mflops_per_node();
            row.dcf3d_pct[mi] = 100.0 * r.connectivity_fraction();
            row.time_per_step[mi] = r.time_per_step();
            // Exact per-phase elapsed (max over ranks), not the per-rank mean.
            row.flow_elapsed[mi] = r.summary.phase_time(Phase::Flow) / r.steps as f64;
            row.conn_elapsed[mi] = r.summary.phase_time(Phase::Connectivity) / r.steps as f64;
        }
        rows.push(row);
    }
    // Speedups relative to the smallest node count.
    for mi in 0..2 {
        let base = rows[0].time_per_step[mi] * rows[0].nodes as f64 / rows[0].nodes as f64;
        let _ = base;
        let t0 = rows[0].time_per_step[mi];
        for row in rows.iter_mut() {
            row.speedup[mi] = t0 / row.time_per_step[mi];
        }
    }
    rows
}

pub fn print_perf_table(title: &str, rows: &[PerfRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>6} {:>12} | {:>9} {:>9} | {:>8} {:>8} | {:>9} {:>9}",
        "Nodes", "Pts/node", "Mf/n SP2", "Mf/n SP", "Spd SP2", "Spd SP", "%DCF SP2", "%DCF SP"
    );
    for r in rows {
        println!(
            "{:>6} {:>12} | {:>9.1} {:>9.1} | {:>8.2} {:>8.2} | {:>8.1}% {:>8.1}%",
            r.nodes,
            r.points_per_node,
            r.mflops_per_node[0],
            r.mflops_per_node[1],
            r.speedup[0],
            r.speedup[1],
            r.dcf3d_pct[0],
            r.dcf3d_pct[1]
        );
    }
}

/// Per-module speedup series (the paper's Figs. 5 / 7 / 10).
pub fn print_module_speedups(title: &str, rows: &[PerfRow]) {
    println!("\n== {title} (per-module parallel speedup) ==");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}",
        "Nodes", "OVERFLOW/SP2", "DCF3D/SP2", "Comb/SP2", "OVERFLOW/SP", "DCF3D/SP", "Comb/SP"
    );
    for r in rows {
        let s = |base: f64, v: f64| if v > 0.0 { base / v } else { f64::NAN };
        println!(
            "{:>6} | {:>12.2} {:>12.2} {:>12.2} | {:>12.2} {:>12.2} {:>12.2}",
            r.nodes,
            s(rows[0].flow_elapsed[0], r.flow_elapsed[0]),
            s(rows[0].conn_elapsed[0], r.conn_elapsed[0]),
            s(rows[0].time_per_step[0], r.time_per_step[0]),
            s(rows[0].flow_elapsed[1], r.flow_elapsed[1]),
            s(rows[0].conn_elapsed[1], r.conn_elapsed[1]),
            s(rows[0].time_per_step[1], r.time_per_step[1]),
        );
    }
}

/// Table 1 / Fig. 5: the 2-D oscillating airfoil.
pub fn table1(e: Effort) -> Vec<PerfRow> {
    sweep(|| tuned(airfoil_case(e.scale2d, e.steps2d), e), &[6, 9, 12, 18, 24])
}

/// Table 2: the airfoil scaling study (coarsened / original / refined).
///
/// The paper coarsens/refines by 2× per direction (4× points in 2-D) and
/// holds points-per-node fixed (3 / 12 / 48 nodes). Our refined case uses
/// √2× per direction (2× points) on the paper's 48 nodes — the processor
/// growth that drives the "%DCF3D grows with problem size" trend is
/// preserved, at half the paper's points-per-node — because a 4× refinement
/// of the transonic case exceeds the robustness envelope of the simplified
/// shock-capturing scheme (see EXPERIMENTS.md).
pub fn table2(e: Effort) {
    println!("\n== Table 2: 2D oscillating airfoil scaling study ==");
    println!(
        "{:>22} {:>8} {:>12} | {:>10} {:>10} | {:>9} {:>9}",
        "Case", "Nodes", "Pts/node", "t/step SP2", "t/step SP", "%DCF SP2", "%DCF SP"
    );
    let configs: [(&str, f64, usize); 3] = [
        ("Coarsened (1/4x)", e.scale2d * 0.5, 3),
        ("Original", e.scale2d, 12),
        ("Refined (2x)", e.scale2d * 1.4, 48),
    ];
    for (name, scale, nodes) in configs {
        let mut t = [0.0f64; 2];
        let mut pct = [0.0f64; 2];
        let mut ppn = 0usize;
        for (mi, m) in [sp2(), sp()].iter().enumerate() {
            let cfg = tuned(airfoil_case(scale, e.steps2d), e);
            let r = run_case(&cfg, nodes, m).unwrap();
            t[mi] = r.time_per_step();
            pct[mi] = 100.0 * r.connectivity_fraction();
            ppn = r.total_points / nodes;
        }
        println!(
            "{:>22} {:>8} {:>12} | {:>10.3} {:>10.3} | {:>8.1}% {:>8.1}%",
            name, nodes, ppn, t[0], t[1], pct[0], pct[1]
        );
    }
}

/// Table 3 / Fig. 7: the descending delta wing.
pub fn table3(e: Effort) -> Vec<PerfRow> {
    sweep(|| tuned(delta_wing_case(e.scale3d, e.steps3d), e), &[7, 12, 26, 55])
}

/// Table 4 / Fig. 10: the finned-store separation (static balancing).
pub fn table4(e: Effort) -> Vec<PerfRow> {
    sweep(|| tuned(store_case(e.scale3d, e.steps3d), e), &[16, 18, 22, 28, 35, 42, 52, 61])
}

/// Table 5 / Fig. 11: static vs dynamic load balancing on the store case.
///
/// The paper measured a maximum connectivity service imbalance f(p) ≈ 7 and
/// chose f_o = 5 to shave it; our synthetic store system tops out at
/// f(p) ≈ 4.5, so the equivalent threshold is f_o = 3 (same ~70% of the
/// observed maximum).
pub fn table5(e: Effort) {
    println!("\n== Table 5: DCF3D with dynamic load balance (store case, SP2, f_o = 3) ==");
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>7}",
        "Nodes",
        "%DCF dyn",
        "%DCF stat",
        "DCF spd d",
        "DCF spd s",
        "Comb sp d",
        "Comb sp s",
        "repart"
    );
    let nodes = [16usize, 18, 28, 52];
    let steps = (2 * e.steps3d).max(16);
    let mut dyn_rows: Vec<RunResult> = Vec::new();
    let mut stat_rows: Vec<RunResult> = Vec::new();
    for &n in &nodes {
        let mut cfg = tuned(store_case(e.scale3d, steps), e);
        cfg.lb = LbConfig::dynamic(3.0, 6);
        dyn_rows.push(run_case(&cfg, n, &sp2()).unwrap());
        let cfg = tuned(store_case(e.scale3d, steps), e);
        stat_rows.push(run_case(&cfg, n, &sp2()).unwrap());
    }
    let conn = |r: &RunResult| r.summary.phase_time(Phase::Connectivity) / r.steps as f64;
    for (i, &n) in nodes.iter().enumerate() {
        let (d, s) = (&dyn_rows[i], &stat_rows[i]);
        println!(
            "{:>6} | {:>9.1}% {:>9.1}% | {:>10.2} {:>10.2} | {:>10.2} {:>10.2} | {:>7}",
            n,
            100.0 * d.connectivity_fraction(),
            100.0 * s.connectivity_fraction(),
            conn(&dyn_rows[0]) / conn(d),
            conn(&stat_rows[0]) / conn(s),
            dyn_rows[0].time_per_step() / d.time_per_step(),
            stat_rows[0].time_per_step() / s.time_per_step(),
            d.repartitions,
        );
    }
    println!(
        "  (dynamic np_final at {} nodes: {:?})",
        nodes[nodes.len() - 1],
        dyn_rows[nodes.len() - 1].np_final
    );
}

/// Table 6: wallclock speedup vs single-processor Cray Y-MP ("YMP units").
pub fn table6(e: Effort) {
    println!("\n== Table 6: wallclock speedup vs Cray Y-MP (store case) ==");
    let ymp = run_case_serial(&store_case(e.scale3d, e.steps3d.min(6)), &MachineModel::cray_ymp())
        .unwrap();
    let t_ymp = ymp.time_per_step();
    println!("  (Y-MP reference: {:.3} virtual s/step)", t_ymp);
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10}",
        "Nodes", "Ovrl SP2", "Ovrl SP", "PerNd SP2", "PerNd SP"
    );
    for &n in &[18usize, 28, 42, 61] {
        let mut overall = [0.0f64; 2];
        for (mi, m) in [sp2(), sp()].iter().enumerate() {
            let r = run_case(&tuned(store_case(e.scale3d, e.steps3d), e), n, m).unwrap();
            overall[mi] = t_ymp / r.time_per_step();
        }
        println!(
            "{:>6} | {:>10.1} {:>10.1} | {:>10.2} {:>10.2}",
            n,
            overall[0],
            overall[1],
            overall[0] / n as f64,
            overall[1] / n as f64
        );
    }
}

/// A representative traced run for `--trace` / `--metrics`: the given
/// experiment family's case at its smallest node count (the same mapping
/// `repro report` uses, see [`crate::report::representative_case`]), with
/// the given trace configuration. Deterministic in virtual time, so two
/// invocations produce byte-identical trace JSON.
pub fn traced_run(which: &str, e: Effort, trace: TraceConfig) -> RunResult {
    let (mut cfg, nodes) = crate::report::representative_case(which, e);
    cfg.trace = trace;
    run_case(&tuned(cfg, e), nodes, &sp2()).expect("traced run failed")
}

/// `repro smoke`: prove the transport-determinism contract from the CLI.
/// Runs the store case once over the multi-process backend (two forked
/// rank-group processes) and once in-process, then compares the pair
/// through the run oracle at [`Equivalence::Clocks`]: final state node for
/// node, every clock, counter and step record. Exit 0 on bit-equality, 1
/// on divergence or a failed run.
///
/// The process-backed run goes first: its forked children re-execute
/// `repro smoke` and must reach the process-backed `establish` without
/// replaying the in-process reference run.
pub fn transport_smoke() -> i32 {
    let nranks = 16; // the store system has 16 grids; each needs a processor
    let mut cfg = store_case(0.3, 3);
    cfg.transport = TransportConfig::process(2);
    let inproc = |c: &mut CaseConfig| c.transport = TransportConfig::InProcess;
    let diverged = match run_pair(cfg, nranks, Equivalence::Clocks, inproc) {
        Ok((_, _, diverged)) => diverged,
        Err(e) => {
            eprintln!("transport smoke: run failed: {e}");
            return 1;
        }
    };
    println!(
        "transport smoke: {} (store case, {nranks} ranks, proc:2 vs inproc)",
        verdict(&diverged)
    );
    i32::from(diverged.is_some())
}

/// Run `cfg` as given and again with `toggle` applied, with final states
/// collected on both, and ask the run oracle whether the pair agrees at
/// `level`. Returns (as given, toggled, first divergence). Every bit-equality
/// verdict `repro` prints comes from here.
fn run_pair(
    mut cfg: CaseConfig,
    nranks: usize,
    level: Equivalence,
    toggle: impl FnOnce(&mut CaseConfig),
) -> Result<(RunResult, RunResult, Option<String>), OversetError> {
    cfg.collect_state = true;
    let on = run_case(&cfg, nranks, &sp2())?;
    toggle(&mut cfg);
    let off = run_case(&cfg, nranks, &sp2())?;
    let diverged = on.first_divergence(&off, level);
    Ok((on, off, diverged))
}

/// The two cases every toggle ablation runs, as (label, ranks, config): the
/// airfoil on 12 ranks, then the store on `store_ranks`.
fn ablation_cases(e: Effort, store_ranks: usize) -> [(&'static str, usize, CaseConfig); 2] {
    [
        ("airfoil", 12, tuned(airfoil_case(e.scale2d, e.steps2d), e)),
        ("store  ", store_ranks, tuned(store_case(e.scale3d, e.steps3d), e)),
    ]
}

/// An oracle verdict as printed: `bit-equal`, or `DIVERGED: <first field>`.
fn verdict(diverged: &Option<String>) -> String {
    match diverged {
        None => "bit-equal".to_string(),
        Some(field) => format!("DIVERGED: {field}"),
    }
}

/// Print the run's aggregated metrics registry (counters then histograms,
/// name order).
pub fn print_metrics(r: &RunResult) {
    println!("\n== Aggregated metrics ({} ranks) ==", r.nranks);
    for (name, v) in r.metrics.counters() {
        println!("  {name:<26} {v:>14}");
    }
    for (name, h) in r.metrics.histograms() {
        println!(
            "  {name:<26} n={:<8} mean={:<12.6} min={:<12.6} max={:.6}",
            h.count,
            h.mean(),
            h.min,
            h.max
        );
    }
}

/// `--host-profile`: print the run's host-cost profile — per-phase host
/// wall-clock (max and median over ranks) and the per-phase allocation
/// attribution (counts and bytes summed over ranks, peak heap max over
/// ranks). The wall-clock columns are machine-dependent; the allocation
/// columns are deterministic for a fixed configuration.
pub fn print_host_profile(r: &RunResult) {
    println!("\n== Host profile ({} ranks) ==", r.nranks);
    println!(
        "  {:<14} {:>12} {:>12} {:>14} {:>16}",
        "phase", "max ms", "median ms", "allocs", "alloc bytes"
    );
    for (p, name) in overset_analysis::PHASE_NAMES.iter().enumerate() {
        let max_ms = r.host_phase_elapsed[p] * 1e3;
        let mut per_rank: Vec<f64> = r.host_phase_by_rank.iter().map(|t| t[p]).collect();
        per_rank.sort_by(f64::total_cmp);
        let median_ms =
            per_rank.get(per_rank.len().saturating_sub(1) / 2).copied().unwrap_or(0.0) * 1e3;
        let allocs: u64 = r.alloc_by_rank.iter().map(|a| a.allocs[p]).sum();
        let bytes: u64 = r.alloc_by_rank.iter().map(|a| a.bytes[p]).sum();
        println!("  {name:<14} {max_ms:>12.2} {median_ms:>12.2} {allocs:>14} {bytes:>16}");
    }
    let peak = r.alloc_by_rank.iter().map(|a| a.peak_bytes).max().unwrap_or(0);
    println!("  peak heap (max over ranks): {peak} bytes");
}

/// Ablation A1: nth-level restart on vs off (from-scratch search every
/// step). Barszcz found restart "yields a considerable reduction in the
/// time spent in the connectivity solution".
pub fn ablate_restart(e: Effort) {
    println!("\n== Ablation: nth-level restart (airfoil, SP2, 12 nodes) ==");
    let with = run_case(&tuned(airfoil_case(e.scale2d, e.steps2d), e), 12, &sp2()).unwrap();
    let mut cfg = tuned(airfoil_case(e.scale2d, e.steps2d), e);
    cfg.use_restart = false;
    let without = run_case(&cfg, 12, &sp2()).unwrap();
    let per = |r: &RunResult| r.summary.phase_time(Phase::Connectivity) / r.steps as f64;
    println!(
        "  restart ON : connectivity {:.4} s/step ({:.1}% of total)",
        per(&with),
        100.0 * with.connectivity_fraction()
    );
    println!(
        "  restart OFF: connectivity {:.4} s/step ({:.1}% of total)",
        per(&without),
        100.0 * without.connectivity_fraction()
    );
    println!("  restart speedup of the connectivity solution: {:.1}x", per(&without) / per(&with));
}

/// Ablation: the inverse-map acceleration layer (map-seeded cold walks,
/// occupancy-pruned candidate rotation, masked hole cutting). Answers are
/// bit-identical either way (run oracle at [`Equivalence::Answers`]) — the
/// table shows pure search-effort movement.
pub fn ablate_invmap(e: Effort) {
    use overset_comm::metrics::names;
    println!("\n== Ablation: inverse maps (airfoil @ 12 / store @ 28, SP2) ==");
    for (name, nranks, cfg) in ablation_cases(e, 28) {
        let (on, off, diverged) =
            run_pair(cfg, nranks, Equivalence::Answers, |c| c.use_inverse_map = false).unwrap();
        let per = |r: &RunResult| r.summary.phase_time(Phase::Connectivity) / r.steps as f64;
        let ctr = |r: &RunResult, m: &str| r.metrics.counter(m);
        for (label, r) in [("ON ", &on), ("OFF", &off)] {
            println!(
                "  {name} map {label}: connectivity {:.4} s/step, {:>8} walk steps, {:>6} forwards",
                per(r),
                ctr(r, names::CONN_WALK_STEPS),
                ctr(r, names::CONN_FORWARDS),
            );
        }
        println!(
            "  {name} identical answers: state {} | walk-step cut {:.1}% | connectivity speedup {:.2}x",
            verdict(&diverged),
            100.0 * (1.0 - ctr(&on, names::CONN_WALK_STEPS) as f64
                / ctr(&off, names::CONN_WALK_STEPS).max(1) as f64),
            per(&off) / per(&on)
        );
    }
}

/// Ablation: the per-rank connectivity arena. The arena never changes what
/// the protocol computes — states, clocks, counters and step records must
/// be bit-equal on vs off ([`Equivalence::Clocks`]) — it only removes
/// per-step transient heap allocations, which this experiment measures on
/// the steady-state last step and gates at the 10x reduction the
/// observability docs promise (store case).
pub fn ablate_arena(e: Effort) {
    println!("\n== Ablation: connectivity arena (airfoil @ 12 / store @ 16, SP2) ==");
    // Steady-state allocations: the first steps pay the one-time buffer
    // growth; the last step is the recurring cost. The solver (flow) phase
    // is reported alongside: the scratch-threaded tridiagonal kernels keep
    // its steady state allocation-free too.
    let mut gate_ratio = f64::INFINITY;
    for (name, nranks, cfg) in ablation_cases(e, 16) {
        let (on, off, diverged) =
            run_pair(cfg, nranks, Equivalence::Clocks, |c| c.use_arena = false).unwrap();
        for (label, r) in [("ON ", &on), ("OFF", &off)] {
            let allocs = r.last_step_allocs(Phase::Connectivity);
            println!("  {name} arena {label}: {allocs:>7} connectivity allocs/step (last step, all ranks)");
        }
        let ratio = off.last_step_allocs(Phase::Connectivity) as f64
            / on.last_step_allocs(Phase::Connectivity).max(1) as f64;
        println!(
            "  {name} solver phase: {} (ON) / {} (OFF) allocs/step (last step, all ranks)",
            on.last_step_allocs(Phase::Flow),
            off.last_step_allocs(Phase::Flow),
        );
        println!("  {name} state+clocks {} | alloc reduction {ratio:.1}x", verdict(&diverged));
        gate_ratio = ratio; // the store case, last, is the gated one
    }
    if gate_ratio >= 10.0 {
        println!("  ALLOC-GATE: PASS ({gate_ratio:.1}x >= 10x, store case)");
    } else {
        println!("  ALLOC-GATE: FAIL (>=10x required on the store case, got {gate_ratio:.1}x)");
    }
}

/// Ablation: the lane-batched SIMD compute kernels (`--no-simd` runs the
/// same batched code through the portable scalar lanes). Three properties
/// are checked:
///
/// 1. **Bit-equality** — states, clocks, counters, step records and
///    allocation counts must be identical SIMD on vs off
///    ([`Equivalence::Full`]; per-lane vertical IEEE arithmetic only, no
///    horizontal ops, no FMA).
/// 2. **Host speedup** — the solver (flow) phase's host wall-clock, medians
///    over interleaved repeats in one process (so code/frequency/cache
///    conditions are shared), gated at 1.5x on AVX2 hosts.
/// 3. On hosts without AVX2 both paths select the scalar lanes, so the
///    speedup gate is reported as dormant rather than failed.
pub fn ablate_simd(e: Effort) {
    use overset_comm::metrics::names;
    use overset_solver::avx2_supported;
    println!("\n== Ablation: lane-batched SIMD kernels (airfoil @ 12 / store @ 16, SP2) ==");
    for (name, nranks, cfg) in ablation_cases(e, 16) {
        let (on, _, diverged) =
            run_pair(cfg, nranks, Equivalence::Full, |c| c.use_simd = false).unwrap();
        println!(
            "  {name} state+clocks+allocs {} (walk steps {}, state rms {:.6e})",
            verdict(&diverged),
            on.metrics.counter(names::CONN_WALK_STEPS),
            on.state_rms,
        );
        if diverged.is_some() {
            println!("  SIMD-GATE: FAIL (bit-equality violated on the {} case)", name.trim());
            return;
        }
    }

    // Host speedup of the solver phase: repeat the quick airfoil case with
    // the ISA toggled between otherwise-identical runs in this one process,
    // and compare per-phase host-clock medians (sum over ranks — on an
    // oversubscribed host the cumulative rank-thread time is the stable
    // signal; the max over ranks is scheduling noise).
    let flow_host = |r: &RunResult| -> f64 {
        r.host_phase_by_rank.iter().map(|t| t[Phase::Flow as usize]).sum()
    };
    let repeats = 5;
    let mut on_ms = Vec::with_capacity(repeats);
    let mut off_ms = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let airfoil = tuned(airfoil_case(e.scale2d, e.steps2d), e);
        let (on, off, _) =
            run_pair(airfoil, 12, Equivalence::Full, |c| c.use_simd = false).unwrap();
        on_ms.push(flow_host(&on) * 1e3);
        off_ms.push(flow_host(&off) * 1e3);
    }
    on_ms.sort_by(f64::total_cmp);
    off_ms.sort_by(f64::total_cmp);
    let med = |v: &[f64]| v[v.len() / 2];
    let speedup = med(&off_ms) / med(&on_ms);
    println!(
        "  airfoil solver-phase host clock: SIMD ON {:.1} ms / OFF {:.1} ms (medians of {repeats} interleaved runs, all ranks)",
        med(&on_ms),
        med(&off_ms),
    );
    if !avx2_supported() {
        println!("  SIMD-GATE: DORMANT (no AVX2 on this host; both paths ran the scalar lanes)");
    } else if speedup >= 1.5 {
        println!("  SIMD-GATE: PASS (solver-phase host speedup {speedup:.2}x >= 1.5x)");
    } else {
        println!("  SIMD-GATE: FAIL (solver-phase host speedup {speedup:.2}x < 1.5x required on AVX2 hosts)");
    }
}

/// Ablation: prescribed vs 6-DOF-computed store motion — the paper: "the
/// free motion can be computed with negligible change in the parallel
/// performance of the code".
pub fn ablate_sixdof(e: Effort) {
    println!("\n== Ablation: prescribed vs 6-DOF store motion (SP2, 28 nodes) ==");
    let pres = run_case(&tuned(store_case(e.scale3d, e.steps3d), e), 28, &sp2()).unwrap();
    let free = run_case(&tuned(overflow_d::store_case_sixdof(e.scale3d, e.steps3d), e), 28, &sp2())
        .unwrap();
    println!(
        "  prescribed: {:.3} s/step ({:.1}% DCF3D, motion {:.4} s/step)",
        pres.time_per_step(),
        100.0 * pres.connectivity_fraction(),
        pres.summary.phase_time(Phase::Motion) / pres.steps as f64
    );
    println!(
        "  6-DOF     : {:.3} s/step ({:.1}% DCF3D, motion {:.4} s/step)",
        free.time_per_step(),
        100.0 * free.connectivity_fraction(),
        free.summary.phase_time(Phase::Motion) / free.steps as f64
    );
    println!(
        "  cost of computing the free motion: {:+.1}%",
        100.0 * (free.time_per_step() / pres.time_per_step() - 1.0)
    );
}

/// Ablation A2: f_o sweep on the store case.
pub fn ablate_fo(e: Effort) {
    println!("\n== Ablation: f_o sweep (store case, SP2, 28 nodes) ==");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>7} | {:>8}",
        "f_o", "t/step", "%DCF3D", "f_max", "repart", "flow t"
    );
    for fo in [1.0f64, 2.0, 5.0, 10.0, f64::INFINITY] {
        let mut cfg = tuned(store_case(e.scale3d, e.steps3d.max(10)), e);
        if fo.is_finite() {
            cfg.lb = LbConfig::dynamic(fo, 4);
        }
        let r = run_case(&cfg, 28, &sp2()).unwrap();
        println!(
            "{:>8} | {:>10.3} {:>9.1}% {:>10.2} | {:>7} | {:>8.3}",
            if fo.is_finite() { format!("{fo:.0}") } else { "inf".into() },
            r.time_per_step(),
            100.0 * r.connectivity_fraction(),
            r.f_max(),
            r.repartitions,
            r.summary.phase_time(Phase::Flow) / r.steps as f64,
        );
    }
}

/// `scaling`: virtual-rank scaling far past the paper's node counts (and
/// past the host's cores), possible because the M:N scheduler multiplexes
/// the ranks onto a bounded worker pool. Sweeps the store case over
/// P ∈ {16, 64, 256, 1024} on a handful of OS threads; rows whose processor
/// count exceeds what the grid system can feasibly absorb are reported as
/// such rather than aborting the sweep.
pub fn scaling(e: Effort) {
    let workers = e.max_threads.unwrap_or(8);
    println!("\n== Scaling: store case on an M:N scheduler ({workers} OS threads) ==");
    println!(
        "{:>6} {:>12} | {:>10} {:>10} | {:>9} | {:>10}",
        "Ranks", "Pts/node", "t/step", "Speedup", "%DCF3D", "Mf/n SP2"
    );
    // A couple of steps are enough to exercise the full comm pattern; the
    // point of this sweep is rank-count scale, not time-averaging.
    let steps = e.steps3d.clamp(2, 3);
    let mut t0: Option<f64> = None;
    for &n in &[16usize, 64, 256, 1024] {
        let mut cfg = store_case(e.scale3d, steps);
        cfg.max_threads = Some(workers);
        match run_case(&cfg, n, &sp2()) {
            Ok(r) => {
                let t = r.time_per_step();
                let base = *t0.get_or_insert(t);
                println!(
                    "{:>6} {:>12} | {:>10.3} {:>10.2} | {:>8.1}% | {:>10.1}",
                    n,
                    r.total_points / n,
                    t,
                    base / t,
                    100.0 * r.connectivity_fraction(),
                    r.mflops_per_node(),
                );
            }
            Err(err) => println!("{:>6} {:>12} | infeasible at this scale: {err}", n, "-"),
        }
    }
}

/// Ablation A4: cache model on/off (explains the paper's super-scalar
/// speedups).
pub fn ablate_cache(e: Effort) {
    println!("\n== Ablation: cache performance model (airfoil, SP2) ==");
    println!("{:>6} | {:>12} {:>12}", "Nodes", "Mf/n cache", "Mf/n flat");
    for &n in &[6usize, 12, 24, 48] {
        let with = run_case(&tuned(airfoil_case(e.scale2d, e.steps2d), e), n, &sp2()).unwrap();
        let flat = run_case(
            &tuned(airfoil_case(e.scale2d, e.steps2d), e),
            n,
            &sp2().without_cache_model(),
        )
        .unwrap();
        println!("{:>6} | {:>12.1} {:>12.1}", n, with.mflops_per_node(), flat.mflops_per_node());
    }
}
