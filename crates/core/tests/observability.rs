//! Tests of the observability layer end to end: trace determinism, the
//! Chrome trace_event schema, metrics aggregation, and the exact per-phase
//! elapsed times surfaced through `PerfSummary`.

use overflow_d::{airfoil_case, run_case, Equivalence};
use overset_comm::metrics::names;
use overset_comm::trace::TraceConfig;
use overset_comm::{chrome_trace_json, MachineModel, Phase};

fn traced_airfoil() -> overflow_d::RunResult {
    let mut cfg = airfoil_case(0.3, 3);
    cfg.trace = TraceConfig::enabled();
    run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap()
}

/// Two identical runs must serialize to byte-identical trace JSON — the
/// runtime is deterministic in virtual time and the exporter must not
/// introduce nondeterminism (map iteration order, pointers, wall clock).
#[test]
fn trace_json_is_byte_identical_across_runs() {
    let a = chrome_trace_json(&traced_airfoil().trace);
    let b = chrome_trace_json(&traced_airfoil().trace);
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace JSON differs between identical runs");
}

/// Golden-schema test for the Chrome trace_event export: the structural
/// invariants chrome://tracing and Perfetto rely on. Checked as substrings
/// (no JSON parser in the workspace) — each is a stable part of the format,
/// not an incidental detail of our writer.
#[test]
fn trace_json_matches_chrome_trace_event_schema() {
    let r = traced_airfoil();
    let json = chrome_trace_json(&r.trace);

    // Top-level object with a traceEvents array and ms display units.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    // Virtual-clock marker in otherData.
    assert!(json.contains("\"clock\":\"virtual\""));
    // One process-name metadata event per rank.
    for rank in 0..r.nranks {
        assert!(
            json.contains(&format!("\"ph\":\"M\",\"pid\":{rank},")),
            "no process metadata for rank {rank}"
        );
        assert!(json.contains(&format!("\"name\":\"rank {rank}\"")));
    }
    // Complete ("X") events carry ts and dur.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));

    // Every rank traced spans for all three per-step phases.
    for (rank, t) in r.trace.iter().enumerate() {
        assert_eq!(t.rank, rank);
        for phase in [Phase::Flow, Phase::Motion, Phase::Connectivity] {
            assert!(
                t.events.iter().any(|e| e.cat == "phase" && e.name == phase.name()),
                "rank {rank} has no {} phase span",
                phase.name()
            );
        }
        // Kernel- and comm-level spans ride inside the phases.
        assert!(t.events.iter().any(|e| e.cat == "solver"));
        assert!(t.events.iter().any(|e| e.cat == "comm"));
        assert!(t.events.iter().any(|e| e.cat == "conn"));
    }
}

/// Disabling tracing yields no events and identical physics/timing.
#[test]
fn disabled_tracing_is_invisible() {
    let quiet = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp2()).unwrap();
    assert!(quiet.trace.is_empty());
    let traced = traced_airfoil();
    assert_eq!(quiet.first_divergence(&traced, Equivalence::Full), None);
}

/// The aggregated registry reflects the run: donor-search service counts,
/// per-phase message traffic, and a positive warm-restart hit rate on a
/// multi-step moving case.
#[test]
fn metrics_registry_reflects_the_run() {
    let r = run_case(&airfoil_case(0.3, 4), 6, &MachineModel::modern()).unwrap();
    let m = &r.metrics;
    assert!(m.counter(names::CONN_SERVICED) > 0);
    // Every rank records at least one search round per step.
    assert!(m.counter(names::CONN_ROUNDS) >= (r.nranks * r.steps) as u64);
    // Halo exchange sends messages during both flow and connectivity.
    assert!(m.counter(names::msgs_in(Phase::Flow)) > 0);
    assert!(m.counter(names::msgs_in(Phase::Connectivity)) > 0);
    assert!(m.counter(names::bytes_in(Phase::Flow)) > 0);
    // The nth-level restart cache pays off after the first step.
    let rate = m.cache_hit_rate().expect("no donor searches recorded");
    assert!(rate > 0.5, "warm restart hit rate {rate} too low");
    // Orphan counter agrees with the driver's last-step report (no motion
    // between the counts: the last step's orphans are counted once per step).
    assert!(m.counter(names::CONN_ORPHANS) >= r.orphans_last as u64);
}

/// `PerfSummary::phase_time` is the exact elapsed per phase: with
/// barrier-separated phases it equals the driver's own elapsed accounting.
#[test]
fn summary_phase_time_matches_driver_accounting() {
    let r = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp2()).unwrap();
    for phase in [Phase::Flow, Phase::Motion, Phase::Connectivity] {
        let exact = r.summary.phase_time(phase);
        let driver = r.phase_elapsed[phase as usize];
        assert!(
            (exact - driver).abs() <= 1e-12 * driver.abs().max(1.0),
            "{}: summary {exact} != driver {driver}",
            phase.name()
        );
    }
}

/// Dynamic load balancing reads I(p) from the metrics registry; when it
/// repartitions, the registry records it.
#[test]
fn lb_metrics_record_repartitions() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = overflow_d::LbConfig::dynamic(1.05, 2);
    let r = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    // Every rank increments the counter once per repartition.
    assert_eq!(r.metrics.counter(names::LB_REPARTITIONS), (r.repartitions * r.nranks) as u64);
    let f = r.metrics.histogram(names::LB_F_RATIO).expect("no f(p) observations");
    assert!(f.count > 0 && f.max >= 1.0);
}

/// Streaming through the whole driver: the same airfoil case run once with
/// in-memory tracing and once with each streaming sink produces (a) a
/// Chrome document byte-identical to the in-memory exporter's and (b) a
/// binary span dir carrying exactly the in-memory spans and step records.
#[test]
fn driver_streamed_telemetry_matches_in_memory() {
    use overset_comm::{assemble_chrome, read_span_dir, StreamConfig};
    let dir = std::env::temp_dir().join("overset_driver_stream_identity");
    let _ = std::fs::remove_dir_all(&dir);
    let chrome_dir = dir.join("chrome");
    let spans_dir = dir.join("spans");

    let in_mem = traced_airfoil();
    let stream = |s: StreamConfig| {
        let mut cfg = airfoil_case(0.3, 3);
        cfg.trace = TraceConfig::enabled().with_stream(s);
        run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap()
    };

    let chrome_run = stream(StreamConfig::chrome(&chrome_dir));
    assert!(chrome_run.trace.iter().all(|t| t.events.is_empty()), "spans must go to disk");
    assert_eq!(assemble_chrome(&chrome_dir).unwrap(), chrome_trace_json(&in_mem.trace));

    let binary_run = stream(StreamConfig::binary(&spans_dir));
    let sd = read_span_dir(&spans_dir).unwrap();
    assert_eq!(sd.gaps, Vec::<String>::new());
    assert_eq!(sd.ranks.len(), in_mem.trace.len());
    for (mem, disk) in in_mem.trace.iter().zip(&sd.ranks) {
        assert_eq!(mem.rank, disk.rank);
        assert_eq!(mem.events, disk.events);
    }
    assert_eq!(sd.step_records(), in_mem.step_records);
    assert_eq!(binary_run.steps_dropped, 0);

    // Host wall-clock timers ride along on every run and are the one field
    // allowed to differ: nonnegative, and populated for the phases the
    // driver actually entered.
    for r in [&in_mem, &chrome_run, &binary_run] {
        assert!(r.host_phase_elapsed.iter().all(|&t| t >= 0.0));
        assert!(r.host_phase_elapsed.iter().sum::<f64>() > 0.0, "driver ran, host time must tick");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
