//! The benchmark measures the same program `scripts/bench_gate.sh` gates:
//! at seed 0 its `virt_step_s` equals `time_per_step` in the committed
//! `BENCH_quick.json` bit for bit, for the airfoil and dynamic-LB store
//! cases. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`; the store case is slow in a debug build.

use overflow_d::run_case;
use overset_perfbench::run::machine;
use overset_perfbench::sys::nproc;
use overset_perfbench::workload::Workload;

/// `summary.time_per_step` of the case labelled `label` in the baseline.
fn baseline_time_per_step(label: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_quick.json");
    let text = std::fs::read_to_string(path).expect("BENCH_quick.json is readable");
    let case = text.find(&format!("\"label\": \"{label}\"")).expect("case label present");
    let key = "\"time_per_step\": ";
    let start = case + text[case..].find(key).expect("time_per_step present") + key.len();
    let len = text[start..].find([',', '\n']).expect("value terminated");
    text[start..start + len].trim().parse().expect("time_per_step is a number")
}

/// The benchmark's `virt_step_s` for `w` at seed 0.
fn virt_step_s(w: Workload) -> f64 {
    let cfg = w.case(0, nproc());
    run_case(&cfg, w.nranks(), &machine()).expect("seed-0 run succeeds").time_per_step()
}

#[test]
fn airfoil_virt_step_matches_the_gate_baseline() {
    let base = baseline_time_per_step("representative");
    assert_eq!(virt_step_s(Workload::Airfoil6).to_bits(), base.to_bits());
}

#[test]
fn dynamic_store_virt_step_matches_the_gate_baseline() {
    let base = baseline_time_per_step("dynamic-lb");
    assert_eq!(virt_step_s(Workload::StoreDynlb18).to_bits(), base.to_bits());
}
