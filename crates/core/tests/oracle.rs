//! Self-test of the run-equivalence oracle: perturb one field of a real
//! run at a time and check that `RunResult::first_divergence` names exactly
//! that field at every level that covers it and stays silent at the levels
//! that don't. A check dropped from the oracle fails here.

use overflow_d::{airfoil_case, run_case, Equivalence, RunResult};
use overset_comm::{metrics::names, MachineModel, Phase};
use Equivalence::{Answers, Clocks, Full};

fn small_run() -> RunResult {
    let mut cfg = airfoil_case(0.3, 2);
    cfg.collect_state = true;
    run_case(&cfg, 3, &MachineModel::modern()).unwrap()
}

/// Flip the lowest mantissa bit: the smallest change a checksum can miss.
fn nudge(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() ^ 1);
}

/// Perturb a clone of `r` and check the verdict at every level: `path`
/// named from `covers` upwards, nothing below it.
fn check(r: &RunResult, covers: Option<Equivalence>, path: &str, perturb: impl Fn(&mut RunResult)) {
    let mut other = r.clone();
    perturb(&mut other);
    for level in [Answers, Clocks, Full] {
        let got = r.first_divergence(&other, level);
        if covers.is_some_and(|c| level >= c) {
            let msg = got.unwrap_or_else(|| panic!("{level:?} missed a change to {path}"));
            assert!(msg.starts_with(&format!("{path}:")), "{level:?}: expected {path}, got {msg}");
        } else {
            assert_eq!(got, None, "{level:?} must ignore {path}");
        }
    }
}

#[test]
fn oracle_names_exactly_the_perturbed_field() {
    let r = small_run();
    assert!(r.states.len() > 8 && r.nranks == 3 && r.steps == 2);
    for level in [Answers, Clocks, Full] {
        assert_eq!(r.first_divergence(&r.clone(), level), None, "{level:?}: clone diverged");
    }

    let (g, c, _) = r.states[7];
    let node = format!("states[grid {g} ({}, {}, {})][1]", c.i, c.j, c.k);
    check(&r, Some(Answers), &node, |m| nudge(&mut m.states[7].2[1]));
    check(&r, Some(Clocks), "rank_stats[1].final_clock", |m| {
        nudge(&mut m.rank_stats[1].final_clock)
    });
    check(&r, Some(Clocks), "step_records[2][1].clock", |m| nudge(&mut m.step_records[2][1].clock));
    check(&r, Some(Clocks), &format!("metrics[{}]", names::CONN_WALK_STEPS), |m| {
        m.metrics.add(names::CONN_WALK_STEPS, 1)
    });
    let conn = Phase::Connectivity as usize;
    check(&r, Some(Full), &format!("alloc_records[0][1].allocs[{conn}]"), |m| {
        m.alloc_records[0][1].allocs[conn] += 1
    });

    // Without collected states the checksum stands in for them.
    let mut bare = r.clone();
    bare.states.clear();
    check(&bare, Some(Answers), "state_rms", |m| nudge(&mut m.state_rms));

    // Host-side and order-dependent fields are never compared.
    check(&r, None, "alloc_by_rank[0].peak_bytes", |m| m.alloc_by_rank[0].peak_bytes += 1);
    check(&r, None, "host_phase_elapsed", |m| m.host_phase_elapsed[0] += 1.0);
}
