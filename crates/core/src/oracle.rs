//! The run-equivalence oracle: the one place that decides whether two runs
//! of a case agree, and if not, names the first field that differs.
//!
//! Every toggle the driver offers (inverse maps, arena, SIMD lanes, tracing,
//! scheduler mode, transport backend) promises to leave some part of a
//! [`RunResult`] bit-identical. The promises nest, so the oracle checks at
//! one of three [`Equivalence`] levels; DESIGN.md §8 lists which toggle
//! uses which. Host wall-clock fields, traces and the allocator's
//! `peak_bytes` are nondeterministic or opt-in and are never compared.
//! Every float is compared by its bits.

use crate::driver::RunResult;
use overset_comm::{AllocRecord, AllocTotals, RankStats, StepRecord};
use std::collections::BTreeMap;

/// How much of two [`RunResult`]s must agree bit for bit. Ordered: each
/// level covers everything the previous one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Equivalence {
    /// Same physics and censuses: the final state (node for node when
    /// collected, else the `state_rms` bits), `igbps_last`, `orphans_last`,
    /// `repartitions`, `np_final`. Clocks and work may differ.
    Answers,
    /// Also the same `wall_time`, `phase_elapsed`, every [`RankStats`]
    /// field, metric counters, `serviced_last` and `step_records`. Host
    /// allocation counts may differ.
    Clocks,
    /// Also the same `alloc_by_rank` counts and bytes and `alloc_records`.
    Full,
}

impl RunResult {
    /// The first field at which `self` and `other` differ at `level`, as
    /// `"<path>: <self value> vs <other value>"`, or `None` when they agree.
    pub fn first_divergence(&self, other: &RunResult, level: Equivalence) -> Option<String> {
        let (a, b) = (self, other);
        let answers = || {
            states(a, b)
                .or_else(|| field("igbps_last", &a.igbps_last, &b.igbps_last))
                .or_else(|| field("orphans_last", &a.orphans_last, &b.orphans_last))
                .or_else(|| field("repartitions", &a.repartitions, &b.repartitions))
                .or_else(|| field("np_final", &a.np_final, &b.np_final))
        };
        let clocks = || {
            field("wall_time", &a.wall_time, &b.wall_time)
                .or_else(|| field("phase_elapsed", &a.phase_elapsed, &b.phase_elapsed))
                .or_else(|| field("rank_stats", &a.rank_stats, &b.rank_stats))
                .or_else(|| counters(a, b))
                .or_else(|| field("serviced_last", &a.serviced_last, &b.serviced_last))
                .or_else(|| field("step_records", &a.step_records, &b.step_records))
        };
        let allocs = || {
            field("alloc_by_rank", &a.alloc_by_rank, &b.alloc_by_rank)
                .or_else(|| field("alloc_records", &a.alloc_records, &b.alloc_records))
        };
        answers()
            .or_else(|| (level >= Equivalence::Clocks).then(clocks).flatten())
            .or_else(|| (level >= Equivalence::Full).then(allocs).flatten())
    }
}

/// `"<name><path>: a vs b"` for the first bitwise difference inside a field.
fn field<T: Same + ?Sized>(name: &str, a: &T, b: &T) -> Option<String> {
    a.first_diff(b).map(|d| format!("{name}{d}"))
}

/// The final state node for node when both runs collected it (in
/// (grid, i, j, k) order, so rank layout does not matter); the RMS
/// checksum's bits otherwise.
fn states(a: &RunResult, b: &RunResult) -> Option<String> {
    if a.states.is_empty() && b.states.is_empty() {
        return field("state_rms", &a.state_rms, &b.state_rms);
    }
    let sorted = |r: &RunResult| {
        let mut v = r.states.clone();
        v.sort_unstable_by_key(|s| (s.0, s.1.i, s.1.j, s.1.k));
        v
    };
    let (xs, ys) = (sorted(a), sorted(b));
    if xs.len() != ys.len() {
        return Some(format!("states.len: {} vs {}", xs.len(), ys.len()));
    }
    xs.iter().zip(&ys).find_map(|((g, c, q), (h, d, r))| {
        if (g, c) != (h, d) {
            return Some(format!("states: node sets differ at grid {g} {c:?} vs grid {h} {d:?}"));
        }
        q.first_diff(r).map(|x| format!("states[grid {g} ({}, {}, {})]{x}", c.i, c.j, c.k))
    })
}

/// The aggregated metric counters, by name (a counter one run never
/// touched reads as absent).
fn counters(a: &RunResult, b: &RunResult) -> Option<String> {
    let mut all: BTreeMap<&str, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for (name, v) in a.metrics.counters() {
        all.entry(name).or_default().0 = Some(v);
    }
    for (name, v) in b.metrics.counters() {
        all.entry(name).or_default().1 = Some(v);
    }
    all.into_iter()
        .find(|(_, (x, y))| x != y)
        .map(|(name, (x, y))| format!("metrics[{name}]: {x:?} vs {y:?}"))
}

/// Bitwise equality that reports where two values first differ: `None`
/// when identical, else the path below the value (`""` for a scalar,
/// `"[3].clock"` inside a vector of records) followed by both values.
trait Same {
    fn first_diff(&self, other: &Self) -> Option<String>;
}

impl Same for f64 {
    fn first_diff(&self, other: &Self) -> Option<String> {
        (self.to_bits() != other.to_bits()).then(|| format!(": {self:?} vs {other:?}"))
    }
}

macro_rules! same_by_eq {
    ($($t:ty),*) => {$(
        impl Same for $t {
            fn first_diff(&self, other: &Self) -> Option<String> {
                (self != other).then(|| format!(": {self:?} vs {other:?}"))
            }
        }
    )*};
}
same_by_eq!(u64, usize);

impl<T: Same> Same for [T] {
    fn first_diff(&self, other: &Self) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!(".len: {} vs {}", self.len(), other.len()));
        }
        self.iter()
            .zip(other)
            .enumerate()
            .find_map(|(i, (x, y))| x.first_diff(y).map(|d| format!("[{i}]{d}")))
    }
}

impl<T: Same> Same for Vec<T> {
    fn first_diff(&self, other: &Self) -> Option<String> {
        self.as_slice().first_diff(other.as_slice())
    }
}

impl<T: Same, const N: usize> Same for [T; N] {
    fn first_diff(&self, other: &Self) -> Option<String> {
        self.as_slice().first_diff(other.as_slice())
    }
}

/// Field-by-field [`Same`] for a record. The exhaustive destructuring
/// stops compiling when the record gains a field, so a new field cannot
/// slip past the oracle; fields listed after `skip` are deliberately
/// ignored.
macro_rules! same_record {
    ($t:ident { $($f:ident),* } $(skip { $($s:ident),* })?) => {
        impl Same for $t {
            fn first_diff(&self, other: &Self) -> Option<String> {
                let $t { $($f: _,)* $($($s: _,)*)? } = self;
                None $(.or_else(|| {
                    self.$f.first_diff(&other.$f).map(|d| format!(".{}{d}", stringify!($f)))
                }))*
            }
        }
    };
}
same_record!(RankStats { rank, time, flops, msgs_sent, bytes_sent, collectives, final_clock });
same_record!(StepRecord {
    step,
    time,
    clock,
    serviced,
    walk_steps,
    forwards,
    orphans,
    cache_hits,
    cache_misses,
    msgs_sent,
    bytes_sent,
    repartitions
});
same_record!(AllocRecord { step, allocs, bytes });
// `peak_bytes` depends on allocation order across threads: advisory only.
same_record!(AllocTotals { allocs, bytes, frees, freed_bytes } skip { peak_bytes });
