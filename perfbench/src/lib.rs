//! The repository benchmark: the paper's three cases run end to end on
//! both clocks (host wall time and the SP2 model's virtual time), and a
//! traced single-thread replay that splits host time by layer. See
//! `perfbench/README.md` for the workloads, metrics and measured spread.

pub mod check;
pub mod replay;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
