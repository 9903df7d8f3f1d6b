//! # clic-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Runs one workload (a set of figure families) through the program's
//! public API, checks every job's output, and reports host-time,
//! allocation and modelled metrics; a traced run adds per-layer work
//! counts and host-time spans. See `README.md` in this directory for the
//! metric map and the reasons behind each workload.

pub mod alloc;
pub mod calib;
pub mod check;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
