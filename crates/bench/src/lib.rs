//! # clic-bench — figure regeneration harness
//!
//! * `figures` binary — regenerates every table and figure of the paper's
//!   evaluation as CSV/text, or as one JSON document with `--json` (see
//!   `figures --help`); EXPERIMENTS.md records paper-vs-measured for each.
//!   Experiment jobs run on a worker pool (`--jobs N`), and every run
//!   simulates every job.
//! * [`runner`] — the worker pool: executes
//!   [`clic_cluster::jobs::JobSpec`] sets with results bit-identical to a
//!   serial run.
//! * [`json`] — the minimal JSON writer/reader behind `--json` output and
//!   the trace tests.
//!
//! The end-to-end and per-layer benchmark of the simulator itself is
//! `perfbench/`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod render;
pub mod runner;
