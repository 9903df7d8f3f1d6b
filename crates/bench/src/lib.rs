//! # clic-bench — figure regeneration and performance benchmarks
//!
//! * `figures` binary — regenerates every table and figure of the paper's
//!   evaluation as CSV/text (see `figures --help`); EXPERIMENTS.md records
//!   paper-vs-measured for each. Experiment jobs run on a worker pool
//!   (`--jobs N`) backed by a content-addressed result cache. Figure runs
//!   leave `BENCH_figures.json` untouched; `figures bench` is its only
//!   writer.
//! * [`runner`] — the worker pool + cache: executes
//!   [`clic_cluster::jobs::JobSpec`] sets with results bit-identical to a
//!   serial run.
//! * [`json`] — the minimal JSON reader/writer behind the cache,
//!   `--json` output and `BENCH_figures.json`.
//! * `figures bench` — an uncached full-grid replay reporting
//!   whole-simulator events/second, with host time and events
//!   self-profiled per figure family; it writes the whole
//!   `BENCH_figures.json` timing report. The end-to-end and per-layer
//!   benchmark of the simulator is `perfbench/`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod render;
pub mod runner;
