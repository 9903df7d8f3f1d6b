//! # clic-sim — discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Sim`] — a deterministic event loop of boxed closures on a binary
//!   heap ordered by `(time, seq)`,
//! * [`Cpu`] — a two-priority-class (IRQ > task) serial processor resource,
//! * [`SerialResource`] — a FIFO bus resource (PCI, memory bus),
//! * [`SimRng`] — a seeded, reproducible random source,
//! * [`stats`] — sample-exact latency and throughput measurement,
//! * [`metrics`] — the per-run registry of catalogued counters, gauges
//!   and log-bucketed histograms (plain-text dump exporter),
//! * [`trace`] — cross-layer span/event tracing with a Chrome trace-event
//!   JSON exporter (used to regenerate the paper's Figure 7 timing
//!   breakdown, and to trace any packet through the full pipeline),
//! * [`timeseries`] — the deterministic timeline recorder bucketing
//!   catalogued levels and rates over simulated time (CSV dump plus
//!   Perfetto counter tracks),
//! * [`catalog`] — one typed handle per metric and trace-stage name; a
//!   metric handle's sink set decides where [`Sim::record`] sends a
//!   value.
//!
//! A simulation is single-threaded; components are shared as
//! `Rc<RefCell<T>>` and captured by the event closures. Parameter sweeps run
//! many independent `Sim` instances in parallel (see `clic-cluster`).
//!
//! Determinism: events at equal timestamps execute in scheduling (FIFO)
//! order, and all randomness flows through [`SimRng`], so a run is a pure
//! function of its configuration and seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod engine;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use catalog::{Metric, Sinks, Stage};
pub use engine::{Action, ActionArm, EngineProbe, Sim};
pub use metrics::{LogHistogram, Metrics};
pub use resource::{Cpu, CpuClass, SerialResource};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timeseries::TimelineRecorder;
pub use trace::{Layer, Mark, StageSpan, Trace, TraceError, TraceEvent};
