//! # clic-cluster — cluster assembly, workloads and paper experiments
//!
//! Puts the pieces together into simulated clusters and drives the
//! workloads that regenerate every figure of the paper's evaluation:
//!
//! * [`calibration`] — the single place all cost-model constants come
//!   from, with their paper provenance.
//! * [`node`] — one host: CPU + kernel + PCI + NIC(s) + any of the CLIC /
//!   TCP-IP / GAMMA stacks.
//! * [`builder`] — two-node back-to-back or N-node switched clusters,
//!   optional channel bonding and loss injection.
//! * [`lifecycle`] — schedulable node crash-stop / crash-restart and link
//!   flap: the fault actuators behind the chaos-soak harness.
//! * [`workload`] — ping-pong latency and unidirectional streaming
//!   bandwidth drivers for every stack (raw CLIC, TCP, MPI-CLIC, MPI-TCP,
//!   PVM-TCP, GAMMA), plus the chaos-soak and incast robustness
//!   workloads.
//! * [`jobs`] — the unit of experiment execution: every figure point is a
//!   self-contained, named [`jobs::JobSpec`] that builds its own cluster,
//!   runs one measurement and returns a flat [`jobs::Measurement`]. Jobs
//!   are pure and `Send`, so any scheduler (serial or a thread pool) can
//!   run them.
//! * [`experiments`] — one function per paper figure/table plus the
//!   ablations listed in DESIGN.md §4: per-figure job builders and
//!   order-independent assemblers, returning structured rows the
//!   `clic-bench` harness prints.
//! * [`observe`] — traced pipeline runs for the observability tooling:
//!   Chrome trace-event JSON, per-stage breakdowns for any message size
//!   and MTU, and merged per-node metric registries.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod calibration;
pub mod experiments;
pub mod jobs;
pub mod lifecycle;
pub mod node;
pub mod observe;
pub mod workload;

pub use builder::{Cluster, ClusterConfig, Topology};
pub use calibration::CostModel;
pub use node::{Node, NodeConfig};
pub use observe::{
    run_collective_trace, run_pipeline_trace, CollectiveTrace, PipelineTrace, TraceScenario,
};
pub use workload::{
    collective_scale, mpi_all, ping_pong, stream, CollScaleResult, PingPongResult, StackKind,
    StreamResult,
};
