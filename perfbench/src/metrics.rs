//! Metric names, units and directions, and the one-line JSON result.

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `sim_` units are simulated time: exact for a seed, not host time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// Every end-to-end metric the report prints (untraced run).
pub const END_TO_END: [Def; 14] = [
    def("run_s", "s", Lower),
    def("events_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("allocs_per_event", "count", Lower),
    def("alloc_bytes_per_event", "B", Lower),
    def("peak_heap_mb", "MiB", Lower),
    def("model_mbps", "Mb/s", Higher),
    def("model_latency_p50_us", "sim_us", Lower),
    def("model_latency_p99_us", "sim_us", Lower),
    def("model_error_pct", "%", Lower),
    def("jobs_failed_frac", "ratio", Lower),
    def("run_wall_s", "s", Lower),
    def("setup_wall_s", "s", Lower),
    def("host_speed", "ratio", Higher),
];

/// End-to-end metrics left out of the result line. The latency quantiles
/// jump between clusters of job latencies from seed to seed on
/// lossy-recovery (they are exact per seed, and the reference digests gate
/// them), `model_error_pct` is n/a outside paper-grid, `jobs_failed_frac`
/// is the line's `failed` / `attempted`, and the unscaled host times and
/// the host speed follow the shared host's drift (see `calib`).
pub const REPORT_ONLY: [&str; 7] = [
    "model_latency_p50_us",
    "model_latency_p99_us",
    "model_error_pct",
    "jobs_failed_frac",
    "run_wall_s",
    "setup_wall_s",
    "host_speed",
];

/// Every per-layer metric the traced run reports.
pub const PER_LAYER: [Def; 51] = [
    def("bench.runner.overhead_s", "s", Lower),
    def("cluster.build_s", "s", Lower),
    def("cluster.drive_s", "s", Lower),
    def("cluster.assemble_s", "s", Lower),
    def("span.runner.self_s", "s", Lower),
    def("span.job.self_s", "s", Lower),
    def("span.build.self_s", "s", Lower),
    def("span.drive.self_s", "s", Lower),
    def("span.collect.self_s", "s", Lower),
    def("span.assemble.self_s", "s", Lower),
    def("alloc.setup_allocs", "count", Lower),
    def("alloc.run_allocs_per_event", "count", Lower),
    def("sim.events", "count", Lower),
    def("sim.engine_ns_per_event", "ns", Lower),
    def("sim.handler_ns_per_event", "ns", Lower),
    def("bytes.pool.recycle_ratio", "ratio", Higher),
    def("hw.mem.copy_bytes", "B", Lower),
    def("eth.switch.frames_forwarded", "count", Lower),
    def("eth.switch.drops", "count", Lower),
    def("eth.switch.ecn_marks", "count", Lower),
    def("eth.switch.queue_depth_peak", "frames", Lower),
    def("eth.fabric.trunk_tx_frames", "count", Lower),
    def("eth.link.frames_lost", "count", Lower),
    def("clic.ecn_echoes", "count", Lower),
    def("clic.packets_sent", "count", Lower),
    def("clic.retransmits", "count", Lower),
    def("clic.fast_retransmits", "count", Lower),
    def("clic.useful_ratio", "ratio", Higher),
    def("clic.drops", "count", Lower),
    def("clic.flow_failures", "count", Lower),
    def("tcp.retransmits", "count", Lower),
    def("os.syscalls", "count", Lower),
    def("os.irqs", "count", Lower),
    def("os.bottom_halves", "count", Lower),
    def("os.context_switches", "count", Lower),
    def("hw.nic.irqs", "count", Lower),
    def("hw.nic.tx_frames", "count", Lower),
    def("hw.pci.dma_bytes", "B", Lower),
    def("mpi.sends", "count", Lower),
    def("mpi.msg_bytes", "B", Lower),
    def("hw.nic.coll.msgs_tx", "count", Lower),
    def("stage.syscall_us", "sim_us", Lower),
    def("stage.clic_module_tx_us", "sim_us", Lower),
    def("stage.driver_tx_us", "sim_us", Lower),
    def("stage.nic_tx_dma_us", "sim_us", Lower),
    def("stage.flight_us", "sim_us", Lower),
    def("stage.bottom_half_us", "sim_us", Lower),
    def("stage.driver_rx_us", "sim_us", Lower),
    def("stage.clic_module_rx_us", "sim_us", Lower),
    def("stage.copy_to_user_us", "sim_us", Lower),
    def("trace.overhead_frac", "ratio", Lower),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// Values print with every digit (`{}` on `f64` is the shortest exact
/// round-trip form).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(Def, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", d.name, v, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
