//! One function per paper figure/table, plus the DESIGN.md ablations.
//!
//! Every figure is decomposed into independent, named [`JobSpec`]s (see
//! [`crate::jobs`]): `<figure>_jobs(..)` lists the grid points and
//! `<figure>_from(..)` assembles the figure from a [`ResultMap`] keyed by
//! job id — so assembly is independent of the order jobs completed in,
//! and the whole grid can be executed by any scheduler (the parallel
//! runner lives in `clic-bench`). The plain `fig4(..)`-style functions
//! that remain are convenience wrappers, used by [`claims`] and the tests,
//! that run their own jobs serially in-process.

use crate::builder::{ClusterConfig, Topology};
use crate::calibration::CostModel;
use crate::jobs::{sweep_point, JobKind, JobSpec, Measurement};
use crate::node::NodeConfig;
use crate::workload::StackKind;
use clic_core::{ClicConfig, CongestionConfig};
use clic_ethernet::LossModel;
use clic_sim::SimDuration;
use std::collections::BTreeMap;

/// Job results keyed by job id. Deterministically ordered, so iteration
/// (and therefore everything assembled from it) is reproducible.
pub type ResultMap = BTreeMap<String, Measurement>;

/// Run a job set serially on the calling thread. The reference executor:
/// the parallel runner in `clic-bench` must produce bit-identical maps.
pub fn run_serial(specs: &[JobSpec]) -> ResultMap {
    specs
        .iter()
        .map(|spec| (spec.id.clone(), spec.run()))
        .collect()
}

/// A bandwidth point.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Message size in bytes (the x axis).
    pub size: usize,
    /// Delivered bandwidth in Mb/s (the y axis).
    pub mbps: f64,
}

/// One labelled curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points, ascending in size.
    pub points: Vec<SeriesPoint>,
}

/// The message sizes of the paper's x axis (10^1 .. 4·10^6, log-spaced).
pub fn paper_sizes() -> Vec<usize> {
    vec![
        16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 131_072,
        262_144, 524_288, 1_048_576, 2_097_152, 4_194_304,
    ]
}

/// A reduced size set for quick runs and tests.
pub fn quick_sizes() -> Vec<usize> {
    vec![64, 1_024, 4_096, 65_536, 1_048_576]
}

/// The jobs of one bandwidth sweep: one standard stream job per size,
/// with ids `"<prefix>/<label>/size=<n>"`.
pub fn sweep_jobs(
    prefix: &str,
    label: &str,
    config: &ClusterConfig,
    stack: StackKind,
    sizes: &[usize],
) -> Vec<JobSpec> {
    sizes
        .iter()
        .map(|&size| {
            sweep_point(
                format!("{prefix}/{label}/size={size}"),
                config.clone(),
                stack,
                size,
            )
        })
        .collect()
}

/// Assemble one sweep's [`Series`] from its job results.
pub fn sweep_from(results: &ResultMap, prefix: &str, label: &str, sizes: &[usize]) -> Series {
    let points = sizes
        .iter()
        .map(|&size| SeriesPoint {
            size,
            mbps: results[&format!("{prefix}/{label}/size={size}")].require("mbps"),
        })
        .collect();
    Series {
        label: label.to_string(),
        points,
    }
}

/// Run a bandwidth sweep for one (cluster config, stack) pair, serially
/// in-process. Convenience wrapper over [`sweep_jobs`]/[`sweep_from`].
pub fn bandwidth_sweep(
    label: &str,
    config: &ClusterConfig,
    stack: StackKind,
    sizes: &[usize],
) -> Series {
    let specs = sweep_jobs("sweep", label, config, stack, sizes);
    sweep_from(&run_serial(&specs), "sweep", label, sizes)
}

/// The paper's two-node CLIC testbed config: standard or jumbo MTU,
/// zero-copy or one-copy module.
pub fn clic_pair(model: &CostModel, jumbo: bool, zero_copy: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(model);
    cfg.node.nic = if jumbo {
        model.nic_jumbo()
    } else {
        model.nic_standard()
    };
    cfg.node.clic = Some(if zero_copy {
        ClicConfig::paper_default()
    } else {
        ClicConfig::one_copy()
    });
    cfg
}

/// The TCP/IP baseline config on the same hardware.
pub fn tcp_pair(model: &CostModel, jumbo: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::tcp_default(model);
    cfg.node.nic = if jumbo {
        model.nic_jumbo()
    } else {
        model.nic_standard()
    };
    cfg
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

/// Figure 4's four (label, jumbo, zero-copy) sweeps.
fn fig4_cases() -> Vec<(&'static str, bool, bool)> {
    vec![
        ("0-copy MTU 9000", true, true),
        ("0-copy MTU 1500", false, true),
        ("1-copy MTU 9000", true, false),
        ("1-copy MTU 1500", false, false),
    ]
}

/// Figure 4 jobs: CLIC bandwidth for MTU {1500, 9000} × {0-copy, 1-copy}.
pub fn fig4_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    fig4_cases()
        .into_iter()
        .flat_map(|(label, jumbo, zc)| {
            sweep_jobs(
                "fig4",
                label,
                &clic_pair(&model, jumbo, zc),
                StackKind::Clic,
                sizes,
            )
        })
        .collect()
}

/// Assemble Figure 4 from job results.
pub fn fig4_from(results: &ResultMap, sizes: &[usize]) -> Vec<Series> {
    fig4_cases()
        .into_iter()
        .map(|(label, _, _)| sweep_from(results, "fig4", label, sizes))
        .collect()
}

/// Figure 4: CLIC bandwidth for MTU {1500, 9000} × {0-copy, 1-copy}.
pub fn fig4(sizes: &[usize]) -> Vec<Series> {
    fig4_from(&run_serial(&fig4_jobs(sizes)), sizes)
}

/// Figure 5's four (label, config, stack) sweeps.
fn fig5_cases() -> Vec<(&'static str, ClusterConfig, StackKind)> {
    let model = CostModel::era_2002();
    vec![
        ("CLIC 9000", clic_pair(&model, true, true), StackKind::Clic),
        ("CLIC 1500", clic_pair(&model, false, true), StackKind::Clic),
        ("TCP 9000", tcp_pair(&model, true), StackKind::Tcp),
        ("TCP 1500", tcp_pair(&model, false), StackKind::Tcp),
    ]
}

/// Figure 5 jobs: CLIC vs TCP/IP for MTU {1500, 9000}, all 0-copy.
pub fn fig5_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    fig5_cases()
        .into_iter()
        .flat_map(|(label, cfg, stack)| sweep_jobs("fig5", label, &cfg, stack, sizes))
        .collect()
}

/// Assemble Figure 5 from job results.
pub fn fig5_from(results: &ResultMap, sizes: &[usize]) -> Vec<Series> {
    fig5_cases()
        .into_iter()
        .map(|(label, _, _)| sweep_from(results, "fig5", label, sizes))
        .collect()
}

/// Figure 5: CLIC vs TCP/IP for MTU {1500, 9000}, all 0-copy.
pub fn fig5(sizes: &[usize]) -> Vec<Series> {
    fig5_from(&run_serial(&fig5_jobs(sizes)), sizes)
}

/// Figure 6's four middleware sweeps.
fn fig6_cases() -> Vec<(&'static str, ClusterConfig, StackKind)> {
    let model = CostModel::era_2002();
    vec![
        ("CLIC", clic_pair(&model, true, true), StackKind::Clic),
        (
            "MPI-CLIC",
            clic_pair(&model, true, true),
            StackKind::MpiClic,
        ),
        ("MPI-TCP", tcp_pair(&model, true), StackKind::MpiTcp),
        ("PVM-TCP", tcp_pair(&model, true), StackKind::PvmTcp),
    ]
}

/// Figure 6 jobs: CLIC, MPI-CLIC, MPI-TCP, PVM-TCP (jumbo, 0-copy).
pub fn fig6_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    fig6_cases()
        .into_iter()
        .flat_map(|(label, cfg, stack)| sweep_jobs("fig6", label, &cfg, stack, sizes))
        .collect()
}

/// Assemble Figure 6 from job results.
pub fn fig6_from(results: &ResultMap, sizes: &[usize]) -> Vec<Series> {
    fig6_cases()
        .into_iter()
        .map(|(label, _, _)| sweep_from(results, "fig6", label, sizes))
        .collect()
}

/// Figure 6: CLIC, MPI-CLIC, MPI-TCP, PVM-TCP (jumbo frames, 0-copy).
pub fn fig6(sizes: &[usize]) -> Vec<Series> {
    fig6_from(&run_serial(&fig6_jobs(sizes)), sizes)
}

/// One pipeline stage of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name, in pipeline order.
    pub stage: String,
    /// Stage duration in microseconds.
    pub us: f64,
}

/// The Figure 7 cluster config: latency-tuned NIC; `direct_call` selects
/// the Figure 8b improvement (7b vs 7a), which also assumes a bus-master
/// receive path (frames in host memory before the interrupt) — the driver
/// change the portable CLIC deliberately avoided.
fn fig7_config(direct_call: bool) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, false, true);
    cfg.node.nic = model.nic_low_latency(false);
    cfg.node.direct_dispatch = direct_call;
    cfg.node.nic.host_rings = direct_call;
    cfg
}

/// Figure 7 jobs: one traced 1400-byte packet per variant (7a, 7b).
pub fn fig7_jobs() -> Vec<JobSpec> {
    [false, true]
        .into_iter()
        .map(|direct_call| {
            JobSpec::new(
                format!("fig7/{}", if direct_call { "7b" } else { "7a" }),
                JobKind::StageTrace {
                    cluster: fig7_config(direct_call),
                    seed: 0,
                },
            )
        })
        .collect()
}

/// Assemble one Figure 7 variant from job results.
pub fn fig7_from(results: &ResultMap, direct_call: bool) -> Vec<StageRow> {
    let id = format!("fig7/{}", if direct_call { "7b" } else { "7a" });
    results[&id]
        .values
        .iter()
        .filter(|(stage, _)| !stage.starts_with(crate::jobs::METRIC_KEY_PREFIX))
        .map(|(stage, us)| StageRow {
            stage: stage.clone(),
            us: *us,
        })
        .collect()
}

/// Figure 7: per-stage timing of a 1400-byte packet through the CLIC
/// pipeline. `direct_call` selects the Figure 8b improvement (7b vs 7a).
pub fn fig7(direct_call: bool) -> Vec<StageRow> {
    fig7_from(&run_serial(&fig7_jobs()), direct_call)
}

// ---------------------------------------------------------------------
// Scalar results (§4 prose)
// ---------------------------------------------------------------------

/// The headline scalars of §4/§5.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalars {
    /// One-way 0-byte latency, µs (paper: 36 µs).
    pub zero_byte_latency_us: f64,
    /// Asymptotic CLIC bandwidth at MTU 9000, Mb/s (paper: ≈ 600).
    pub clic_asymptote_9000_mbps: f64,
    /// Asymptotic CLIC bandwidth at MTU 1500, Mb/s (paper: ≈ 450).
    pub clic_asymptote_1500_mbps: f64,
    /// Best TCP asymptote (MTU 9000), Mb/s (paper: CLIC > 2× this).
    pub tcp_asymptote_9000_mbps: f64,
    /// Message size reaching 50 % of CLIC's peak on the MTU 1500 curve,
    /// bytes (paper: ≈ 4 KB).
    pub clic_half_bandwidth_bytes_1500: usize,
    /// Same for the MTU 9000 curve (jumbo store-and-forward granularity
    /// pushes this out; see EXPERIMENTS.md).
    pub clic_half_bandwidth_bytes_9000: usize,
    /// Message size reaching 50 % of TCP's peak, bytes (paper: ≈ 16 KB).
    pub tcp_half_bandwidth_bytes: usize,
}

fn half_bandwidth_point(series: &Series) -> usize {
    let peak = series.points.iter().map(|p| p.mbps).fold(0.0f64, f64::max);
    series
        .points
        .iter()
        .find(|p| p.mbps >= peak / 2.0)
        .map(|p| p.size)
        .unwrap_or(usize::MAX)
}

/// The latency-measurement config: ping-pong with the latency-tuned NIC,
/// as the paper's latency figure uses the NICs' adjustable coalescing.
fn latency_config() -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, false, true);
    cfg.node.nic = model.nic_low_latency(false);
    cfg
}

/// Scalars jobs: a latency ping-pong plus three bandwidth sweeps.
pub fn scalars_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    let mut specs = vec![JobSpec::new(
        "scalars/latency",
        JobKind::PingPong {
            cluster: latency_config(),
            stack: StackKind::Clic,
            size: 0,
            rounds: 20,
            seed: 1,
        },
    )];
    specs.extend(sweep_jobs(
        "scalars",
        "c9000",
        &clic_pair(&model, true, true),
        StackKind::Clic,
        sizes,
    ));
    specs.extend(sweep_jobs(
        "scalars",
        "c1500",
        &clic_pair(&model, false, true),
        StackKind::Clic,
        sizes,
    ));
    specs.extend(sweep_jobs(
        "scalars",
        "t9000",
        &tcp_pair(&model, true),
        StackKind::Tcp,
        sizes,
    ));
    specs
}

/// Assemble the §4 scalars from job results.
pub fn scalars_from(results: &ResultMap, sizes: &[usize]) -> Scalars {
    let clic_9000 = sweep_from(results, "scalars", "c9000", sizes);
    let clic_1500 = sweep_from(results, "scalars", "c1500", sizes);
    let tcp_9000 = sweep_from(results, "scalars", "t9000", sizes);
    let peak = |s: &Series| s.points.iter().map(|p| p.mbps).fold(0.0f64, f64::max);
    Scalars {
        zero_byte_latency_us: results["scalars/latency"].require("one_way_us"),
        clic_asymptote_9000_mbps: peak(&clic_9000),
        clic_asymptote_1500_mbps: peak(&clic_1500),
        tcp_asymptote_9000_mbps: peak(&tcp_9000),
        clic_half_bandwidth_bytes_1500: half_bandwidth_point(&clic_1500),
        clic_half_bandwidth_bytes_9000: half_bandwidth_point(&clic_9000),
        tcp_half_bandwidth_bytes: half_bandwidth_point(&tcp_9000),
    }
}

/// Compute the §4 scalars.
pub fn scalars(sizes: &[usize]) -> Scalars {
    scalars_from(&run_serial(&scalars_jobs(sizes)), sizes)
}

// ---------------------------------------------------------------------
// §5 comparison table (CLIC vs GAMMA)
// ---------------------------------------------------------------------

/// One row of the §5 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Protocol name.
    pub protocol: String,
    /// One-way 0-byte latency, µs.
    pub latency_us: f64,
    /// Peak bandwidth, Mb/s.
    pub bandwidth_mbps: f64,
}

fn gamma_config() -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::gamma_default(&model);
    cfg
}

/// Gamma-table jobs: per protocol, a latency ping-pong plus a sweep.
pub fn gamma_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    let mut specs = vec![JobSpec::new(
        "gamma/clic/latency",
        JobKind::PingPong {
            cluster: latency_config(),
            stack: StackKind::Clic,
            size: 0,
            rounds: 20,
            seed: 1,
        },
    )];
    specs.extend(sweep_jobs(
        "gamma",
        "clic",
        &clic_pair(&model, true, true),
        StackKind::Clic,
        sizes,
    ));
    specs.push(JobSpec::new(
        "gamma/gamma/latency",
        JobKind::PingPong {
            cluster: gamma_config(),
            stack: StackKind::Gamma,
            size: 0,
            rounds: 20,
            seed: 1,
        },
    ));
    specs.extend(sweep_jobs(
        "gamma",
        "gamma",
        &gamma_config(),
        StackKind::Gamma,
        sizes,
    ));
    specs
}

/// Assemble the §5 comparison from job results.
pub fn gamma_from(results: &ResultMap, sizes: &[usize]) -> Vec<ComparisonRow> {
    let peak = |s: &Series| s.points.iter().map(|p| p.mbps).fold(0.0f64, f64::max);
    vec![
        ComparisonRow {
            protocol: "CLIC".into(),
            latency_us: results["gamma/clic/latency"].require("one_way_us"),
            bandwidth_mbps: peak(&sweep_from(results, "gamma", "clic", sizes)),
        },
        ComparisonRow {
            protocol: "GAMMA (model)".into(),
            latency_us: results["gamma/gamma/latency"].require("one_way_us"),
            bandwidth_mbps: peak(&sweep_from(results, "gamma", "gamma", sizes)),
        },
    ]
}

/// CLIC vs the GAMMA-like baseline.
pub fn gamma_table(sizes: &[usize]) -> Vec<ComparisonRow> {
    gamma_from(&run_serial(&gamma_jobs(sizes)), sizes)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Ablation A row: interrupt coalescing setting vs delivered bandwidth,
/// interrupt rate and small-message latency.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalescingRow {
    /// Coalescing timer, µs.
    pub usecs: u64,
    /// Coalescing frame threshold.
    pub frames: u32,
    /// Streaming bandwidth at MTU 1500, Mb/s.
    pub mbps: f64,
    /// Receiver interrupts per 1000 delivered frames.
    pub irqs_per_kframe: f64,
    /// 0-byte one-way latency, µs.
    pub latency_us: f64,
}

/// The coalescing settings swept by Ablation A.
fn coalescing_settings() -> &'static [(u64, u32)] {
    &[(0, 1), (5, 1), (30, 8), (70, 16), (200, 64)]
}

/// Ablation A jobs: per setting, a 256 KB stream and a 0-byte ping-pong.
pub fn coalescing_jobs() -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    let mut specs = Vec::new();
    for &(usecs, frames) in coalescing_settings() {
        let mut cfg = clic_pair(&model, false, true);
        cfg.node.nic.coalesce_usecs = usecs;
        cfg.node.nic.coalesce_frames = frames;
        let size = 262_144;
        specs.push(JobSpec::new(
            format!("coalescing/u{usecs}f{frames}/stream"),
            JobKind::Stream {
                cluster: cfg.clone(),
                stack: StackKind::Clic,
                size,
                count: crate::workload::stream_count(size),
                seed: 2,
                pipelined: false,
            },
        ));
        specs.push(JobSpec::new(
            format!("coalescing/u{usecs}f{frames}/latency"),
            JobKind::PingPong {
                cluster: cfg,
                stack: StackKind::Clic,
                size: 0,
                rounds: 10,
                seed: 3,
            },
        ));
    }
    specs
}

/// Assemble Ablation A from job results.
pub fn coalescing_from(results: &ResultMap) -> Vec<CoalescingRow> {
    coalescing_settings()
        .iter()
        .map(|&(usecs, frames)| {
            let stream = &results[&format!("coalescing/u{usecs}f{frames}/stream")];
            let latency = &results[&format!("coalescing/u{usecs}f{frames}/latency")];
            CoalescingRow {
                usecs,
                frames,
                mbps: stream.require("mbps"),
                irqs_per_kframe: stream.require("rx_irqs") / stream.require("rx_frames").max(1.0)
                    // lint:allow(time-overflow, reason="f64 rate arithmetic; the nearby _us field name is incidental")
                    * 1000.0,
                latency_us: latency.require("one_way_us"),
            }
        })
        .collect()
}

/// Ablation A: sweep interrupt coalescing (§2's ~12 µs/interrupt claim).
pub fn ablation_coalescing() -> Vec<CoalescingRow> {
    coalescing_from(&run_serial(&coalescing_jobs()))
}

/// Ablation B's two configurations: baseline vs NIC fragmentation
/// offload. With offload the module can hand the NIC super-packets;
/// emulate the Alteon firmware's limit of 255 fragments.
fn fragmentation_cases() -> Vec<(&'static str, ClusterConfig)> {
    let model = CostModel::era_2002();
    let base = clic_pair(&model, false, true);
    let mut offload = base.clone();
    offload.node.nic.tx_frag_offload = true;
    offload.node.nic.rx_frag_offload = true;
    if let Some(clic) = &mut offload.node.clic {
        clic.mtu_override = Some(64 * 1024);
    }
    vec![
        ("no offload (MTU 1500)", base),
        ("frag offload (64K super-packets)", offload),
    ]
}

/// Ablation B jobs — NIC TX/RX fragmentation offload (the paper's future
/// work): both sweeps.
pub fn fragmentation_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    fragmentation_cases()
        .into_iter()
        .flat_map(|(label, cfg)| sweep_jobs("fragmentation", label, &cfg, StackKind::Clic, sizes))
        .collect()
}

/// Assemble Ablation B from job results.
pub fn fragmentation_from(results: &ResultMap, sizes: &[usize]) -> Vec<Series> {
    fragmentation_cases()
        .into_iter()
        .map(|(label, _)| sweep_from(results, "fragmentation", label, sizes))
        .collect()
}

/// Ablation C row: channel bonding width vs bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct BondingRow {
    /// Number of bonded NICs/links.
    pub width: usize,
    /// Bandwidth on the paper's 33 MHz/32-bit PCI, Mb/s.
    pub mbps_pci33: f64,
    /// Bandwidth with a 66 MHz/64-bit PCI and bus-master receive — shows
    /// bonding scales once the I/O bus stops being the bottleneck (the
    /// very bottleneck §1 calls out).
    pub mbps_pci66: f64,
}

fn bonding_config(width: usize, fast: bool) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, true, true);
    cfg.node.nics = width;
    cfg.node.fast_pci = fast;
    if fast {
        cfg.node.nic.host_rings = true;
    }
    cfg
}

/// Ablation C jobs: width {1, 2, 3} × PCI {33/32, 66/64}.
pub fn bonding_jobs() -> Vec<JobSpec> {
    let size = 1 << 20;
    (1..=3)
        .flat_map(|width| {
            [(false, "pci33"), (true, "pci66")]
                .into_iter()
                .map(move |(fast, tag)| {
                    JobSpec::new(
                        format!("bonding/w{width}/{tag}"),
                        JobKind::Stream {
                            cluster: bonding_config(width, fast),
                            stack: StackKind::Clic,
                            size,
                            count: crate::workload::stream_count(size),
                            seed: 4,
                            pipelined: false,
                        },
                    )
                })
        })
        .collect()
}

/// Assemble Ablation C from job results.
pub fn bonding_from(results: &ResultMap) -> Vec<BondingRow> {
    (1..=3)
        .map(|width| BondingRow {
            width,
            mbps_pci33: results[&format!("bonding/w{width}/pci33")].require("mbps"),
            mbps_pci66: results[&format!("bonding/w{width}/pci66")].require("mbps"),
        })
        .collect()
}

/// Ablation C: channel bonding scaling (§5 feature list).
pub fn ablation_bonding() -> Vec<BondingRow> {
    bonding_from(&run_serial(&bonding_jobs()))
}

/// Ablation D row: system-call flavour vs latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallRow {
    /// "standard" (INT 80h + scheduler) or "lightweight" (GAMMA-style).
    pub flavour: String,
    /// 0-byte one-way latency, µs.
    pub latency_us: f64,
}

/// Ablation D jobs: one ping-pong per system-call flavour.
pub fn syscall_jobs() -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    [("standard", false), ("lightweight", true)]
        .into_iter()
        .map(|(flavour, lightweight)| {
            let mut cfg = clic_pair(&model, false, true);
            cfg.node.nic = model.nic_low_latency(false);
            if lightweight {
                cfg.node.os.syscall = cfg.node.os.lightweight_call;
            }
            JobSpec::new(
                format!("syscall/{flavour}"),
                JobKind::PingPong {
                    cluster: cfg,
                    stack: StackKind::Clic,
                    size: 0,
                    rounds: 10,
                    seed: 5,
                },
            )
        })
        .collect()
}

/// Assemble Ablation D from job results.
pub fn syscall_from(results: &ResultMap) -> Vec<SyscallRow> {
    ["standard", "lightweight"]
        .into_iter()
        .map(|flavour| SyscallRow {
            flavour: flavour.into(),
            latency_us: results[&format!("syscall/{flavour}")].require("one_way_us"),
        })
        .collect()
}

/// Ablation D: the §3.2 discussion — how much does the standard system
/// call actually cost CLIC versus GAMMA-style lightweight calls?
pub fn ablation_syscall() -> Vec<SyscallRow> {
    syscall_from(&run_serial(&syscall_jobs()))
}

/// Ablation E row: loss rate vs CLIC goodput and retransmissions.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRow {
    /// Bernoulli frame-loss probability.
    pub loss: f64,
    /// Delivered goodput, Mb/s (64 KB messages, MTU 1500).
    pub mbps: f64,
    /// Retransmitted packets per 1000 first transmissions.
    pub retx_per_kpkt: f64,
}

/// The loss probabilities swept by Ablation E.
fn loss_rates() -> [f64; 4] {
    [0.0, 0.001, 0.005, 0.02]
}

/// Ablation E jobs: one 64 KB stream per loss rate.
pub fn loss_jobs() -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    loss_rates()
        .into_iter()
        .map(|loss| {
            let mut cfg = clic_pair(&model, false, true);
            cfg.loss = if loss == 0.0 {
                LossModel::None
            } else {
                LossModel::Bernoulli(loss)
            };
            let size = 65_536;
            JobSpec::new(
                format!("loss/p{loss}"),
                JobKind::Stream {
                    cluster: cfg,
                    stack: StackKind::Clic,
                    size,
                    count: crate::workload::stream_count(size),
                    seed: 6,
                    pipelined: false,
                },
            )
        })
        .collect()
}

/// Assemble Ablation E from job results.
pub fn loss_from(results: &ResultMap) -> Vec<LossRow> {
    loss_rates()
        .into_iter()
        .map(|loss| {
            let m = &results[&format!("loss/p{loss}")];
            LossRow {
                loss,
                mbps: m.require("mbps"),
                retx_per_kpkt: m.require("retransmits") / m.require("packets_sent").max(1.0)
                    * 1000.0,
            }
        })
        .collect()
}

/// Ablation E: reliability under injected loss.
pub fn ablation_loss() -> Vec<LossRow> {
    loss_from(&run_serial(&loss_jobs()))
}

/// Ablation F row: offered-load bandwidth and CPU cost per stack and link
/// speed.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRow {
    /// Stack under test.
    pub stack: String,
    /// Link speed, Mb/s.
    pub link_mbps: u64,
    /// Delivered bandwidth, Mb/s.
    pub mbps: f64,
    /// Delivered bandwidth as % of the link rate.
    pub pct_of_wire: f64,
    /// Sender CPU busy fraction.
    pub sender_cpu: f64,
    /// Receiver CPU busy fraction.
    pub receiver_cpu: f64,
}

/// The (stack, is_clic, link) grid of Ablation F.
fn cpu_cases() -> &'static [(&'static str, bool, u64)] {
    &[
        ("TCP", false, 100_000_000),
        ("TCP", false, 1_000_000_000),
        ("CLIC", true, 100_000_000),
        ("CLIC", true, 1_000_000_000),
    ]
}

/// Ablation F jobs: one pipelined 256 KB stream per (stack, link speed).
pub fn cpu_jobs() -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    cpu_cases()
        .iter()
        .map(|&(name, is_clic, bps)| {
            let mut cfg = if is_clic {
                clic_pair(&model, false, true)
            } else {
                tcp_pair(&model, false)
            };
            cfg.model.link_bps = bps;
            let size = 262_144;
            JobSpec::new(
                format!("cpu/{name}/l{}", bps / 1_000_000),
                JobKind::Stream {
                    cluster: cfg,
                    stack: if is_clic {
                        StackKind::Clic
                    } else {
                        StackKind::Tcp
                    },
                    size,
                    count: crate::workload::stream_count(size),
                    seed: 8,
                    pipelined: true,
                },
            )
        })
        .collect()
}

/// Assemble Ablation F from job results.
pub fn cpu_from(results: &ResultMap) -> Vec<CpuRow> {
    cpu_cases()
        .iter()
        .map(|&(name, _, bps)| {
            let m = &results[&format!("cpu/{name}/l{}", bps / 1_000_000)];
            let mbps = m.require("mbps");
            CpuRow {
                stack: name.to_string(),
                link_mbps: bps / 1_000_000,
                mbps,
                pct_of_wire: mbps / (bps as f64 / 1e6) * 100.0,
                sender_cpu: m.require("sender_cpu"),
                receiver_cpu: m.require("receiver_cpu"),
            }
        })
        .collect()
}

/// Ablation F — §2's scaling claim: "in Fast Ethernet ... 90 % of the
/// maximum bandwidth with a 15–20 % CPU use. Having a similar situation in
/// networks with 1 Gb/s bandwidths would require almost 100 % of the
/// processor power." Offered-load streaming, 256 KB messages.
pub fn ablation_cpu() -> Vec<CpuRow> {
    cpu_from(&run_serial(&cpu_jobs()))
}

/// Ablation H row: one of Figure 1's data paths, measured on one link.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRow {
    /// Which Figure 1 path (2, 3, or 4).
    pub path: u8,
    /// Human description.
    pub description: String,
    /// Link speed, Mb/s.
    pub link_mbps: u64,
    /// Delivered bandwidth at 256 KB messages, Mb/s.
    pub mbps: f64,
}

fn path_config(path: u8, link_bps: u64) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, false, path == 2);
    cfg.model.link_bps = link_bps;
    if path == 4 {
        // An older NIC: frames cross its internal buffer at a rate
        // comparable to the era's on-NIC processors.
        cfg.node.nic.internal_copy_bytes_per_sec = Some(60_000_000);
    }
    cfg
}

/// Ablation H jobs: paths {2, 3, 4} × links {100 Mb/s, 1 Gb/s}.
pub fn paths_jobs() -> Vec<JobSpec> {
    let size = 262_144;
    [100_000_000u64, 1_000_000_000]
        .into_iter()
        .flat_map(|link_bps| {
            [2u8, 3, 4].into_iter().map(move |path| {
                JobSpec::new(
                    format!("paths/p{path}/l{}", link_bps / 1_000_000),
                    JobKind::Stream {
                        cluster: path_config(path, link_bps),
                        stack: StackKind::Clic,
                        size,
                        count: crate::workload::stream_count(size),
                        seed: 12,
                        pipelined: false,
                    },
                )
            })
        })
        .collect()
}

/// Assemble Ablation H from job results.
pub fn paths_from(results: &ResultMap) -> Vec<PathRow> {
    let mut rows = Vec::new();
    for link_bps in [100_000_000u64, 1_000_000_000] {
        for path in [2u8, 3, 4] {
            let m = &results[&format!("paths/p{path}/l{}", link_bps / 1_000_000)];
            rows.push(PathRow {
                path,
                description: match path {
                    2 => "0-copy: DMA from user memory".into(),
                    3 => "1-copy: kernel staging + DMA".into(),
                    _ => "1-copy + NIC internal copy (Fast Ethernet CLIC)".into(),
                },
                link_mbps: link_bps / 1_000_000,
                mbps: m.require("mbps"),
            });
        }
    }
    rows
}

/// Ablation H — Figure 1's data-path taxonomy: path 2 (scatter-gather DMA
/// from user memory, the Gigabit CLIC), path 3 (CPU copy to a kernel
/// buffer, DMA from there), and path 4 (kernel copy + DMA to the NIC
/// output buffer + the NIC processor's internal copy — the Fast Ethernet
/// CLIC). At 100 Mb/s the wire hides the difference, which is why the
/// first CLIC shipped path 4; at 1 Gb/s it no longer does.
pub fn ablation_paths() -> Vec<PathRow> {
    paths_from(&run_serial(&paths_jobs()))
}

/// Ablation G row: small-message latency with and without competing bulk
/// traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedLatencyRow {
    /// Stack under test.
    pub stack: String,
    /// Whether a bulk transfer was running concurrently.
    pub loaded: bool,
    /// Minimum one-way latency, µs.
    pub min_us: f64,
    /// Mean one-way latency, µs.
    pub mean_us: f64,
    /// 99th-percentile one-way latency, µs.
    pub p99_us: f64,
}

/// Ablation G jobs — §3.2's multiprogramming argument: CLIC keeps
/// standard system calls so the scheduler can service pending messages
/// promptly even when other traffic loads the node. 64-byte request/reply
/// latency, {CLIC, TCP} × {idle, loaded}, while a bulk transfer saturates
/// the same pair of nodes.
pub fn load_jobs() -> Vec<JobSpec> {
    [("CLIC", true), ("TCP", false)]
        .into_iter()
        .flat_map(|(name, clic)| {
            [false, true].into_iter().map(move |loaded| {
                JobSpec::new(
                    format!("load/{name}/{}", if loaded { "loaded" } else { "idle" }),
                    JobKind::LoadedLatency { clic, loaded },
                )
            })
        })
        .collect()
}

/// Assemble Ablation G from job results.
pub fn load_from(results: &ResultMap) -> Vec<LoadedLatencyRow> {
    let mut rows = Vec::new();
    for (name, _) in [("CLIC", true), ("TCP", false)] {
        for loaded in [false, true] {
            let m = &results[&format!("load/{name}/{}", if loaded { "loaded" } else { "idle" })];
            rows.push(LoadedLatencyRow {
                stack: name.to_string(),
                loaded,
                min_us: m.require("min_us"),
                mean_us: m.require("mean_us"),
                p99_us: m.require("p99_us"),
            });
        }
    }
    rows
}

/// One cell of the reliability-under-loss family: a (stack, MTU, loss
/// model) combination exercised with 64 KB request / 4-byte reply cycles
/// over a faulty link.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityRow {
    /// Stack under test.
    pub stack: String,
    /// Device MTU, bytes.
    pub mtu: usize,
    /// Mean frame-loss probability, percent (applied in both directions).
    pub loss_pct: f64,
    /// Bursty (Gilbert–Elliott) rather than uniform (Bernoulli) loss.
    pub bursty: bool,
    /// Delivered goodput, Mb/s (request bytes per mean cycle).
    pub mbps: f64,
    /// Mean request/reply cycle time, µs.
    pub mean_us: f64,
    /// 99th-percentile cycle time, µs.
    pub p99_us: f64,
    /// Retransmitted packets, totalled across both stacks' counters.
    pub retx: f64,
    /// Dropped frames/packets, totalled across every layer.
    pub drops: f64,
}

/// The loss model of one reliability cell. Bursty cells use a
/// Gilbert–Elliott chain tuned to the same mean loss `p`: the burst state
/// drops everything, lasts 4 frames on average (`p_exit = 0.25`), and is
/// entered at the rate that makes the stationary loss equal `p`.
pub(crate) fn reliability_loss(p: f64, bursty: bool) -> LossModel {
    if p == 0.0 {
        LossModel::None
    } else if bursty {
        LossModel::GilbertElliott {
            p_enter_burst: 0.25 * p / (1.0 - p),
            p_exit_burst: 0.25,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    } else {
        LossModel::Bernoulli(p)
    }
}

/// The reliability grid: `(id, stack, label, mtu, loss_pct, bursty)`.
/// Quick runs keep MTU 1500 and the extreme loss cells only.
fn reliability_cases(quick: bool) -> Vec<(String, StackKind, &'static str, usize, f64, bool)> {
    let mtus: &[usize] = if quick { &[1500] } else { &[1500, 9000] };
    let losses: &[(f64, bool)] = if quick {
        &[(0.0, false), (2.0, false), (2.0, true)]
    } else {
        &[
            (0.0, false),
            (0.5, false),
            (0.5, true),
            (2.0, false),
            (2.0, true),
        ]
    };
    let mut cases = Vec::new();
    for (stack, label) in [(StackKind::Clic, "CLIC"), (StackKind::Tcp, "TCP")] {
        for &mtu in mtus {
            for &(pct, bursty) in losses {
                let kind = if bursty { "burst" } else { "uniform" };
                cases.push((
                    format!("reliability/{label}/mtu{mtu}/loss{pct}/{kind}"),
                    stack,
                    label,
                    mtu,
                    pct,
                    bursty,
                ));
            }
        }
    }
    cases
}

/// Reliability jobs — the §1 "networks have finite buffering and lose
/// frames" scenario the paper's clean testbed never exercises: CLIC vs
/// TCP × MTU × (loss rate, burstiness), one [`JobKind::Reliability`] each. `sizes` only selects quick vs full (as
/// for the sweeps, a reduced size grid means a reduced reliability grid).
pub fn reliability_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = sizes.len() <= quick_sizes().len();
    let rounds = if quick { 32 } else { 128 };
    let model = CostModel::era_2002();
    reliability_cases(quick)
        .into_iter()
        .map(|(id, stack, _, mtu, pct, bursty)| {
            let jumbo = mtu == 9000;
            let mut cfg = match stack {
                StackKind::Clic => clic_pair(&model, jumbo, true),
                _ => tcp_pair(&model, jumbo),
            };
            cfg.faults.loss = reliability_loss(pct / 100.0, bursty);
            JobSpec::new(
                id,
                JobKind::Reliability {
                    cluster: cfg,
                    stack,
                    size: 65_536,
                    rounds,
                    seed: 21,
                },
            )
        })
        .collect()
}

/// Assemble the reliability rows from job results.
pub fn reliability_from(results: &ResultMap, sizes: &[usize]) -> Vec<ReliabilityRow> {
    let quick = sizes.len() <= quick_sizes().len();
    reliability_cases(quick)
        .into_iter()
        .map(|(id, _, label, mtu, pct, bursty)| {
            let m = &results[&id];
            ReliabilityRow {
                stack: label.to_string(),
                mtu,
                loss_pct: pct,
                bursty,
                mbps: m.require("mbps"),
                mean_us: m.require("mean_us"),
                p99_us: m.require("p99_us"),
                retx: m.require("m.retransmits"),
                drops: m.require("m.drops"),
            }
        })
        .collect()
}

/// Ablation I row: all-to-all exchange scaling on a switched cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Cluster size.
    pub nodes: usize,
    /// Aggregate delivered bandwidth, Mb/s (64 KB per pair).
    pub aggregate_mbps: f64,
    /// Aggregate bandwidth per node, Mb/s.
    pub per_node_mbps: f64,
}

/// Ablation I jobs: all-to-all on switched clusters of 2, 4 and 8 nodes.
pub fn scaling_jobs() -> Vec<JobSpec> {
    use crate::builder::Topology;
    let model = CostModel::era_2002();
    [2usize, 4, 8]
        .into_iter()
        .map(|nodes| {
            let mut cfg = clic_pair(&model, true, true);
            cfg.nodes = nodes;
            cfg.topology = Topology::Switched;
            JobSpec::new(
                format!("scaling/n{nodes}"),
                JobKind::AllToAll {
                    cluster: cfg,
                    size: 65_536,
                    seed: 14,
                },
            )
        })
        .collect()
}

/// Assemble Ablation I from job results.
pub fn scaling_from(results: &ResultMap) -> Vec<ScalingRow> {
    [2usize, 4, 8]
        .into_iter()
        .map(|nodes| {
            let aggregate_mbps = results[&format!("scaling/n{nodes}")].require("aggregate_mbps");
            ScalingRow {
                nodes,
                aggregate_mbps,
                per_node_mbps: aggregate_mbps / nodes as f64,
            }
        })
        .collect()
}

/// Ablation I (extension): CLIC all-to-all on switched clusters of
/// growing size — the cluster-computing workload the paper positions CLIC
/// for, beyond its two-node testbed.
pub fn ablation_scaling() -> Vec<ScalingRow> {
    scaling_from(&run_serial(&scaling_jobs()))
}

// ---------------------------------------------------------------------
// Chaos soak + incast backpressure (the robustness family)
// ---------------------------------------------------------------------

/// One chaos-soak cell: a seeded crash/restart/flap/loss schedule driven
/// through [`crate::workload::chaos_clic`], which asserts the robustness
/// invariants; the row reports the accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Schedule seed.
    pub seed: u64,
    /// Mean frame-loss probability, percent.
    pub loss_pct: f64,
    /// Receiver crash/restart cycles.
    pub crashes: usize,
    /// Link flaps.
    pub flaps: usize,
    /// Messages posted by the application.
    pub posted: f64,
    /// Messages confirmed delivered by the protocol.
    pub confirmed: f64,
    /// Messages written off by a typed flow failure.
    pub failed: f64,
    /// Messages the receiving application drained.
    pub delivered: f64,
    /// Teardowns: keepalive declared the peer dead.
    pub err_peer_dead: f64,
    /// Teardowns: the peer restarted into a new epoch.
    pub err_stale_epoch: f64,
    /// Teardowns: retransmission retries exhausted.
    pub err_max_retries: f64,
    /// Flow generations used (1 + teardowns).
    pub eras: f64,
    /// Stale-epoch packets the restarted receiver rejected.
    pub stale_epoch_drops: f64,
    /// Packets retransmitted.
    pub retx: f64,
}

/// One incast cell: N→1 into a slow consumer, with or without the
/// advertised-window receive budget.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastRow {
    /// Receive budget in bytes (`None` = unthrottled).
    pub budget: Option<usize>,
    /// Concurrent senders.
    pub senders: usize,
    /// Messages delivered.
    pub delivered: f64,
    /// Mean post-to-delivery completion, µs.
    pub mean_us: f64,
    /// 99th-percentile completion, µs.
    pub p99_us: f64,
    /// Peak receive-side buffered bytes.
    pub peak_buffered_bytes: f64,
    /// First post to last delivery, µs.
    pub elapsed_us: f64,
}

/// The soak grid: `(id, seed, loss_pct, crashes, flaps)`. Quick runs keep
/// one clean-link and one lossy schedule; full runs sweep three seeds.
fn chaos_soak_cases(quick: bool) -> Vec<(String, u64, f64, usize, usize)> {
    let cells: &[(u64, f64, usize, usize)] = if quick {
        &[(1, 0.0, 1, 1), (2, 0.5, 2, 2)]
    } else {
        &[
            (1, 0.0, 1, 1),
            (1, 0.5, 1, 2),
            (1, 1.0, 2, 2),
            (2, 0.0, 1, 1),
            (2, 0.5, 1, 2),
            (2, 1.0, 2, 2),
            (3, 0.5, 2, 1),
            (3, 1.0, 2, 2),
        ]
    };
    cells
        .iter()
        .map(|&(seed, pct, crashes, flaps)| {
            (
                format!("chaos/soak/s{seed}/loss{pct}/c{crashes}f{flaps}"),
                seed,
                pct,
                crashes,
                flaps,
            )
        })
        .collect()
}

/// The incast grid: `(id, budget_bytes)`.
fn chaos_incast_cases() -> Vec<(String, Option<usize>)> {
    vec![
        ("chaos/incast/unbounded".to_string(), None),
        ("chaos/incast/budget64k".to_string(), Some(64 * 1024)),
    ]
}

/// A two-node CLIC pair with the robustness machinery enabled: keepalive
/// liveness, epoch guarding, and `loss_pct` percent uniform frame loss.
pub(crate) fn chaos_pair(model: &CostModel, loss_pct: f64) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.keepalive_interval = Some(SimDuration::from_us(500));
    clic.peer_dead_timeout = SimDuration::from_ms(5);
    clic.epoch_guard = true;
    // Uniform loss only: duplication/reorder models would legitimately
    // break the workload's strict-order invariant across flow eras.
    cfg.faults.loss = reliability_loss(loss_pct / 100.0, false);
    cfg
}

/// The incast cluster: `nodes`-node star, node 0 the receiver, with a
/// modest send window (so the pre-first-ACK burst does not dwarf the
/// budget) and the given receive budget.
pub(crate) fn incast_cluster(
    model: &CostModel,
    nodes: usize,
    budget: Option<usize>,
) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = Topology::Switched;
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.window = 16;
    clic.recv_budget_bytes = budget;
    cfg
}

/// Chaos jobs: the soak grid plus the incast pair. `sizes` only selects
/// quick vs full, as for the other families.
pub fn chaos_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = sizes.len() <= quick_sizes().len();
    let nmsgs = if quick { 40 } else { 120 };
    let per_sender = if quick { 8 } else { 32 };
    let model = CostModel::era_2002();
    let mut jobs: Vec<JobSpec> = chaos_soak_cases(quick)
        .into_iter()
        .map(|(id, seed, pct, crashes, flaps)| {
            JobSpec::new(
                id,
                JobKind::Chaos {
                    cluster: chaos_pair(&model, pct),
                    size: 2_048,
                    nmsgs,
                    crashes,
                    flaps,
                    seed,
                },
            )
        })
        .collect();
    jobs.extend(chaos_incast_cases().into_iter().map(|(id, budget)| {
        JobSpec::new(
            id,
            JobKind::Incast {
                cluster: incast_cluster(&model, 5, budget),
                size: 8_192,
                per_sender,
                consume_delay_us: 150,
                seed: 9,
            },
        )
    }));
    jobs
}

/// Assemble the chaos rows from job results.
pub fn chaos_from(results: &ResultMap, sizes: &[usize]) -> (Vec<ChaosRow>, Vec<IncastRow>) {
    let quick = sizes.len() <= quick_sizes().len();
    let soak = chaos_soak_cases(quick)
        .into_iter()
        .map(|(id, seed, pct, crashes, flaps)| {
            let m = &results[&id];
            ChaosRow {
                seed,
                loss_pct: pct,
                crashes,
                flaps,
                posted: m.require("posted"),
                confirmed: m.require("confirmed"),
                failed: m.require("failed"),
                delivered: m.require("delivered"),
                err_peer_dead: m.require("err_peer_dead"),
                err_stale_epoch: m.require("err_stale_epoch"),
                err_max_retries: m.require("err_max_retries"),
                eras: m.require("eras"),
                stale_epoch_drops: m.require("stale_epoch_drops"),
                retx: m.require("m.retransmits"),
            }
        })
        .collect();
    let incast = chaos_incast_cases()
        .into_iter()
        .map(|(id, budget)| {
            let m = &results[&id];
            IncastRow {
                budget,
                senders: 4,
                delivered: m.require("delivered"),
                mean_us: m.require("mean_us"),
                p99_us: m.require("p99_us"),
                peak_buffered_bytes: m.require("peak_buffered_bytes"),
                elapsed_us: m.require("elapsed_us"),
            }
        })
        .collect();
    (soak, incast)
}

// ---------------------------------------------------------------------
// Cluster scaling: fabrics × node count × collective backend
// ---------------------------------------------------------------------

/// One cluster-scaling cell: whole-cluster barrier + all-reduce latency
/// for a node count on a fabric, host-based or NIC-offloaded.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Fabric kind ("leaf-spine" or "fat-tree").
    pub fabric: &'static str,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Collective backend ("host" or "nic").
    pub backend: &'static str,
    /// Barrier enter-to-release latency, µs.
    pub barrier_us: f64,
    /// All-reduce contribute-to-total latency, µs.
    pub allreduce_us: f64,
    /// Switches in the fabric.
    pub switches: f64,
    /// Switch-to-switch trunk links.
    pub trunks: f64,
    /// Collective control frames consumed by NIC engines (0 on host runs).
    pub coll_msgs: f64,
    /// Host interrupts taken across the cluster during the collectives.
    pub host_irqs: f64,
}

/// The scaling grid: `(id, nodes, topology, fabric name, offload)`.
fn scale_cases(quick: bool) -> Vec<(String, usize, Topology, &'static str, bool)> {
    let counts: &[usize] = if quick {
        &[8, 16]
    } else {
        &[8, 16, 64, 128, 256]
    };
    let fabrics = [
        (Topology::LeafSpine, "leaf-spine"),
        (Topology::FatTree, "fat-tree"),
    ];
    let mut cases = Vec::new();
    for &nodes in counts {
        for (topology, fabric) in fabrics {
            for offload in [false, true] {
                let backend = if offload { "nic" } else { "host" };
                cases.push((
                    format!("scale/{fabric}/n{nodes}/{backend}"),
                    nodes,
                    topology,
                    fabric,
                    offload,
                ));
            }
        }
    }
    cases
}

/// A CLIC cluster of `nodes` hosts on the given fabric topology.
pub(crate) fn scale_cluster(model: &CostModel, nodes: usize, topology: Topology) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = topology;
    cfg
}

/// Cluster-scaling jobs. `sizes` only selects quick (8–16 nodes) vs full
/// (8–256 nodes), as for the other families.
pub fn scale_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = sizes.len() <= quick_sizes().len();
    let model = CostModel::era_2002();
    scale_cases(quick)
        .into_iter()
        .map(|(id, nodes, topology, _fabric, offload)| {
            JobSpec::new(
                id,
                JobKind::ScaleCollective {
                    cluster: scale_cluster(&model, nodes, topology),
                    offload,
                    seed: 5,
                },
            )
        })
        .collect()
}

/// Assemble the scaling rows from job results.
pub fn scale_from(results: &ResultMap, sizes: &[usize]) -> Vec<ScaleRow> {
    let quick = sizes.len() <= quick_sizes().len();
    scale_cases(quick)
        .into_iter()
        .map(|(id, nodes, _topology, fabric, offload)| {
            let m = &results[&id];
            ScaleRow {
                fabric,
                nodes,
                backend: if offload { "nic" } else { "host" },
                barrier_us: m.require("barrier_us"),
                allreduce_us: m.require("allreduce_us"),
                switches: m.require("switches"),
                trunks: m.require("trunks"),
                coll_msgs: m.require("coll_msgs"),
                host_irqs: m.require("host_irqs"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fabric congestion: ECN marking + mark-driven cwnd (the congestion family)
// ---------------------------------------------------------------------

/// One fabric-congestion cell: an incast or all-to-all shuffle on a
/// multi-switch fabric, run either with a fixed send window (drop-only
/// congestion signal) or with switch ECN marking driving the per-flow
/// congestion window.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionRow {
    /// Workload ("incast" or "shuffle").
    pub workload: &'static str,
    /// Fabric kind ("leaf-spine" or "fat-tree").
    pub fabric: &'static str,
    /// Concurrent senders (incast) or nodes (shuffle).
    pub senders: usize,
    /// Control scheme ("fixed" or "ecn").
    pub control: &'static str,
    /// Receiver goodput (incast) or aggregate bandwidth (shuffle), Mb/s.
    pub goodput_mbps: f64,
    /// 99th-percentile post-to-delivery completion, µs (incast only; NaN
    /// for the shuffle, which has no per-message completion sample).
    pub p99_us: f64,
    /// Frames/packets dropped across every layer (tail drops dominate).
    pub drops: f64,
    /// Switch congestion marks applied.
    pub marks: f64,
    /// Marks echoed back to senders on ACKs.
    pub echoes: f64,
    /// Packets retransmitted.
    pub retx: f64,
    /// Peak switch output-queue depth, frames.
    pub peak_queue: f64,
}

/// One point of the congestion grid.
struct CongestionCase {
    id: String,
    workload: &'static str,
    fabric: &'static str,
    topology: Topology,
    nodes: usize,
    ecn: bool,
}

/// The congestion grid. Quick runs keep an 8→1 incast and an 8-node
/// shuffle on leaf–spine; full runs sweep 16→1 and 64→1 incast plus
/// 24-node shuffles on both fabrics — each cell fixed-window vs
/// ECN-cwnd. 24 hosts overflow one 16-port leaf/edge switch, so the
/// shuffle genuinely exercises the trunk tier (4 parallel spines on
/// leaf–spine, the 2-agg pod mesh on fat-tree) instead of degenerating
/// into a single-switch star.
fn congestion_cases(quick: bool) -> Vec<CongestionCase> {
    let fabrics = |t: Topology| match t {
        Topology::FatTree => "fat-tree",
        _ => "leaf-spine",
    };
    let cells: &[(&'static str, Topology, usize)] = if quick {
        &[
            ("incast", Topology::LeafSpine, 9),
            ("shuffle", Topology::LeafSpine, 8),
        ]
    } else {
        &[
            ("incast", Topology::LeafSpine, 17),
            ("incast", Topology::LeafSpine, 65),
            ("shuffle", Topology::LeafSpine, 24),
            ("shuffle", Topology::FatTree, 24),
        ]
    };
    let mut cases = Vec::new();
    for &(workload, topology, nodes) in cells {
        let fabric = fabrics(topology);
        let senders = if workload == "incast" {
            nodes - 1
        } else {
            nodes
        };
        for ecn in [false, true] {
            let control = if ecn { "ecn" } else { "fixed" };
            cases.push(CongestionCase {
                id: format!("congestion/{workload}/{fabric}/s{senders}/{control}"),
                workload,
                fabric,
                topology,
                nodes,
                ecn,
            });
        }
    }
    cases
}

/// A CLIC cluster on a fabric for the congestion cells. The fixed-window
/// variant keeps an aggressive 64-packet window and no marking — the
/// drop-only baseline — with retries raised so tail-drop storms read as
/// congestion collapse (slow goodput), never as flow failure. The ECN
/// variant arms switch marking at a DCTCP-style shallow K (8 frames, a
/// sixteenth of the 128-frame output queue — early enough that marks,
/// not drops, are the dominant congestion signal even on the fat-tree's
/// 2-agg pod mesh) and gives every flow the DCTCP-flavoured congestion
/// window.
pub(crate) fn congestion_cluster(
    model: &CostModel,
    nodes: usize,
    topology: Topology,
    ecn: bool,
) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = topology;
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.window = 64;
    clic.max_retries = 64;
    if ecn {
        cfg.mark_threshold = Some(8);
        clic.congestion = Some(CongestionConfig::dctcp());
    }
    cfg
}

/// Congestion jobs: incast cells via [`JobKind::Incast`] (consumer drains
/// at full speed — the fabric, not the application, is the bottleneck)
/// and shuffle cells via [`JobKind::AllToAll`]. `sizes` only selects
/// quick vs full, as for the other families.
pub fn congestion_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = sizes.len() <= quick_sizes().len();
    let per_sender = if quick { 6 } else { 16 };
    let model = CostModel::era_2002();
    congestion_cases(quick)
        .into_iter()
        .map(|case| {
            let cluster = congestion_cluster(&model, case.nodes, case.topology, case.ecn);
            let kind = match case.workload {
                "incast" => JobKind::Incast {
                    cluster,
                    size: 8_192,
                    per_sender,
                    consume_delay_us: 0,
                    seed: 11,
                },
                _ => JobKind::AllToAll {
                    cluster,
                    size: 32_768,
                    seed: 11,
                },
            };
            JobSpec::new(case.id, kind)
        })
        .collect()
}

/// Assemble the congestion rows from job results.
pub fn congestion_from(results: &ResultMap, sizes: &[usize]) -> Vec<CongestionRow> {
    let quick = sizes.len() <= quick_sizes().len();
    congestion_cases(quick)
        .into_iter()
        .map(|case| {
            let m = &results[&case.id];
            let (goodput_mbps, p99_us) = if case.workload == "incast" {
                (m.require("goodput_mbps"), m.require("p99_us"))
            } else {
                (m.require("aggregate_mbps"), f64::NAN)
            };
            CongestionRow {
                workload: case.workload,
                fabric: case.fabric,
                senders: if case.workload == "incast" {
                    case.nodes - 1
                } else {
                    case.nodes
                },
                control: if case.ecn { "ecn" } else { "fixed" },
                goodput_mbps,
                p99_us,
                drops: m.require("m.drops"),
                marks: m.require("m.ecn_marks"),
                echoes: m.require("m.ecn_echoes"),
                retx: m.require("m.retransmits"),
                peak_queue: m.require("m.peak_switch_queue_depth"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure registry
// ---------------------------------------------------------------------

/// Every runnable figure/table/ablation, for CLI dispatch and the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Figure 4: CLIC bandwidth, MTU × copy path.
    Fig4,
    /// Figure 5: CLIC vs TCP/IP.
    Fig5,
    /// Figure 6: middleware comparison.
    Fig6,
    /// Figure 7: packet pipeline stage breakdown.
    Fig7,
    /// §4 headline scalars.
    Scalars,
    /// §5 CLIC vs GAMMA table.
    Gamma,
    /// Ablation A: interrupt coalescing.
    Coalescing,
    /// Ablation B: NIC fragmentation offload.
    Fragmentation,
    /// Ablation C: channel bonding.
    Bonding,
    /// Ablation D: system-call flavour.
    Syscall,
    /// Ablation E: goodput under loss.
    Loss,
    /// Ablation F: CPU utilisation vs link speed.
    Cpu,
    /// Ablation G: latency under bulk load.
    Load,
    /// Ablation H: Figure 1 data paths.
    Paths,
    /// Ablation I: all-to-all scaling.
    Scaling,
    /// Reliability under loss: CLIC vs TCP across loss rate × burstiness
    /// × MTU.
    Reliability,
    /// Chaos soak (crash/restart/flap/loss schedules) plus incast
    /// backpressure. Not part of [`FigureKind::ALL`]: its fault schedules
    /// target the robustness machinery rather than a paper figure, so it
    /// runs only when named explicitly (`figures chaos`).
    Chaos,
    /// Cluster scaling: barrier/all-reduce vs node count on multi-switch
    /// fabrics, host-based vs NIC-offloaded. Not part of
    /// [`FigureKind::ALL`]: it measures the scale-out extension rather
    /// than a paper figure, so it runs only when named explicitly
    /// (`figures scale`).
    Scale,
    /// Fabric congestion: fixed-window vs ECN-cwnd under incast and
    /// all-to-all shuffle on multi-switch fabrics. Not part of
    /// [`FigureKind::ALL`]: it measures the congestion-control extension
    /// rather than a paper figure, so it runs only when named explicitly
    /// (`figures congestion`).
    Congestion,
}

/// The result of one assembled figure, ready for rendering.
#[derive(Debug, Clone)]
pub enum FigureOutput {
    /// Bandwidth curves (figures 4, 5, 6 and Ablation B).
    Series(Vec<Series>),
    /// Figure 7's two stage breakdowns (7a, 7b).
    Stages {
        /// Without the direct-call improvement.
        a: Vec<StageRow>,
        /// With the direct-call improvement (Fig. 8b).
        b: Vec<StageRow>,
    },
    /// The §4 scalars.
    Scalars(Scalars),
    /// The §5 comparison rows.
    Gamma(Vec<ComparisonRow>),
    /// Ablation A rows.
    Coalescing(Vec<CoalescingRow>),
    /// Ablation C rows.
    Bonding(Vec<BondingRow>),
    /// Ablation D rows.
    Syscall(Vec<SyscallRow>),
    /// Ablation E rows.
    Loss(Vec<LossRow>),
    /// Ablation F rows.
    Cpu(Vec<CpuRow>),
    /// Ablation G rows.
    Load(Vec<LoadedLatencyRow>),
    /// Ablation H rows.
    Paths(Vec<PathRow>),
    /// Ablation I rows.
    Scaling(Vec<ScalingRow>),
    /// Reliability-under-loss rows.
    Reliability(Vec<ReliabilityRow>),
    /// Chaos-soak and incast rows.
    Chaos {
        /// The soak grid.
        soak: Vec<ChaosRow>,
        /// The incast pair.
        incast: Vec<IncastRow>,
    },
    /// Cluster-scaling rows.
    Scale(Vec<ScaleRow>),
    /// Fabric-congestion rows.
    Congestion(Vec<CongestionRow>),
}

impl FigureKind {
    /// Every figure, in the order `figures all` runs them.
    pub const ALL: [FigureKind; 16] = [
        FigureKind::Fig4,
        FigureKind::Fig5,
        FigureKind::Fig6,
        FigureKind::Fig7,
        FigureKind::Scalars,
        FigureKind::Gamma,
        FigureKind::Coalescing,
        FigureKind::Fragmentation,
        FigureKind::Bonding,
        FigureKind::Syscall,
        FigureKind::Loss,
        FigureKind::Cpu,
        FigureKind::Load,
        FigureKind::Paths,
        FigureKind::Scaling,
        FigureKind::Reliability,
    ];

    /// The CLI name (`figures <name>`).
    pub fn name(self) -> &'static str {
        match self {
            FigureKind::Fig4 => "fig4",
            FigureKind::Fig5 => "fig5",
            FigureKind::Fig6 => "fig6",
            FigureKind::Fig7 => "fig7",
            FigureKind::Scalars => "scalars",
            FigureKind::Gamma => "gamma",
            FigureKind::Coalescing => "coalescing",
            FigureKind::Fragmentation => "fragmentation",
            FigureKind::Bonding => "bonding",
            FigureKind::Syscall => "syscall",
            FigureKind::Loss => "loss",
            FigureKind::Cpu => "cpu",
            FigureKind::Load => "load",
            FigureKind::Paths => "paths",
            FigureKind::Scaling => "scaling",
            FigureKind::Reliability => "reliability",
            FigureKind::Chaos => "chaos",
            FigureKind::Scale => "scale",
            FigureKind::Congestion => "congestion",
        }
    }

    /// Parse a CLI name. Accepts the opt-in [`FigureKind::Chaos`] family
    /// too, even though `ALL` (and thus `figures all`) excludes it.
    pub fn from_name(name: &str) -> Option<FigureKind> {
        if name == FigureKind::Chaos.name() {
            return Some(FigureKind::Chaos);
        }
        if name == FigureKind::Scale.name() {
            return Some(FigureKind::Scale);
        }
        if name == FigureKind::Congestion.name() {
            return Some(FigureKind::Congestion);
        }
        FigureKind::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The jobs of this figure on the given size grid (figures that don't
    /// sweep sizes ignore it).
    pub fn jobs(self, sizes: &[usize]) -> Vec<JobSpec> {
        match self {
            FigureKind::Fig4 => fig4_jobs(sizes),
            FigureKind::Fig5 => fig5_jobs(sizes),
            FigureKind::Fig6 => fig6_jobs(sizes),
            FigureKind::Fig7 => fig7_jobs(),
            FigureKind::Scalars => scalars_jobs(sizes),
            FigureKind::Gamma => gamma_jobs(sizes),
            FigureKind::Coalescing => coalescing_jobs(),
            FigureKind::Fragmentation => fragmentation_jobs(sizes),
            FigureKind::Bonding => bonding_jobs(),
            FigureKind::Syscall => syscall_jobs(),
            FigureKind::Loss => loss_jobs(),
            FigureKind::Cpu => cpu_jobs(),
            FigureKind::Load => load_jobs(),
            FigureKind::Paths => paths_jobs(),
            FigureKind::Scaling => scaling_jobs(),
            FigureKind::Reliability => reliability_jobs(sizes),
            FigureKind::Chaos => chaos_jobs(sizes),
            FigureKind::Scale => scale_jobs(sizes),
            FigureKind::Congestion => congestion_jobs(sizes),
        }
    }

    /// Assemble this figure's output from job results (which must contain
    /// every id listed by [`FigureKind::jobs`] for the same `sizes`).
    pub fn assemble(self, results: &ResultMap, sizes: &[usize]) -> FigureOutput {
        match self {
            FigureKind::Fig4 => FigureOutput::Series(fig4_from(results, sizes)),
            FigureKind::Fig5 => FigureOutput::Series(fig5_from(results, sizes)),
            FigureKind::Fig6 => FigureOutput::Series(fig6_from(results, sizes)),
            FigureKind::Fig7 => FigureOutput::Stages {
                a: fig7_from(results, false),
                b: fig7_from(results, true),
            },
            FigureKind::Scalars => FigureOutput::Scalars(scalars_from(results, sizes)),
            FigureKind::Gamma => FigureOutput::Gamma(gamma_from(results, sizes)),
            FigureKind::Coalescing => FigureOutput::Coalescing(coalescing_from(results)),
            FigureKind::Fragmentation => FigureOutput::Series(fragmentation_from(results, sizes)),
            FigureKind::Bonding => FigureOutput::Bonding(bonding_from(results)),
            FigureKind::Syscall => FigureOutput::Syscall(syscall_from(results)),
            FigureKind::Loss => FigureOutput::Loss(loss_from(results)),
            FigureKind::Cpu => FigureOutput::Cpu(cpu_from(results)),
            FigureKind::Load => FigureOutput::Load(load_from(results)),
            FigureKind::Paths => FigureOutput::Paths(paths_from(results)),
            FigureKind::Scaling => FigureOutput::Scaling(scaling_from(results)),
            FigureKind::Reliability => FigureOutput::Reliability(reliability_from(results, sizes)),
            FigureKind::Chaos => {
                let (soak, incast) = chaos_from(results, sizes);
                FigureOutput::Chaos { soak, incast }
            }
            FigureKind::Scale => FigureOutput::Scale(scale_from(results, sizes)),
            FigureKind::Congestion => FigureOutput::Congestion(congestion_from(results, sizes)),
        }
    }

    /// The figure's display title, as printed by the `figures` binary.
    pub fn title(self) -> &'static str {
        match self {
            FigureKind::Fig4 => "Figure 4: CLIC bandwidth, MTU x copy-path",
            FigureKind::Fig5 => "Figure 5: CLIC vs TCP/IP, MTU 9000/1500",
            FigureKind::Fig6 => "Figure 6: CLIC, MPI-CLIC, MPI-TCP, PVM-TCP",
            FigureKind::Fig7 => "Figure 7: 1400-byte packet pipeline stages",
            FigureKind::Scalars => "Headline scalars (paper Section 4/5)",
            FigureKind::Gamma => "Section 5 comparison: CLIC vs GAMMA",
            FigureKind::Coalescing => "Ablation A: interrupt coalescing",
            FigureKind::Fragmentation => {
                "Ablation B: NIC fragmentation offload (paper future work)"
            }
            FigureKind::Bonding => "Ablation C: channel bonding",
            FigureKind::Syscall => "Ablation D: system-call flavour (Section 3.2)",
            FigureKind::Loss => "Ablation E: CLIC goodput under frame loss",
            FigureKind::Cpu => "Ablation F: CPU utilisation vs link speed (Section 2 claim)",
            FigureKind::Load => "Ablation G: 64-byte latency under bulk load",
            FigureKind::Paths => "Ablation H: Figure 1 data paths",
            FigureKind::Scaling => "Ablation I: CLIC all-to-all scaling on a switch",
            FigureKind::Reliability => {
                "Reliability under loss: CLIC vs TCP, loss rate x burstiness x MTU"
            }
            FigureKind::Chaos => {
                "Chaos soak: crash/restart/flap/loss schedules + incast backpressure"
            }
            FigureKind::Scale => {
                "Cluster scaling: collectives vs node count, fabrics, host vs NIC offload"
            }
            FigureKind::Congestion => {
                "Fabric congestion: fixed window vs ECN-driven cwnd, incast + shuffle"
            }
        }
    }
}

// ---------------------------------------------------------------------
// Paper-claim checklist
// ---------------------------------------------------------------------

/// One verifiable claim from the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimRow {
    /// Identifier (C1, C2, ...).
    pub id: String,
    /// The claim, paraphrased from the paper.
    pub claim: String,
    /// What the simulation measured.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub pass: bool,
}

/// Evaluate the paper's headline claims against the simulation — the
/// executable form of EXPERIMENTS.md. Runs on a reduced grid; a few
/// minutes of CPU.
pub fn claims() -> Vec<ClaimRow> {
    let sizes = vec![
        4_096usize, 8_192, 16_384, 32_768, 65_536, 262_144, 1_048_576, 4_194_304,
    ];
    let mut rows = Vec::new();
    let mut check = |id: &str, claim: &str, measured: String, pass: bool| {
        rows.push(ClaimRow {
            id: id.into(),
            claim: claim.into(),
            measured,
            pass,
        });
    };

    let s = scalars(&sizes);
    check(
        "C1",
        "0-byte one-way latency is 36 us",
        format!("{:.1} us", s.zero_byte_latency_us),
        (25.0..48.0).contains(&s.zero_byte_latency_us),
    );
    check(
        "C2",
        "asymptotic bandwidth ~600 Mb/s at MTU 9000",
        format!("{:.0} Mb/s", s.clic_asymptote_9000_mbps),
        (500.0..700.0).contains(&s.clic_asymptote_9000_mbps),
    );
    check(
        "C3",
        "asymptotic bandwidth ~450 Mb/s at MTU 1500",
        format!("{:.0} Mb/s", s.clic_asymptote_1500_mbps),
        (380.0..550.0).contains(&s.clic_asymptote_1500_mbps),
    );
    check(
        "C4",
        "CLIC more than ~2x TCP at TCP's best MTU",
        format!(
            "{:.2}x",
            s.clic_asymptote_9000_mbps / s.tcp_asymptote_9000_mbps
        ),
        s.clic_asymptote_9000_mbps / s.tcp_asymptote_9000_mbps > 1.7,
    );
    check(
        "C5",
        "TCP reaches 50% of its peak around 16 KB",
        format!("{} B", s.tcp_half_bandwidth_bytes),
        (8_192..=32_768).contains(&s.tcp_half_bandwidth_bytes),
    );

    let f4 = fig4(&sizes);
    let peak = |series: &Series| series.points.iter().map(|p| p.mbps).fold(0.0f64, f64::max);
    let zc9000 = peak(&f4[0]);
    let zc1500 = peak(&f4[1]);
    let oc9000 = peak(&f4[2]);
    let oc1500 = peak(&f4[3]);
    check(
        "C6",
        "jumbo frames and 0-copy both improve bandwidth",
        format!("jumbo {zc1500:.0}->{zc9000:.0}, 0-copy {oc9000:.0}->{zc9000:.0}"),
        zc9000 > zc1500 && zc9000 > oc9000 && zc1500 > oc1500,
    );
    check(
        "C7",
        "the jumbo-frame improvement exceeds the 0-copy improvement",
        format!(
            "jumbo +{:.0} vs 0-copy +{:.0} Mb/s",
            zc9000 - zc1500,
            zc9000 - oc9000
        ),
        (zc9000 - zc1500) > (zc9000 - oc9000),
    );

    let f6 = fig6(&sizes);
    let last = |i: usize| f6[i].points.last().unwrap().mbps;
    check(
        "C8",
        "ordering CLIC >= MPI-CLIC > MPI-TCP > PVM-TCP",
        format!(
            "{:.0} >= {:.0} > {:.0} > {:.0}",
            last(0),
            last(1),
            last(2),
            last(3)
        ),
        last(0) >= last(1) * 0.98 && last(1) > last(2) && last(2) > last(3),
    );
    check(
        "C9",
        "MPI-CLIC at least 1.5x MPI-TCP for long messages",
        format!("{:.2}x", last(1) / last(2)),
        last(1) / last(2) > 1.5,
    );

    let f7a = fig7(false);
    let f7b = fig7(true);
    let stage = |rows: &[StageRow], name: &str| {
        rows.iter()
            .find(|r| r.stage == name)
            .map(|r| r.us)
            .unwrap_or(0.0)
    };
    let rx_total = |rows: &[StageRow]| {
        ["driver_rx", "bottom_half", "clic_module_rx", "copy_to_user"]
            .iter()
            .map(|n| stage(rows, n))
            .sum::<f64>()
    };
    check(
        "C10",
        "the receiver driver stage dominates the pipeline (~15 us @1400 B)",
        format!("{:.1} us", stage(&f7a, "driver_rx")),
        (10.0..25.0).contains(&stage(&f7a, "driver_rx")),
    );
    check(
        "C11",
        "the direct-call improvement shrinks the receive path ~20 -> ~5 us",
        format!("{:.1} -> {:.1} us", rx_total(&f7a), rx_total(&f7b)),
        rx_total(&f7b) < rx_total(&f7a) / 2.0 && rx_total(&f7b) < 10.0,
    );

    let g = gamma_table(&sizes);
    check(
        "C12",
        "GAMMA has lower latency and higher bandwidth; CLIC keeps the services",
        format!(
            "GAMMA {:.1} us/{:.0} Mb/s vs CLIC {:.1} us/{:.0} Mb/s",
            g[1].latency_us, g[1].bandwidth_mbps, g[0].latency_us, g[0].bandwidth_mbps
        ),
        g[1].latency_us < g[0].latency_us && g[1].bandwidth_mbps > g[0].bandwidth_mbps,
    );

    let cpu = ablation_cpu();
    let tcp_fe = cpu
        .iter()
        .find(|r| r.stack == "TCP" && r.link_mbps == 100)
        .unwrap();
    let tcp_ge = cpu
        .iter()
        .find(|r| r.stack == "TCP" && r.link_mbps == 1000)
        .unwrap();
    check(
        "C13",
        "TCP nearly saturates Fast Ethernet at modest CPU; gigabit pins the CPU",
        format!(
            "FE {:.0}% of wire @{:.0}% CPU; GbE {:.0}% of wire @{:.0}% CPU",
            tcp_fe.pct_of_wire,
            tcp_fe.receiver_cpu * 100.0,
            tcp_ge.pct_of_wire,
            tcp_ge.receiver_cpu * 100.0
        ),
        tcp_fe.pct_of_wire > 80.0 && tcp_ge.receiver_cpu > 0.8 && tcp_ge.pct_of_wire < 40.0,
    );

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_ascend() {
        let s = paper_sizes();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(quick_sizes().iter().all(|x| s.contains(x)));
    }

    #[test]
    fn half_bandwidth_point_finds_crossing() {
        let series = Series {
            label: "x".into(),
            points: vec![
                SeriesPoint {
                    size: 1,
                    mbps: 10.0,
                },
                SeriesPoint {
                    size: 2,
                    mbps: 40.0,
                },
                SeriesPoint {
                    size: 4,
                    mbps: 100.0,
                },
            ],
        };
        assert_eq!(half_bandwidth_point(&series), 4);
    }

    #[test]
    fn registry_names_roundtrip() {
        for kind in FigureKind::ALL {
            assert_eq!(FigureKind::from_name(kind.name()), Some(kind));
        }
        // The opt-in chaos/scale/congestion families parse by name but
        // stay out of ALL.
        assert_eq!(FigureKind::from_name("chaos"), Some(FigureKind::Chaos));
        assert!(!FigureKind::ALL.contains(&FigureKind::Chaos));
        assert_eq!(FigureKind::from_name("scale"), Some(FigureKind::Scale));
        assert!(!FigureKind::ALL.contains(&FigureKind::Scale));
        assert_eq!(
            FigureKind::from_name("congestion"),
            Some(FigureKind::Congestion)
        );
        assert!(!FigureKind::ALL.contains(&FigureKind::Congestion));
        assert_eq!(FigureKind::from_name("nope"), None);
    }

    #[test]
    fn job_ids_are_unique_across_all_figures() {
        let sizes = quick_sizes();
        let mut seen = std::collections::BTreeSet::new();
        for kind in FigureKind::ALL.into_iter().chain([
            FigureKind::Chaos,
            FigureKind::Scale,
            FigureKind::Congestion,
        ]) {
            for spec in kind.jobs(&sizes) {
                assert!(seen.insert(spec.id.clone()), "duplicate job id {}", spec.id);
            }
        }
        assert!(seen.len() > 100, "expected a substantial grid");
    }

    #[test]
    fn sweep_assembly_matches_direct_run() {
        let model = CostModel::era_2002();
        let sizes = [1_024usize, 65_536];
        let cfg = clic_pair(&model, false, true);
        let series = bandwidth_sweep("x", &cfg, StackKind::Clic, &sizes);
        assert_eq!(series.points.len(), 2);
        assert!(series.points[0].size < series.points[1].size);
        assert!(series.points.iter().all(|p| p.mbps > 0.0));
    }
}
