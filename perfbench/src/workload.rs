//! The three benchmark workloads: which figure families each runs, how the
//! workload seed reaches every job, and the modelled (simulated-time)
//! metrics computed from the job results.

use clic_cluster::experiments::{paper_sizes, FigureKind, FigureOutput, ResultMap};
use clic_cluster::jobs::{JobKind, JobSpec};

/// The seed whose job seeds are the families' own (5, 11, 21, ...), so the
/// default-seed run reproduces the committed figures exactly.
pub const DEFAULT_SEED: u64 = 0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's two-node, lossless grid: Figs. 4-6, §4 scalars, §5 GAMMA.
    PaperGrid,
    /// Multi-switch fabrics: incast/shuffle congestion and collective scaling.
    FabricCongestion,
    /// Lossy links, crash/restart and link flaps: the recovery slow path.
    LossyRecovery,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FabricCongestion,
        Workload::LossyRecovery,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::FabricCongestion => "fabric-congestion",
            Workload::LossyRecovery => "lossy-recovery",
        }
    }

    /// Parse a `--workload` spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The figure families the workload runs, on the paper's size grid.
    pub fn families(self) -> &'static [FigureKind] {
        match self {
            Workload::PaperGrid => &[
                FigureKind::Fig4,
                FigureKind::Fig5,
                FigureKind::Fig6,
                FigureKind::Scalars,
                FigureKind::Gamma,
            ],
            Workload::FabricCongestion => &[FigureKind::Congestion, FigureKind::Scale],
            Workload::LossyRecovery => {
                &[FigureKind::Reliability, FigureKind::Loss, FigureKind::Chaos]
            }
        }
    }

    /// Whether every link is lossless, so no job may drop a frame.
    pub fn lossless(self) -> bool {
        self == Workload::PaperGrid
    }

    /// The workload's jobs with every job seed derived from `seed`.
    pub fn jobs(self, seed: u64) -> Vec<JobSpec> {
        let sizes = paper_sizes();
        let mut specs: Vec<JobSpec> = self
            .families()
            .iter()
            .flat_map(|f| f.jobs(&sizes))
            .collect();
        for spec in &mut specs {
            reseed(&mut spec.kind, seed);
        }
        specs
    }

    /// Assemble every family's output from `results`.
    pub fn assemble(self, results: &ResultMap) -> Vec<FigureOutput> {
        let sizes = paper_sizes();
        self.families()
            .iter()
            .map(|f| f.assemble(results, &sizes))
            .collect()
    }
}

/// Replace a job's seed by one derived from the workload seed: the
/// identity at [`DEFAULT_SEED`], and jobs whose family seeds differ keep
/// differing seeds.
fn reseed(kind: &mut JobKind, seed: u64) {
    let s = match kind {
        JobKind::Stream { seed, .. }
        | JobKind::PingPong { seed, .. }
        | JobKind::StageTrace { seed, .. }
        | JobKind::Reliability { seed, .. }
        | JobKind::AllToAll { seed, .. }
        | JobKind::Chaos { seed, .. }
        | JobKind::ScaleCollective { seed, .. }
        | JobKind::Incast { seed, .. } => seed,
        JobKind::LoadedLatency { .. } => unreachable!("no workload runs the seedless load family"),
    };
    *s = s.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
}

/// The paper's headline scalars, the base of `model_error_pct`.
pub const PAPER_LATENCY_US: f64 = 36.0;
/// Asymptotic CLIC bandwidth at MTU 9000, Mb/s.
pub const PAPER_MBPS_9000: f64 = 600.0;
/// Asymptotic CLIC bandwidth at MTU 1500, Mb/s.
pub const PAPER_MBPS_1500: f64 = 450.0;

/// Modelled results of one pass, in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Mean delivered payload rate over the throughput jobs, Mb/s.
    pub mbps: f64,
    /// Throughput jobs averaged into `mbps`.
    pub mbps_jobs: usize,
    /// Median of the latencies the jobs report, µs.
    pub latency_p50_us: f64,
    /// The highest percentile of the same latencies with at least ten
    /// samples above it (the maximum when there are ten or fewer), µs.
    pub latency_high_us: f64,
    /// The percentile `latency_high_us` reads, in 0..=1.
    pub latency_high_q: f64,
    /// Latency samples.
    pub latency_n: usize,
    /// Max relative error against the paper's three headline scalars, %
    /// (paper-grid only).
    pub error_pct: Option<f64>,
}

/// The modelled metrics of one pass. Each job contributes its central
/// latency (one-way ping-pong, mean request/reply cycle, mean incast
/// completion, and the barrier and all-reduce of a collective job); a
/// job's own tail percentile is not pooled with the others' centres.
pub fn model(specs: &[JobSpec], results: &ResultMap, outputs: &[FigureOutput]) -> Model {
    let mut mbps = Vec::new();
    let mut lat = Vec::new();
    for spec in specs {
        let Some(m) = results.get(&spec.id) else {
            continue;
        };
        let (rate, lats): (Option<&str>, &[&str]) = match spec.kind {
            JobKind::Stream { .. } => (Some("mbps"), &[]),
            JobKind::PingPong { .. } => (None, &["one_way_us"]),
            JobKind::Reliability { .. } => (Some("mbps"), &["mean_us"]),
            JobKind::Incast { .. } => (Some("goodput_mbps"), &["mean_us"]),
            JobKind::AllToAll { .. } => (Some("aggregate_mbps"), &[]),
            JobKind::ScaleCollective { .. } => (None, &["barrier_us", "allreduce_us"]),
            JobKind::Chaos { .. } | JobKind::StageTrace { .. } | JobKind::LoadedLatency { .. } => {
                (None, &[])
            }
        };
        mbps.extend(rate.and_then(|name| m.get(name)));
        lat.extend(lats.iter().filter_map(|name| m.get(name)));
    }
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let (high_idx, latency_high_q) = if n > 10 {
        (n - 11, (n - 10) as f64 / n as f64)
    } else {
        (n.saturating_sub(1), 1.0)
    };
    let error_pct = outputs.iter().find_map(|o| match o {
        FigureOutput::Scalars(s) => Some(
            [
                (s.zero_byte_latency_us, PAPER_LATENCY_US),
                (s.clic_asymptote_9000_mbps, PAPER_MBPS_9000),
                (s.clic_asymptote_1500_mbps, PAPER_MBPS_1500),
            ]
            .iter()
            .map(|(got, paper)| (got - paper).abs() / paper * 100.0)
            .fold(0.0, f64::max),
        ),
        _ => None,
    });
    Model {
        mbps: mbps.iter().sum::<f64>() / mbps.len().max(1) as f64,
        mbps_jobs: mbps.len(),
        latency_p50_us: lat.get(n / 2).copied().unwrap_or(f64::NAN),
        latency_high_us: lat.get(high_idx).copied().unwrap_or(f64::NAN),
        latency_high_q,
        latency_n: n,
        error_pct,
    }
}
