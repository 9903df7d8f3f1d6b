//! The traced run: host-time spans at the boundaries the benchmark calls
//! (runner, job, build, drive, collect, assemble), an engine probe that
//! splits driver time into event-handler and engine self time, and the
//! per-layer work counts read from `collect_metrics`.

use clic_cluster::jobs::{JobKind, JobSpec};
use clic_cluster::observe::collect_metrics;
use clic_cluster::workload::{
    all_to_all_clic, chaos_clic, collective_scale, incast_clic, ping_pong, request_reply_cycles,
    stream, stream_pipelined, ChaosPlan,
};
use clic_cluster::{Cluster, ClusterConfig};
use clic_sim::{ActionArm, EngineProbe, Metrics, Sim, SimDuration};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One host-time span. Spans of one job carry its index in `job`.
struct Span {
    /// Boundary name.
    name: &'static str,
    /// Index of the job the span belongs to, if any.
    job: Option<usize>,
    /// Start, ns since the tracer was created.
    start_ns: u64,
    /// End, ns since the tracer was created.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// In-memory span recorder; spans are written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns();
        out
    }

    /// Summed self time (duration minus the time its child spans cover)
    /// per span name, seconds.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - child) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration per span name, seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as a Chrome trace-event JSON array (complete events, µs).
    pub fn chrome_json(&self, jobs: &[JobSpec]) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let job = s.job.map(|j| jobs[j].id.as_str()).unwrap_or("");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"job\":\"{}\"}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                job.replace('\\', "\\\\").replace('"', "\\\""),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

thread_local! {
    static HANDLER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Times every event handler the engine dispatches.
struct HandlerProbe {
    started: Option<Instant>,
}

impl EngineProbe for HandlerProbe {
    fn begin(&mut self, _arm: ActionArm) {
        self.started = Some(Instant::now());
    }

    fn end(&mut self, _arm: ActionArm) {
        if let Some(t) = self.started.take() {
            let ns = t.elapsed().as_nanos() as u64;
            HANDLER_NS.with(|c| c.set(c.get() + ns));
        }
    }
}

/// A fresh handler-timing probe; a plain `fn` so it also serves as the
/// runner's job probe factory.
pub fn handler_probe() -> Box<dyn EngineProbe> {
    Box::new(HandlerProbe { started: None })
}

/// Take this thread's probe-measured handler time, ns, zeroing it.
fn take_handler_ns() -> u64 {
    HANDLER_NS.with(|c| c.replace(0))
}

/// The cluster a job builds.
fn cluster_config(kind: &JobKind) -> &ClusterConfig {
    match kind {
        JobKind::Stream { cluster, .. }
        | JobKind::PingPong { cluster, .. }
        | JobKind::StageTrace { cluster, .. }
        | JobKind::Reliability { cluster, .. }
        | JobKind::AllToAll { cluster, .. }
        | JobKind::Chaos { cluster, .. }
        | JobKind::ScaleCollective { cluster, .. }
        | JobKind::Incast { cluster, .. } => cluster,
        JobKind::LoadedLatency { .. } => unreachable!("no workload runs the load family"),
    }
}

/// Build every job's cluster once, dropping each before the next (the
/// cluster half of set-up).
pub fn build_all(specs: &[JobSpec]) {
    for spec in specs {
        std::hint::black_box(Cluster::build(cluster_config(&spec.kind)));
    }
}

/// Drive `kind`'s workload on a built cluster, as the job itself does.
fn drive(kind: &JobKind, cluster: &Cluster, sim: &mut Sim) {
    match *kind {
        JobKind::Stream {
            stack,
            size,
            count,
            pipelined,
            ..
        } => {
            if pipelined {
                stream_pipelined(cluster, sim, stack, size, count);
            } else {
                stream(cluster, sim, stack, size, count);
            }
        }
        JobKind::PingPong {
            stack,
            size,
            rounds,
            ..
        } => {
            ping_pong(cluster, sim, stack, size, rounds);
        }
        JobKind::Reliability {
            stack,
            size,
            rounds,
            ..
        } => {
            request_reply_cycles(cluster, sim, stack, size, 4, rounds);
        }
        JobKind::AllToAll { size, .. } => {
            all_to_all_clic(cluster, sim, size);
        }
        JobKind::Chaos {
            size,
            nmsgs,
            crashes,
            flaps,
            seed,
            ..
        } => {
            let plan = ChaosPlan::draw(seed, crashes, flaps);
            chaos_clic(cluster, sim, size, nmsgs, &plan);
        }
        JobKind::Incast {
            size,
            per_sender,
            consume_delay_us,
            ..
        } => {
            incast_clic(
                cluster,
                sim,
                size,
                per_sender,
                SimDuration::from_us(consume_delay_us),
            );
        }
        JobKind::ScaleCollective { offload, .. } => {
            collective_scale(cluster, sim, offload);
        }
        JobKind::StageTrace { .. } | JobKind::LoadedLatency { .. } => {
            unreachable!("no workload runs the fig7 or load families")
        }
    }
}

fn job_seed(kind: &JobKind) -> u64 {
    match *kind {
        JobKind::Stream { seed, .. }
        | JobKind::PingPong { seed, .. }
        | JobKind::StageTrace { seed, .. }
        | JobKind::Reliability { seed, .. }
        | JobKind::AllToAll { seed, .. }
        | JobKind::Chaos { seed, .. }
        | JobKind::ScaleCollective { seed, .. }
        | JobKind::Incast { seed, .. } => seed,
        JobKind::LoadedLatency { .. } => unreachable!("no workload runs the load family"),
    }
}

/// Per-layer work counts summed over a workload's jobs.
pub type Counts = BTreeMap<&'static str, f64>;

/// Counters the simulation records live (unprefixed, exact names).
const LIVE_COUNTERS: [&str; 20] = [
    "clic.drops.backlog",
    "clic.drops.duplicate",
    "clic.drops.expired",
    "clic.drops.ooo",
    "clic.drops.stale_epoch",
    "clic.ecn_echoes",
    "clic.fast_retransmits",
    "clic.flow_failures",
    "clic.retransmits",
    "eth.fabric.trunk_tx_frames",
    "eth.link.frames_lost",
    "eth.switch.drops",
    "eth.switch.ecn_marks",
    "hw.nic.coll.msgs_tx",
    "mpi.sends",
    "os.bottom_halves",
    "os.context_switches",
    "os.irqs",
    "os.syscalls",
    "tcp.retransmits",
];

/// Counters only the per-node snapshots carry (`n<id>.` prefixed).
const NODE_COUNTERS: [&str; 3] = ["clic.packets_sent", "hw.nic.irqs", "hw.nic.tx_frames"];

/// Histograms whose sum is a byte count.
const BYTE_HISTOGRAMS: [&str; 3] = ["hw.mem.copy_bytes", "hw.pci.dma_bytes", "mpi.msg_bytes"];

fn strip_node_prefix(name: &str) -> Option<&str> {
    let rest = name.strip_prefix('n')?;
    let dot = rest.find('.')?;
    rest[..dot]
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| &rest[dot + 1..])
}

/// Add one job's registry, its cluster's fabric switches and its
/// packet-buffer pool traffic to `counts`.
fn add_counts(counts: &mut Counts, reg: &Metrics, cluster: &Cluster, pool: bytes::pool::Stats) {
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_insert(0.0) += v;
    for name in LIVE_COUNTERS {
        add(name, reg.counter(name) as f64);
    }
    for (name, v) in reg.counters() {
        if let Some(base) = strip_node_prefix(name) {
            if let Some(&k) = NODE_COUNTERS.iter().find(|&&k| k == base) {
                add(k, v as f64);
            }
        }
    }
    for name in BYTE_HISTOGRAMS {
        add(name, reg.histogram(name).map_or(0, |h| h.sum()) as f64);
    }
    // `collect_metrics` snapshots the star switch only; fabric switches
    // are read directly.
    let fabric_forwarded: u64 = cluster.fabric.as_ref().map_or(0, |f| {
        f.switches()
            .iter()
            .map(|s| s.borrow().frames_forwarded())
            .sum()
    });
    add(
        "eth.switch.frames_forwarded",
        (reg.counter("eth.switch.frames_forwarded") + fabric_forwarded) as f64,
    );
    add("bytes.pool.recycled", pool.recycled as f64);
    add("bytes.pool.alloc_misses", pool.misses as f64);
    let peak = reg.max_gauge_peak("eth.switch.queue_depth") as f64;
    let e = counts.entry("eth.switch.queue_depth_peak").or_insert(0.0);
    *e = e.max(peak);
}

/// What the traced replay of a job set measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer counts summed over the jobs.
    pub counts: Counts,
    /// Events each job executed, by job index.
    pub events: Vec<u64>,
    /// Probe-measured event-handler time, ns.
    pub handler_ns: u64,
}

/// Re-run every job through `Cluster::build`, the workload driver and
/// `collect_metrics`, each inside its own span, with the handler probe
/// installed.
pub fn replay(specs: &[JobSpec], tracer: &mut Tracer) -> Replay {
    let mut out = Replay::default();
    take_handler_ns();
    for (i, spec) in specs.iter().enumerate() {
        let job = Some(i);
        tracer.span("job", job, |t| {
            bytes::pool::reset();
            let cluster = t.span("build", job, |_| Cluster::build(cluster_config(&spec.kind)));
            let sim = t.span("drive", job, |_| {
                let mut sim = Sim::new(job_seed(&spec.kind));
                sim.metrics = Metrics::enabled();
                sim.set_probe(handler_probe());
                drive(&spec.kind, &cluster, &mut sim);
                sim
            });
            t.span("collect", job, |_| {
                let reg = collect_metrics(&cluster, &sim);
                add_counts(&mut out.counts, &reg, &cluster, bytes::pool::stats());
                out.events.push(sim.events_executed());
            });
        });
    }
    out.handler_ns = take_handler_ns();
    out
}
