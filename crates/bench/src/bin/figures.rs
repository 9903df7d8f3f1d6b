//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--jobs N] [--no-cache] [--cache-dir DIR]
//!         [--metrics] <what>...
//!   what: fig4 fig5 fig6 fig7 scalars gamma coalescing fragmentation
//!         bonding syscall loss cpu load paths scaling reliability
//!         chaos scale congestion claims all (chaos, scale and
//!         congestion are opt-in: not part of all)
//! figures trace [scenario] [--size N] [--mtu M] [--seed S] [--out FILE]
//!         [--metrics] [--quick]
//!   scenario: fig7a (default) fig7b fig7a-lossy tcp
//! ```
//!
//! * `--quick` (alias `--smoke`) uses a reduced size grid.
//! * `--json` emits machine-readable output instead of CSV + ASCII charts.
//! * `--jobs N` runs experiment jobs on N worker threads (default: all
//!   cores). Results are bit-identical for every N.
//! * `--no-cache` / `--cache-dir DIR` control the content-addressed result
//!   cache (default `target/figures-cache/`); cached jobs are reused when
//!   the job configuration and cost-model constants are unchanged.
//! * `--metrics` also prints each figure's metric totals (drops,
//!   retransmits, peak switch queue depth).
//! * `trace` runs one traced message through the pipeline, writes Chrome
//!   trace-event JSON (load it at <https://ui.perfetto.dev>) and prints a
//!   per-stage breakdown.
//!
//! `figures bench` is the only command that writes `BENCH_figures.json`:
//! wall clock and cache statistics per figure, the speedup over a serial
//! run of the executed jobs, per-figure metric totals and the engine
//! self-profile. Figure runs print their results and leave the file as it
//! is.

use clic_bench::json::Json;
use clic_bench::render::{series_ascii, series_csv};
use clic_bench::runner::{run_jobs, RunReport, RunnerConfig};
use clic_cluster::experiments::{self, FigureKind, FigureOutput, ResultMap, Series, StageRow};
use clic_cluster::observe::{self, TimelineScenario, TraceScenario};

const USAGE: &str = "usage: figures [--quick|--smoke] [--json] [--jobs N] [--no-cache] \
[--cache-dir DIR] [--metrics] <what>...
  what: fig4 fig5 fig6 fig7 scalars gamma coalescing fragmentation
        bonding syscall loss cpu load paths scaling reliability chaos
        scale congestion claims all (chaos, scale and congestion are
        opt-in: not part of all)
   or: figures trace [fig7a|fig7b|fig7a-lossy|tcp] [--size N] [--mtu M]
        [--seed S] [--out FILE] [--metrics] [--quick]
   or: figures timeline [fig7a|reliability|incast|chaos|congestion]
        [--bucket-us N]
        [--out FILE] [--last N] [--jobs N] [--smoke]
        (replays one scenario with the timeline recorder on: CSV series
        on stdout, Perfetto counter-track JSON to --out; chaos keeps only
        the last --last buckets, flight-recorder style)
   or: figures bench [--quick|--smoke] [--json] [--jobs N]
        (self-profiled uncached full-grid replay; results land in
        BENCH_figures.json)";

/// Per-figure totals of the `m.`-prefixed measurement keys every job
/// reports (schema v2; `events` since v5).
#[derive(Debug, Clone, Copy, Default)]
struct MetricTotals {
    drops: f64,
    retransmits: f64,
    peak_switch_queue_depth: f64,
    events: f64,
}

impl MetricTotals {
    fn from_results(results: &ResultMap) -> MetricTotals {
        let mut t = MetricTotals::default();
        for m in results.values() {
            t.drops += m.get("m.drops").unwrap_or(0.0);
            t.retransmits += m.get("m.retransmits").unwrap_or(0.0);
            t.peak_switch_queue_depth = t
                .peak_switch_queue_depth
                .max(m.get("m.peak_switch_queue_depth").unwrap_or(0.0));
            t.events += m.get("m.events").unwrap_or(0.0);
        }
        t
    }

    fn merge(&mut self, other: &MetricTotals) {
        self.drops += other.drops;
        self.retransmits += other.retransmits;
        self.peak_switch_queue_depth = self
            .peak_switch_queue_depth
            .max(other.peak_switch_queue_depth);
        self.events += other.events;
    }

    fn json(&self) -> Json {
        Json::obj([
            ("drops", Json::Num(self.drops)),
            ("retransmits", Json::Num(self.retransmits)),
            (
                "peak_switch_queue_depth",
                Json::Num(self.peak_switch_queue_depth),
            ),
            ("events", Json::Num(self.events)),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("timeline") {
        run_timeline_cmd(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        run_bench(&args[1..]);
        return;
    }
    let mut quick = false;
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut cache = true;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    let mut what: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--json" => json = true,
            "--no-cache" => cache = false,
            "--metrics" => metrics = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.into()),
                None => die("--cache-dir needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() || what.iter().any(|w| w == "all") {
        what = FigureKind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
    }

    let sizes = if quick {
        experiments::quick_sizes()
    } else {
        experiments::paper_sizes()
    };
    let config = RunnerConfig {
        jobs: jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        cache_dir: cache.then(|| cache_dir.unwrap_or_else(RunnerConfig::default_cache_dir)),
    };

    for item in &what {
        if item == "claims" {
            render_claims(json);
            continue;
        }
        let Some(kind) = FigureKind::from_name(item) else {
            eprintln!("unknown experiment '{item}'");
            std::process::exit(2);
        };
        let specs = kind.jobs(&sizes);
        let (results, _) = run_jobs(&specs, &config);
        render(json, kind, kind.assemble(&results, &sizes));
        if metrics && !json {
            let totals = MetricTotals::from_results(&results);
            println!(
                "[{}] metrics: drops={} retransmits={} peak_switch_queue_depth={}",
                kind.name(),
                totals.drops,
                totals.retransmits,
                totals.peak_switch_queue_depth
            );
            println!();
        }
    }
}

/// The `figures trace` subcommand: one traced message, any size and MTU.
fn run_trace(args: &[String]) {
    let mut scenario = TraceScenario::Fig7a;
    let mut size = 1400usize;
    let mut mtu = 1500usize;
    let mut seed = 0u64;
    let mut out = std::path::PathBuf::from("trace.json");
    let mut metrics = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // The trace run is a single message, so there is no reduced
            // grid; --quick is accepted for CLI symmetry with the figures.
            "--quick" | "--smoke" => {}
            "--metrics" => metrics = true,
            "--size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => size = n,
                _ => die("--size needs a positive byte count"),
            },
            "--mtu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => mtu = n,
                None => die("--mtu needs a byte count"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => die("--seed needs an integer"),
            },
            "--out" => match it.next() {
                Some(path) => out = path.into(),
                None => die("--out needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => match TraceScenario::parse(other) {
                Some(s) => scenario = s,
                None => die(&format!(
                    "unknown scenario '{other}' (expected fig7a, fig7b, fig7a-lossy or tcp)"
                )),
            },
        }
    }

    let t = observe::run_pipeline_trace(scenario, size, mtu, seed);
    println!(
        "== pipeline breakdown: {} {} B @ MTU {} ==",
        t.scenario.name(),
        t.size,
        t.mtu
    );
    print!("{}", observe::breakdown_table(&t.breakdown));
    println!();
    if metrics {
        print!("{}", t.metrics.dump());
        println!();
    }
    match std::fs::write(&out, &t.chrome_json) {
        Ok(()) => eprintln!(
            "wrote {} ({} spans; open in https://ui.perfetto.dev or chrome://tracing)",
            out.display(),
            t.spans.len()
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// The `figures timeline` subcommand: replay one scenario with the
/// timeline recorder sampling into fixed-width buckets. The CSV series go
/// to stdout; the Chrome/Perfetto counter-track JSON to `--out`. Output
/// is a pure function of (scenario, bucket, ring capacity): `--jobs` is
/// accepted for symmetry with the figure runs but a timeline replay is a
/// single simulation, so the bytes are identical for every N.
fn run_timeline_cmd(args: &[String]) {
    let mut scenario = TimelineScenario::Incast;
    let mut bucket_us = 10u64;
    let mut last: Option<usize> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" | "--quick" => smoke = true,
            "--bucket-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => bucket_us = n,
                _ => die("--bucket-us needs a positive microsecond count"),
            },
            "--last" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => last = Some(n),
                _ => die("--last needs a positive bucket count"),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.into()),
                None => die("--out needs a path"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {}
                _ => die("--jobs needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => match TimelineScenario::parse(other) {
                Some(s) => scenario = s,
                None => die(&format!(
                    "unknown scenario '{other}' (expected fig7a, reliability, incast, \
                     chaos or congestion)"
                )),
            },
        }
    }

    let bucket = clic_sim::SimDuration::from_us(bucket_us);
    if smoke {
        // CI mode: replay every scenario once and insist each records a
        // usable set of series; nothing is written.
        let mut ok = true;
        for s in TimelineScenario::ALL {
            let t = observe::run_timeline(s, bucket, s.default_flight());
            let rows = t.csv.lines().filter(|l| !l.starts_with('#')).count();
            let tracks = t
                .chrome_json
                .lines()
                .filter(|l| l.contains("\"ph\": \"C\""))
                .count();
            println!(
                "timeline {:<12} {} series, {} rows, {} counter samples",
                s.name(),
                t.series,
                rows,
                tracks
            );
            ok &= t.series >= 3 && rows > 0 && tracks > 0;
        }
        if !ok {
            eprintln!("timeline smoke failed: a scenario recorded too few series");
            std::process::exit(1);
        }
        return;
    }

    let flight = last.or_else(|| scenario.default_flight());
    let t = observe::run_timeline(scenario, bucket, flight);
    print!("{}", t.csv);
    let out = out.unwrap_or_else(|| format!("timeline-{}.json", scenario.name()).into());
    match std::fs::write(&out, &t.chrome_json) {
        Ok(()) => eprintln!(
            "wrote {} ({} series; open in https://ui.perfetto.dev or chrome://tracing)",
            out.display(),
            t.series
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// The engine self-profiler: an [`clic_sim::EngineProbe`] that clocks
/// every dispatched event with host wall time. Wall-clock use is
/// policy-legal here in the bench layer only — the probe never touches
/// the simulated clock, so simulation results are bit-identical with it
/// installed. Each job gets its own probe (from a `fn` pointer factory,
/// so it crosses worker threads); a probe folds its private tally into
/// the process-wide accumulator when the job's simulator is dropped, and
/// `take()` drains the accumulator between figure families to attribute
/// work per family.
mod profiler {
    use clic_sim::{ActionArm, EngineProbe};
    use std::sync::Mutex;
    use std::time::Instant;

    /// `(events, host_ns)` of the events a probe saw.
    pub type Tally = (u64, u64);

    static AGG: Mutex<Tally> = Mutex::new((0, 0));

    struct Probe {
        started: Option<Instant>,
        local: Tally,
    }

    impl EngineProbe for Probe {
        fn begin(&mut self, _arm: ActionArm) {
            // lint:allow(determinism-taint, reason="engine self-profiler measures host time only; tallies never feed back into simulated state")
            self.started = Some(Instant::now());
        }

        fn end(&mut self, _arm: ActionArm) {
            if let Some(t0) = self.started.take() {
                self.local.0 += 1;
                self.local.1 += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            let mut agg = AGG.lock().unwrap();
            agg.0 += self.local.0;
            agg.1 += self.local.1;
        }
    }

    /// Factory handed to [`clic_cluster::jobs::set_job_probe_factory`].
    pub fn probe() -> Box<dyn EngineProbe> {
        Box::new(Probe {
            started: None,
            local: (0, 0),
        })
    }

    /// Drain and reset the accumulated tally.
    pub fn take() -> Tally {
        std::mem::take(&mut *AGG.lock().unwrap())
    }
}

/// Render one family's profile tally as a JSON object.
fn profile_entry(name: &str, (events, host_ns): profiler::Tally) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("events", Json::from(events as usize)),
        ("host_ns", Json::from(host_ns as usize)),
    ])
}

/// The `figures bench` subcommand: an uncached full-grid replay whose
/// `m.events` totals give whole-simulator events/second. The replay runs
/// with the engine self-profiler installed, so the report also attributes
/// host time and event counts per figure family. Exits 1 if the profiler
/// saw a different number of events than the jobs report executing.
/// Everything lands in `BENCH_figures.json` under `"bench"`.
fn run_bench(args: &[String]) {
    let mut quick = false;
    let mut json = false;
    let mut jobs: Option<usize> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--json" => json = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown bench argument '{other}'")),
        }
    }

    // Full-grid replay: always uncached — a cache hit would measure
    // nothing — but parallel like any figures run.
    let workers =
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let config = RunnerConfig::uncached(workers);
    let sizes = if quick {
        experiments::quick_sizes()
    } else {
        experiments::paper_sizes()
    };
    let mut timings: Vec<(String, RunReport, MetricTotals)> = Vec::new();
    let mut profile: Vec<(String, profiler::Tally)> = Vec::new();
    clic_cluster::jobs::set_job_probe_factory(Some(profiler::probe));
    profiler::take(); // start from a clean accumulator
    for kind in FigureKind::ALL {
        let specs = kind.jobs(&sizes);
        let (results, report) = run_jobs(&specs, &config);
        let totals = MetricTotals::from_results(&results);
        timings.push((kind.name().to_string(), report, totals));
        profile.push((kind.name().to_string(), profiler::take()));
    }
    clic_cluster::jobs::set_job_probe_factory(None);
    let mut grid = RunReport::default();
    let mut grid_metrics = MetricTotals::default();
    for (_, r, t) in &timings {
        grid.merge(r);
        grid_metrics.merge(t);
    }
    let profile_total = profile
        .iter()
        .fold((0, 0), |(e, ns), &(_, (pe, pns))| (e + pe, ns + pns));
    // The probe must see every event the jobs executed; a mismatch means
    // a job ran events outside the profiled simulator.
    if profile_total.0 as f64 != grid_metrics.events {
        eprintln!(
            "engine self-profile saw {} events, but the jobs executed {:.0}",
            profile_total.0, grid_metrics.events
        );
        std::process::exit(1);
    }
    let grid_eps_serial = if grid.serial_equiv_secs() > 0.0 {
        grid_metrics.events / grid.serial_equiv_secs()
    } else {
        0.0
    };

    let bench = Json::obj([
        (
            "full_grid",
            Json::obj([
                ("jobs", Json::from(grid.jobs.len())),
                ("events", Json::Num(grid_metrics.events)),
                ("wall_secs", Json::Num(grid.wall_secs)),
                ("serial_equiv_secs", Json::Num(grid.serial_equiv_secs())),
                ("events_per_sec_serial", Json::Num(grid_eps_serial)),
            ]),
        ),
        (
            "profile",
            Json::obj([
                (
                    "modules",
                    Json::Arr(
                        profile
                            .iter()
                            .map(|(name, tally)| profile_entry(name, *tally))
                            .collect(),
                    ),
                ),
                ("total", profile_entry("total", profile_total)),
            ]),
        ),
    ]);

    if json {
        print_json(bench.clone());
    } else {
        println!("== full-grid replay (uncached, {workers} workers) ==");
        println!(
            "{} jobs, {:.0} events, wall {:.2}s, serial-equivalent {:.2}s, {:.0} events/sec (serial)",
            grid.jobs.len(),
            grid_metrics.events,
            grid.wall_secs,
            grid.serial_equiv_secs(),
            grid_eps_serial
        );
        println!();
        println!("== engine self-profile (per figure family) ==");
        println!("{:<16} {:>12} {:>12}", "module", "events", "host ms");
        let total_row = ("total".to_string(), profile_total);
        for (name, (events, ns)) in profile.iter().chain(std::iter::once(&total_row)) {
            println!("{:<16} {:>12} {:>12.1}", name, events, *ns as f64 / 1e6);
        }
    }

    let path = "BENCH_figures.json";
    match std::fs::write(path, bench_report(quick, &config, &timings, bench).pretty()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The `BENCH_figures.json` document: per-figure and total wall clock,
/// cache statistics, executed-work speedup over serial and metric totals,
/// plus the full-grid replay and self-profile under a `"bench"` key.
fn bench_report(
    quick: bool,
    config: &RunnerConfig,
    timings: &[(String, RunReport, MetricTotals)],
    bench: Json,
) -> Json {
    let figure_entry = |name: &str, r: &RunReport, t: &MetricTotals| {
        Json::obj([
            ("name", Json::from(name)),
            ("jobs", Json::from(r.jobs.len())),
            ("cache_hits", Json::from(r.cache_hits())),
            ("cache_hit_rate", Json::Num(r.cache_hit_rate())),
            ("wall_secs", Json::Num(r.wall_secs)),
            ("serial_equiv_secs", Json::Num(r.serial_equiv_secs())),
            ("speedup_vs_serial", Json::Num(r.speedup_vs_serial())),
            ("metrics", t.json()),
        ])
    };
    let mut total = RunReport::default();
    let mut total_metrics = MetricTotals::default();
    for (_, r, t) in timings {
        total.merge(r);
        total_metrics.merge(t);
    }
    Json::obj([
        (
            "schema",
            Json::from(clic_cluster::jobs::MEASUREMENT_SCHEMA_VERSION as usize),
        ),
        ("grid", Json::from(if quick { "quick" } else { "paper" })),
        ("workers", Json::from(config.jobs)),
        // Recorded so speedup numbers can be interpreted: with more
        // workers than cores, per-job timings include preemption time
        // and `speedup_vs_serial` overstates the real wall-clock gain.
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cache_enabled", Json::from(config.cache_dir.is_some())),
        (
            "figures",
            Json::Arr(
                timings
                    .iter()
                    .map(|(name, r, t)| figure_entry(name, r, t))
                    .collect(),
            ),
        ),
        ("total", figure_entry("total", &total, &total_metrics)),
        ("bench", bench),
    ])
}

fn render(json: bool, kind: FigureKind, output: FigureOutput) {
    match output {
        FigureOutput::Series(series) => figure(json, kind.title(), &series),
        FigureOutput::Stages { a, b } => render_fig7(json, kind.title(), &a, &b),
        FigureOutput::Scalars(s) => render_scalars(json, kind.title(), &s),
        FigureOutput::Gamma(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("protocol", Json::from(r.protocol.as_str())),
                                ("latency_us", Json::Num(r.latency_us)),
                                ("bandwidth_mbps", Json::Num(r.bandwidth_mbps)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<16} {:>12} {:>16}",
                    "protocol", "latency(us)", "bandwidth(Mb/s)"
                );
                for r in rows {
                    println!(
                        "{:<16} {:>12.1} {:>16.1}",
                        r.protocol, r.latency_us, r.bandwidth_mbps
                    );
                }
                println!("(paper: CLIC 36 us / ~600 Mb/s; GAMMA 32 us (GA620) / 768-824 Mb/s)");
                println!();
            }
        }
        FigureOutput::Coalescing(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("usecs", Json::Num(r.usecs as f64)),
                                ("frames", Json::Num(r.frames as f64)),
                                ("mbps", Json::Num(r.mbps)),
                                ("irqs_per_kframe", Json::Num(r.irqs_per_kframe)),
                                ("latency_us", Json::Num(r.latency_us)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:>7} {:>7} {:>10} {:>14} {:>12}",
                    "usecs", "frames", "Mb/s", "irqs/kframe", "latency(us)"
                );
                for r in rows {
                    println!(
                        "{:>7} {:>7} {:>10.1} {:>14.1} {:>12.1}",
                        r.usecs, r.frames, r.mbps, r.irqs_per_kframe, r.latency_us
                    );
                }
                println!();
            }
        }
        FigureOutput::Bonding(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("width", Json::from(r.width)),
                                ("mbps_pci33", Json::Num(r.mbps_pci33)),
                                ("mbps_pci66", Json::Num(r.mbps_pci66)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:>6} {:>16} {:>16}",
                    "width", "PCI 33/32 Mb/s", "PCI 66/64 Mb/s"
                );
                for r in rows {
                    println!(
                        "{:>6} {:>16.1} {:>16.1}",
                        r.width, r.mbps_pci33, r.mbps_pci66
                    );
                }
                println!();
            }
        }
        FigureOutput::Syscall(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("flavour", Json::from(r.flavour.as_str())),
                                ("latency_us", Json::Num(r.latency_us)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                for r in rows {
                    println!("{:<12} {:>8.2} us one-way", r.flavour, r.latency_us);
                }
                println!();
            }
        }
        FigureOutput::Loss(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("loss", Json::Num(r.loss)),
                                ("mbps", Json::Num(r.mbps)),
                                ("retx_per_kpkt", Json::Num(r.retx_per_kpkt)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!("{:>8} {:>10} {:>14}", "loss", "Mb/s", "retx/kpkt");
                for r in rows {
                    println!("{:>8.3} {:>10.1} {:>14.2}", r.loss, r.mbps, r.retx_per_kpkt);
                }
                println!();
            }
        }
        FigureOutput::Cpu(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("stack", Json::from(r.stack.as_str())),
                                ("link_mbps", Json::Num(r.link_mbps as f64)),
                                ("mbps", Json::Num(r.mbps)),
                                ("pct_of_wire", Json::Num(r.pct_of_wire)),
                                ("sender_cpu", Json::Num(r.sender_cpu)),
                                ("receiver_cpu", Json::Num(r.receiver_cpu)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    "stack", "link Mb/s", "Mb/s", "% of wire", "tx CPU", "rx CPU"
                );
                for r in rows {
                    println!(
                        "{:<6} {:>10} {:>10.1} {:>9.1}% {:>9.0}% {:>9.0}%",
                        r.stack,
                        r.link_mbps,
                        r.mbps,
                        r.pct_of_wire,
                        r.sender_cpu * 100.0,
                        r.receiver_cpu * 100.0
                    );
                }
                println!();
            }
        }
        FigureOutput::Load(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("stack", Json::from(r.stack.as_str())),
                                ("loaded", Json::from(r.loaded)),
                                ("min_us", Json::Num(r.min_us)),
                                ("mean_us", Json::Num(r.mean_us)),
                                ("p99_us", Json::Num(r.p99_us)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<6} {:>8} {:>10} {:>10} {:>10}",
                    "stack", "loaded", "min (us)", "mean (us)", "p99 (us)"
                );
                for r in rows {
                    println!(
                        "{:<6} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                        r.stack, r.loaded, r.min_us, r.mean_us, r.p99_us
                    );
                }
                println!();
            }
        }
        FigureOutput::Paths(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("path", Json::Num(r.path as f64)),
                                ("description", Json::from(r.description.as_str())),
                                ("link_mbps", Json::Num(r.link_mbps as f64)),
                                ("mbps", Json::Num(r.mbps)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<5} {:>10} {:>10}  description",
                    "path", "link Mb/s", "Mb/s"
                );
                for r in rows {
                    println!(
                        "{:<5} {:>10} {:>10.1}  {}",
                        r.path, r.link_mbps, r.mbps, r.description
                    );
                }
                println!();
            }
        }
        FigureOutput::Scaling(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("nodes", Json::from(r.nodes)),
                                ("aggregate_mbps", Json::Num(r.aggregate_mbps)),
                                ("per_node_mbps", Json::Num(r.per_node_mbps)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:>6} {:>16} {:>14}",
                    "nodes", "aggregate Mb/s", "per node Mb/s"
                );
                for r in rows {
                    println!(
                        "{:>6} {:>16.1} {:>14.1}",
                        r.nodes, r.aggregate_mbps, r.per_node_mbps
                    );
                }
                println!();
            }
        }
        FigureOutput::Reliability(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("stack", Json::from(r.stack.as_str())),
                                ("mtu", Json::from(r.mtu)),
                                ("loss_pct", Json::Num(r.loss_pct)),
                                ("bursty", Json::from(r.bursty)),
                                ("mbps", Json::Num(r.mbps)),
                                ("mean_us", Json::Num(r.mean_us)),
                                ("p99_us", Json::Num(r.p99_us)),
                                ("retx", Json::Num(r.retx)),
                                ("drops", Json::Num(r.drops)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<6} {:>6} {:>7} {:>8} {:>10} {:>10} {:>10} {:>7} {:>7}",
                    "stack",
                    "mtu",
                    "loss%",
                    "model",
                    "Mb/s",
                    "mean(us)",
                    "p99(us)",
                    "retx",
                    "drops"
                );
                for r in rows {
                    println!(
                        "{:<6} {:>6} {:>7} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>7.0} {:>7.0}",
                        r.stack,
                        r.mtu,
                        r.loss_pct,
                        if r.bursty { "burst" } else { "uniform" },
                        r.mbps,
                        r.mean_us,
                        r.p99_us,
                        r.retx,
                        r.drops
                    );
                }
                println!();
            }
        }
        FigureOutput::Chaos { soak, incast } => {
            if json {
                let soak_rows = Json::Arr(
                    soak.iter()
                        .map(|r| {
                            Json::obj([
                                ("seed", Json::Num(r.seed as f64)),
                                ("loss_pct", Json::Num(r.loss_pct)),
                                ("crashes", Json::from(r.crashes)),
                                ("flaps", Json::from(r.flaps)),
                                ("posted", Json::Num(r.posted)),
                                ("confirmed", Json::Num(r.confirmed)),
                                ("failed", Json::Num(r.failed)),
                                ("delivered", Json::Num(r.delivered)),
                                ("err_peer_dead", Json::Num(r.err_peer_dead)),
                                ("err_stale_epoch", Json::Num(r.err_stale_epoch)),
                                ("err_max_retries", Json::Num(r.err_max_retries)),
                                ("eras", Json::Num(r.eras)),
                                ("stale_epoch_drops", Json::Num(r.stale_epoch_drops)),
                                ("retx", Json::Num(r.retx)),
                            ])
                        })
                        .collect(),
                );
                let incast_rows = Json::Arr(
                    incast
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("budget_bytes", r.budget.map_or(Json::Null, Json::from)),
                                ("senders", Json::from(r.senders)),
                                ("delivered", Json::Num(r.delivered)),
                                ("mean_us", Json::Num(r.mean_us)),
                                ("p99_us", Json::Num(r.p99_us)),
                                ("peak_buffered_bytes", Json::Num(r.peak_buffered_bytes)),
                                ("elapsed_us", Json::Num(r.elapsed_us)),
                            ])
                        })
                        .collect(),
                );
                print_json(Json::obj([("soak", soak_rows), ("incast", incast_rows)]));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:>4} {:>6} {:>7} {:>5} {:>7} {:>9} {:>7} {:>9} {:>5} {:>5} {:>5} {:>5} {:>10} {:>6}",
                    "seed",
                    "loss%",
                    "crashes",
                    "flaps",
                    "posted",
                    "confirmed",
                    "failed",
                    "delivered",
                    "pdead",
                    "stale",
                    "maxr",
                    "eras",
                    "staledrops",
                    "retx"
                );
                for r in soak {
                    println!(
                        "{:>4} {:>6} {:>7} {:>5} {:>7.0} {:>9.0} {:>7.0} {:>9.0} {:>5.0} {:>5.0} {:>5.0} {:>5.0} {:>10.0} {:>6.0}",
                        r.seed,
                        r.loss_pct,
                        r.crashes,
                        r.flaps,
                        r.posted,
                        r.confirmed,
                        r.failed,
                        r.delivered,
                        r.err_peer_dead,
                        r.err_stale_epoch,
                        r.err_max_retries,
                        r.eras,
                        r.stale_epoch_drops,
                        r.retx
                    );
                }
                println!();
                println!("-- 4-to-1 incast into a slow consumer --");
                println!(
                    "{:<10} {:>9} {:>10} {:>10} {:>12} {:>12}",
                    "budget", "delivered", "mean(us)", "p99(us)", "peak buf(B)", "elapsed(us)"
                );
                for r in incast {
                    let budget = r
                        .budget
                        .map(|b| format!("{}K", b / 1024))
                        .unwrap_or_else(|| "none".into());
                    println!(
                        "{:<10} {:>9.0} {:>10.1} {:>10.1} {:>12.0} {:>12.1}",
                        budget,
                        r.delivered,
                        r.mean_us,
                        r.p99_us,
                        r.peak_buffered_bytes,
                        r.elapsed_us
                    );
                }
                println!();
            }
        }
        FigureOutput::Congestion(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("workload", Json::from(r.workload)),
                                ("fabric", Json::from(r.fabric)),
                                ("senders", Json::from(r.senders)),
                                ("control", Json::from(r.control)),
                                ("goodput_mbps", Json::Num(r.goodput_mbps)),
                                ("p99_us", Json::Num(r.p99_us)),
                                ("drops", Json::Num(r.drops)),
                                ("marks", Json::Num(r.marks)),
                                ("echoes", Json::Num(r.echoes)),
                                ("retx", Json::Num(r.retx)),
                                ("peak_queue", Json::Num(r.peak_queue)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<8} {:<10} {:>7} {:>7} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>6}",
                    "workload",
                    "fabric",
                    "senders",
                    "control",
                    "Mb/s",
                    "p99(us)",
                    "drops",
                    "marks",
                    "echoes",
                    "retx",
                    "peakq"
                );
                for r in &rows {
                    let p99 = if r.p99_us.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{:.1}", r.p99_us)
                    };
                    println!(
                        "{:<8} {:<10} {:>7} {:>7} {:>10.1} {:>10} {:>7.0} {:>7.0} {:>7.0} {:>7.0} {:>6.0}",
                        r.workload,
                        r.fabric,
                        r.senders,
                        r.control,
                        r.goodput_mbps,
                        p99,
                        r.drops,
                        r.marks,
                        r.echoes,
                        r.retx,
                        r.peak_queue
                    );
                }
                println!();
            }
        }
        FigureOutput::Scale(rows) => {
            if json {
                print_json(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("fabric", Json::from(r.fabric)),
                                ("nodes", Json::from(r.nodes)),
                                ("backend", Json::from(r.backend)),
                                ("barrier_us", Json::Num(r.barrier_us)),
                                ("allreduce_us", Json::Num(r.allreduce_us)),
                                ("switches", Json::Num(r.switches)),
                                ("trunks", Json::Num(r.trunks)),
                                ("coll_msgs", Json::Num(r.coll_msgs)),
                                ("host_irqs", Json::Num(r.host_irqs)),
                            ])
                        })
                        .collect(),
                ));
            } else {
                println!("== {} ==", kind.title());
                println!(
                    "{:<10} {:>6} {:>8} {:>12} {:>13} {:>9} {:>7} {:>10} {:>10}",
                    "fabric",
                    "nodes",
                    "backend",
                    "barrier(us)",
                    "allreduce(us)",
                    "switches",
                    "trunks",
                    "coll msgs",
                    "host irqs"
                );
                for r in &rows {
                    println!(
                        "{:<10} {:>6} {:>8} {:>12.1} {:>13.1} {:>9.0} {:>7.0} {:>10.0} {:>10.0}",
                        r.fabric,
                        r.nodes,
                        r.backend,
                        r.barrier_us,
                        r.allreduce_us,
                        r.switches,
                        r.trunks,
                        r.coll_msgs,
                        r.host_irqs
                    );
                }
                println!();
            }
        }
    }
}

fn render_fig7(json: bool, title: &str, a: &[StageRow], b: &[StageRow]) {
    if json {
        let stages = |rows: &[StageRow]| {
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("stage", Json::from(r.stage.as_str())),
                            ("us", Json::Num(r.us)),
                        ])
                    })
                    .collect(),
            )
        };
        print_json(Json::obj([("fig7a", stages(a)), ("fig7b", stages(b))]));
        return;
    }
    println!("== {title} ==");
    println!("{:<18} {:>10} {:>10}", "stage", "7a (us)", "7b (us)");
    let stage_names: Vec<&String> = a.iter().map(|r| &r.stage).collect();
    for name in stage_names {
        let va = a.iter().find(|r| &r.stage == name).map(|r| r.us);
        let vb = b.iter().find(|r| &r.stage == name).map(|r| r.us);
        println!(
            "{:<18} {:>10} {:>10}",
            name,
            va.map(|v| format!("{v:.2}")).unwrap_or_default(),
            vb.map(|v| format!("{v:.2}")).unwrap_or("-".into()),
        );
    }
    let total = |rows: &[StageRow]| -> f64 {
        rows.iter()
            .filter(|r| {
                ["driver_rx", "bottom_half", "clic_module_rx", "copy_to_user"]
                    .contains(&r.stage.as_str())
            })
            .map(|r| r.us)
            .sum()
    };
    println!(
        "receive-path total: 7a = {:.1} us, 7b = {:.1} us (paper: ~20 -> ~5)",
        total(a),
        total(b)
    );
    println!();
}

fn render_scalars(json: bool, title: &str, s: &experiments::Scalars) {
    if json {
        print_json(Json::obj([
            ("zero_byte_latency_us", Json::Num(s.zero_byte_latency_us)),
            (
                "clic_asymptote_9000_mbps",
                Json::Num(s.clic_asymptote_9000_mbps),
            ),
            (
                "clic_asymptote_1500_mbps",
                Json::Num(s.clic_asymptote_1500_mbps),
            ),
            (
                "tcp_asymptote_9000_mbps",
                Json::Num(s.tcp_asymptote_9000_mbps),
            ),
            (
                "clic_half_bandwidth_bytes_1500",
                Json::from(s.clic_half_bandwidth_bytes_1500),
            ),
            (
                "clic_half_bandwidth_bytes_9000",
                Json::from(s.clic_half_bandwidth_bytes_9000),
            ),
            (
                "tcp_half_bandwidth_bytes",
                Json::from(s.tcp_half_bandwidth_bytes),
            ),
        ]));
        return;
    }
    println!("== {title} ==");
    println!(
        "0-byte one-way latency : {:7.1} us   (paper: 36)",
        s.zero_byte_latency_us
    );
    println!(
        "CLIC asymptote MTU9000 : {:7.1} Mb/s (paper: ~600)",
        s.clic_asymptote_9000_mbps
    );
    println!(
        "CLIC asymptote MTU1500 : {:7.1} Mb/s (paper: ~450)",
        s.clic_asymptote_1500_mbps
    );
    println!(
        "TCP  asymptote MTU9000 : {:7.1} Mb/s (paper: CLIC > 2x TCP)",
        s.tcp_asymptote_9000_mbps
    );
    println!(
        "CLIC 50%-of-peak (1500): {:7} B    (paper: ~4 KB)",
        s.clic_half_bandwidth_bytes_1500
    );
    println!(
        "CLIC 50%-of-peak (9000): {:7} B",
        s.clic_half_bandwidth_bytes_9000
    );
    println!(
        "TCP  50%-of-peak       : {:7} B    (paper: ~16 KB)",
        s.tcp_half_bandwidth_bytes
    );
    println!();
}

fn render_claims(json: bool) {
    let rows = experiments::claims();
    if json {
        print_json(Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("id", Json::from(r.id.as_str())),
                        ("claim", Json::from(r.claim.as_str())),
                        ("measured", Json::from(r.measured.as_str())),
                        ("pass", Json::from(r.pass)),
                    ])
                })
                .collect(),
        ));
        return;
    }
    println!("== Paper-claim checklist ==");
    let mut all_pass = true;
    for r in &rows {
        all_pass &= r.pass;
        println!(
            "[{}] {:<4} {}\n        measured: {}",
            if r.pass { "PASS" } else { "FAIL" },
            r.id,
            r.claim,
            r.measured
        );
    }
    println!();
    println!(
        "{} of {} claims reproduced",
        rows.iter().filter(|r| r.pass).count(),
        rows.len()
    );
    if !all_pass {
        std::process::exit(1);
    }
}

fn print_json(doc: Json) {
    print!("{}", doc.pretty());
}

fn figure(json: bool, title: &str, series: &[Series]) {
    if json {
        print_json(Json::Arr(
            series
                .iter()
                .map(|s| {
                    Json::obj([
                        ("label", Json::from(s.label.as_str())),
                        (
                            "points",
                            Json::Arr(
                                s.points
                                    .iter()
                                    .map(|p| {
                                        Json::obj([
                                            ("size", Json::from(p.size)),
                                            ("mbps", Json::Num(p.mbps)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ));
    } else {
        println!("== {title} ==");
        print!("{}", series_csv(series));
        println!();
        print!("{}", series_ascii(series, 40));
        println!();
    }
}
