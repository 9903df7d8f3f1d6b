//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--jobs N] [--metrics] <what>...
//!   what: fig4 fig5 fig6 fig7 scalars gamma coalescing fragmentation
//!         bonding syscall loss cpu load paths scaling reliability
//!         chaos scale congestion claims all (chaos, scale and
//!         congestion are opt-in: not part of all)
//! figures trace [scenario] [--size N] [--mtu M] [--seed S] [--out FILE]
//!         [--metrics]
//!   scenario: fig7a (default) fig7b fig7a-lossy tcp
//! ```
//!
//! * `--quick` (alias `--smoke`) uses a reduced size grid.
//! * `--json` prints one JSON document,
//!   `{"families":[{"name":..,"output":..}]}`, instead of CSV + ASCII
//!   charts.
//! * `--jobs N` runs experiment jobs on N worker threads (default: all
//!   cores). Results are bit-identical for every N. Every run simulates
//!   every job; nothing is cached between runs.
//! * `--metrics` also prints each figure's metric totals (drops,
//!   retransmits, peak switch queue depth).
//! * `trace` runs one traced message through the pipeline, writes Chrome
//!   trace-event JSON (load it at <https://ui.perfetto.dev>) and prints a
//!   per-stage breakdown.
//!
//! The simulator's own performance (wall time, events/s, allocations,
//! per-layer split) is measured by `perfbench/`, not by this binary.

use clic_bench::json::Json;
use clic_bench::render::{series_ascii, series_csv};
use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{self, FigureKind, FigureOutput, ResultMap, Series, StageRow};
use clic_cluster::observe::{self, TimelineScenario, TraceScenario};

const USAGE: &str = "usage: figures [--quick|--smoke] [--json] [--jobs N] [--metrics] <what>...
  what: fig4 fig5 fig6 fig7 scalars gamma coalescing fragmentation
        bonding syscall loss cpu load paths scaling reliability chaos
        scale congestion claims all (chaos, scale and congestion are
        opt-in: not part of all)
   or: figures trace [fig7a|fig7b|fig7a-lossy|tcp] [--size N] [--mtu M]
        [--seed S] [--out FILE] [--metrics]
   or: figures timeline [fig7a|reliability|incast|chaos|congestion]
        [--bucket-us N]
        [--out FILE] [--last N] [--smoke]
        (replays one scenario with the timeline recorder on: CSV series
        on stdout, Perfetto counter-track JSON to --out; chaos keeps only
        the last --last buckets, flight-recorder style)";

/// Per-figure totals of the `m.`-prefixed measurement keys every job
/// reports.
#[derive(Debug, Clone, Copy, Default)]
struct MetricTotals {
    drops: f64,
    retransmits: f64,
    peak_switch_queue_depth: f64,
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
        }
        t
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
    let mut quick = false;
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut metrics = false;
    let mut what: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
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
    let config = RunnerConfig::uncached(
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    );

    let mut families = Vec::new();
    for item in &what {
        let output = if item == "claims" {
            render_claims(json)
        } else {
            let Some(kind) = FigureKind::from_name(item) else {
                die(&format!("unknown experiment '{item}'"));
            };
            let specs = kind.jobs(&sizes);
            let (results, _) = run_jobs(&specs, &config);
            let output = render(json, kind, kind.assemble(&results, &sizes));
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
            output
        };
        if let Some(output) = output {
            families.push(Json::obj([
                ("name", Json::from(item.as_str())),
                ("output", output),
            ]));
        }
    }
    if json {
        let doc = Json::obj([("families", Json::Arr(families))]);
        print!("{}", doc.pretty());
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
            "--metrics" => metrics = true,
            "--size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => size = n,
                _ => die("--size needs a positive byte count"),
            },
            "--mtu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if (128..=9_000).contains(&n) => mtu = n,
                _ => die("--mtu needs a byte count in 128..=9000"),
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
/// is a pure function of (scenario, bucket, ring capacity).
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

fn render(json: bool, kind: FigureKind, output: FigureOutput) -> Option<Json> {
    match output {
        FigureOutput::Series(series) => figure(json, kind.title(), &series),
        FigureOutput::Stages { a, b } => render_fig7(json, kind.title(), &a, &b),
        FigureOutput::Scalars(s) => render_scalars(json, kind.title(), &s),
        FigureOutput::Gamma(rows) => {
            if json {
                Some(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("protocol", Json::from(r.protocol.as_str())),
                                ("latency_us", Json::Num(r.latency_us)),
                                ("bandwidth_mbps", Json::Num(r.bandwidth_mbps)),
                            ])
                        })
                        .collect(),
                ))
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
                None
            }
        }
        FigureOutput::Coalescing(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
        FigureOutput::Bonding(rows) => {
            if json {
                Some(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("width", Json::from(r.width)),
                                ("mbps_pci33", Json::Num(r.mbps_pci33)),
                                ("mbps_pci66", Json::Num(r.mbps_pci66)),
                            ])
                        })
                        .collect(),
                ))
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
                None
            }
        }
        FigureOutput::Syscall(rows) => {
            if json {
                Some(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("flavour", Json::from(r.flavour.as_str())),
                                ("latency_us", Json::Num(r.latency_us)),
                            ])
                        })
                        .collect(),
                ))
            } else {
                println!("== {} ==", kind.title());
                for r in rows {
                    println!("{:<12} {:>8.2} us one-way", r.flavour, r.latency_us);
                }
                println!();
                None
            }
        }
        FigureOutput::Loss(rows) => {
            if json {
                Some(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("loss", Json::Num(r.loss)),
                                ("mbps", Json::Num(r.mbps)),
                                ("retx_per_kpkt", Json::Num(r.retx_per_kpkt)),
                            ])
                        })
                        .collect(),
                ))
            } else {
                println!("== {} ==", kind.title());
                println!("{:>8} {:>10} {:>14}", "loss", "Mb/s", "retx/kpkt");
                for r in rows {
                    println!("{:>8.3} {:>10.1} {:>14.2}", r.loss, r.mbps, r.retx_per_kpkt);
                }
                println!();
                None
            }
        }
        FigureOutput::Cpu(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
        FigureOutput::Load(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
        FigureOutput::Paths(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
        FigureOutput::Scaling(rows) => {
            if json {
                Some(Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("nodes", Json::from(r.nodes)),
                                ("aggregate_mbps", Json::Num(r.aggregate_mbps)),
                                ("per_node_mbps", Json::Num(r.per_node_mbps)),
                            ])
                        })
                        .collect(),
                ))
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
                None
            }
        }
        FigureOutput::Reliability(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
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
                Some(Json::obj([("soak", soak_rows), ("incast", incast_rows)]))
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
                None
            }
        }
        FigureOutput::Congestion(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
        FigureOutput::Scale(rows) => {
            if json {
                Some(Json::Arr(
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
                ))
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
                None
            }
        }
    }
}

fn render_fig7(json: bool, title: &str, a: &[StageRow], b: &[StageRow]) -> Option<Json> {
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
        return Some(Json::obj([("fig7a", stages(a)), ("fig7b", stages(b))]));
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
    None
}

fn render_scalars(json: bool, title: &str, s: &experiments::Scalars) -> Option<Json> {
    if json {
        return Some(Json::obj([
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
    None
}

fn render_claims(json: bool) -> Option<Json> {
    let rows = experiments::claims();
    if json {
        return Some(Json::Arr(
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
    None
}

fn figure(json: bool, title: &str, series: &[Series]) -> Option<Json> {
    if json {
        Some(Json::Arr(
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
        ))
    } else {
        println!("== {title} ==");
        print!("{}", series_csv(series));
        println!();
        print!("{}", series_ascii(series, 40));
        println!();
        None
    }
}
