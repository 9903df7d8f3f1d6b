//! One benchmark invocation: set-up, untraced passes, optional traced
//! passes, the correctness gate and the report.

use crate::alloc::{self, Snapshot};
use crate::calib::{self, Clock, Segment};
use crate::check::{self, Reference};
use crate::metrics::{self, Def, END_TO_END, PER_LAYER, REPORT_ONLY};
use crate::trace::{self, Tracer};
use crate::workload::{self, Model, Workload};
use clic_bench::runner::{run_jobs, RunReport, RunnerConfig};
use clic_cluster::experiments::ResultMap;
use clic_cluster::jobs::{set_job_probe_factory, JobSpec};
use clic_cluster::observe::{run_pipeline_trace, TraceScenario};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; every job seed derives from it.
    pub seed: u64,
    /// Host seconds to spend measuring (set-up excluded).
    pub seconds: f64,
    /// Run the traced passes and report per-layer metrics.
    pub trace: bool,
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report lines, every end-to-end metric included.
    pub report: Vec<String>,
    /// The one-line JSON result.
    pub result: String,
    /// Chrome trace-event JSON of the last traced pass's spans.
    pub spans_json: Option<String>,
}

/// Set-up repeats: at least this many, for a median.
const MIN_SETUP_REPEATS: usize = 5;
/// Share of the measuring budget set-up repeats may add.
const SETUP_BUDGET_SHARE: f64 = 0.1;

/// The median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One untraced run of every job plus the family assemblers.
struct Pass {
    results: ResultMap,
    digests: BTreeMap<String, u64>,
    /// Host and reference-speed seconds of the jobs and assemblers.
    time: Segment,
    runner_overhead_s: f64,
    allocs: Snapshot,
    peak_bytes: i64,
    events: f64,
    model: Model,
}

/// Ids of the jobs in `specs` that panic when run on their own.
fn panicking(specs: &[JobSpec]) -> BTreeSet<String> {
    specs
        .iter()
        .filter(|spec| {
            catch_unwind(AssertUnwindSafe(|| {
                run_jobs(std::slice::from_ref(*spec), &RunnerConfig::uncached(1))
            }))
            .is_err()
        })
        .map(|spec| spec.id.clone())
        .collect()
}

/// Run every job and the assemblers once, each job as one segment of
/// `clock`. `Err` carries the ids of the jobs that panicked, to be taken
/// out of later passes.
fn run_pass(
    w: Workload,
    specs: &[JobSpec],
    assemble: bool,
    clock: &mut Clock,
) -> Result<Pass, BTreeSet<String>> {
    alloc::reset_peak();
    let live_before = alloc::live_bytes();
    let allocs_before = Snapshot::now();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut results = ResultMap::new();
        let mut report = RunReport::default();
        for spec in specs {
            let (one, one_report) =
                clock.time(|| run_jobs(std::slice::from_ref(spec), &RunnerConfig::uncached(1)));
            results.extend(one);
            report.merge(&one_report);
        }
        let outputs = if assemble {
            clock.time(|| w.assemble(&results))
        } else {
            Vec::new()
        };
        (results, report, outputs)
    }));
    let allocs = Snapshot::now().since(allocs_before);
    let peak_bytes = alloc::peak_bytes() - live_before;
    let time = calib::totals(&clock.take());
    let Ok((results, report, outputs)) = ran else {
        let bad = panicking(specs);
        assert!(!bad.is_empty(), "a family assembler panicked");
        return Err(bad);
    };
    let model = workload::model(specs, &results, &outputs);
    let events = results.values().filter_map(|m| m.get("m.events")).sum();
    Ok(Pass {
        digests: check::digests(&results),
        results,
        time,
        runner_overhead_s: report.wall_secs - report.serial_equiv_secs(),
        allocs,
        peak_bytes,
        events,
        model,
    })
}

/// Generate the jobs and build every job's cluster, each time as one
/// segment of `clock`, at least `MIN_SETUP_REPEATS` times and until
/// `budget_s` is spent; returns the jobs, each repeat's seconds and the
/// last repeat's allocations.
fn setup(
    w: Workload,
    seed: u64,
    budget_s: f64,
    clock: &mut Clock,
) -> (Vec<JobSpec>, Vec<Segment>, Snapshot) {
    let started = Instant::now();
    let mut repeats = 0;
    loop {
        let (specs, allocs) = clock.time(|| {
            let a0 = Snapshot::now();
            let specs = w.jobs(seed);
            trace::build_all(&specs);
            (specs, Snapshot::now().since(a0))
        });
        repeats += 1;
        if repeats >= MIN_SETUP_REPEATS && started.elapsed().as_secs_f64() >= budget_s {
            return (specs, clock.take(), allocs);
        }
    }
}

/// Run passes of `f` until `budget_s` would be exceeded by one more
/// (at least `min` passes).
fn repeat<T>(budget_s: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f());
        let spent = started.elapsed().as_secs_f64();
        let per_pass = spent / out.len() as f64;
        if out.len() >= min && spent + per_pass > budget_s {
            return out;
        }
    }
}

/// One traced pass: the runner with the handler probe installed, the
/// per-job replay through build/drive/collect, and the assemblers.
struct TracedPass {
    tracer: Tracer,
    wall_s: f64,
    digests: BTreeMap<String, u64>,
    replay: trace::Replay,
}

fn traced_pass(w: Workload, specs: &[JobSpec], assemble: bool) -> TracedPass {
    let mut tracer = Tracer::default();
    let t0 = Instant::now();
    let results = tracer.span("runner", None, |_| {
        set_job_probe_factory(Some(trace::handler_probe));
        let (results, _) = run_jobs(specs, &RunnerConfig::uncached(1));
        set_job_probe_factory(None);
        results
    });
    let replay = trace::replay(specs, &mut tracer);
    if assemble {
        tracer.span("assemble", None, |_| w.assemble(&results));
    }
    TracedPass {
        wall_s: t0.elapsed().as_secs_f64(),
        digests: check::digests(&results),
        tracer,
        replay,
    }
}

/// The Fig. 7 stage budget (µs per packet) of the workload's pipeline.
fn stages(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let (scenario, size) = match w {
        Workload::LossyRecovery => (TraceScenario::Fig7aLossy, 14_000),
        Workload::PaperGrid | Workload::FabricCongestion => (TraceScenario::Fig7a, 1_400),
    };
    let t = run_pipeline_trace(scenario, size, 1_500, seed);
    let mean = |stage: &str| {
        t.breakdown
            .iter()
            .find(|r| r.stage == stage)
            .map_or(0.0, |r| r.mean_us())
    };
    // Flight + interrupt wait of the first packet: TX DMA done to the
    // receive driver starting on the frame.
    let first = |stage: &str| t.spans.iter().find(|s| s.stage == stage);
    let flight = match (first("nic_tx_dma"), first("driver_rx")) {
        (Some(tx), Some(rx)) => rx
            .begin
            .checked_since(tx.end)
            .map_or(0.0, |d| d.as_us_f64()),
        _ => 0.0,
    };
    vec![
        ("stage.syscall_us", mean("syscall")),
        ("stage.clic_module_tx_us", mean("clic_module_tx")),
        ("stage.driver_tx_us", mean("driver_tx")),
        ("stage.nic_tx_dma_us", mean("nic_tx_dma")),
        ("stage.flight_us", flight),
        ("stage.bottom_half_us", mean("bottom_half")),
        ("stage.driver_rx_us", mean("driver_rx")),
        ("stage.clic_module_rx_us", mean("clic_module_rx")),
        ("stage.copy_to_user_us", mean("copy_to_user")),
    ]
}

fn fmt_metric(report: &mut Vec<String>, d: &Def, value: Option<f64>, note: &str) {
    let v = value.map_or("n/a".to_string(), |v| v.to_string());
    let note = if note.is_empty() {
        String::new()
    } else {
        format!("  # {note}")
    };
    report.push(format!("metric {} {} {}{}", d.name, v, d.unit, note));
}

/// The per-layer values of the traced passes, and the ids of jobs whose
/// results changed under the probe or whose replay diverged.
fn per_layer(
    w: Workload,
    seed: u64,
    traced: &[TracedPass],
    specs: &[JobSpec],
    passes: &[Pass],
    run_wall_s: f64,
    setup_allocs: Snapshot,
) -> (Vec<(Def, f64)>, BTreeSet<String>) {
    let first = &passes[0];
    let events = first.events;
    let mut failed = BTreeSet::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in traced {
        // Probes observe dispatch only, so results must not change; the
        // replay must execute exactly the events each job did.
        failed.extend(check::nondeterministic(&first.digests, &t.digests));
        for (spec, &ev) in specs.iter().zip(&t.replay.events) {
            if first.results[&spec.id].get("m.events") != Some(ev as f64) {
                failed.insert(spec.id.clone());
            }
        }
        let mut push = |k: &'static str, v: f64| samples.entry(k).or_default().push(v);
        push("cluster.build_s", t.tracer.total_secs("build"));
        push("cluster.drive_s", t.tracer.total_secs("drive"));
        push("cluster.assemble_s", t.tracer.total_secs("assemble"));
        let self_secs = t.tracer.self_secs();
        for (span, key) in [
            ("runner", "span.runner.self_s"),
            ("job", "span.job.self_s"),
            ("build", "span.build.self_s"),
            ("drive", "span.drive.self_s"),
            ("collect", "span.collect.self_s"),
            ("assemble", "span.assemble.self_s"),
        ] {
            push(key, self_secs.get(span).copied().unwrap_or(0.0));
        }
        let handler = t.replay.handler_ns as f64;
        let drive_ns = t.tracer.total_secs("drive") * 1e9;
        push("sim.handler_ns_per_event", handler / events);
        push("sim.engine_ns_per_event", (drive_ns - handler) / events);
        push("trace.overhead_frac", t.wall_s / run_wall_s - 1.0);
    }
    let mut values: BTreeMap<&str, f64> = samples.iter().map(|(k, v)| (*k, median(v))).collect();
    let overheads: Vec<f64> = passes.iter().map(|p| p.runner_overhead_s).collect();
    values.insert("bench.runner.overhead_s", median(&overheads));
    values.insert("alloc.setup_allocs", setup_allocs.allocs as f64);
    values.insert(
        "alloc.run_allocs_per_event",
        first.allocs.allocs as f64 / events,
    );
    values.insert("sim.events", events);

    // Work counts are exact, so any traced pass gives the same ones.
    let c = &traced
        .last()
        .expect("at least one traced pass")
        .replay
        .counts;
    let count = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let recycled = count("bytes.pool.recycled");
    let misses = count("bytes.pool.alloc_misses");
    values.insert(
        "bytes.pool.recycle_ratio",
        recycled / (recycled + misses).max(1.0),
    );
    let retx = count("clic.retransmits");
    values.insert(
        "clic.useful_ratio",
        1.0 - retx / count("clic.packets_sent").max(1.0),
    );
    let drops = ["backlog", "duplicate", "expired", "ooo", "stale_epoch"]
        .iter()
        .map(|k| count(&format!("clic.drops.{k}")))
        .sum();
    values.insert("clic.drops", drops);
    for d in &PER_LAYER {
        if let Some(&v) = c.get(d.name) {
            values.entry(d.name).or_insert(v);
        }
    }
    values.extend(stages(w, seed));
    let out = PER_LAYER
        .iter()
        .map(|d| {
            let v = *values
                .get(d.name)
                .unwrap_or_else(|| panic!("per-layer metric {} not measured", d.name));
            (*d, v)
        })
        .collect();
    (out, failed)
}

/// Run one invocation.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut clock = Clock::new();
    let (specs, setup_times, setup_allocs) =
        setup(w, opts.seed, opts.seconds * SETUP_BUDGET_SHARE, &mut clock);
    let untraced_budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Jobs that panic are counted as failed and taken out of every later
    // pass, so the passes measured run one set of jobs the same way. The
    // assemblers need every result and run only when no job is out.
    let mut runnable = specs.clone();
    let mut panicked: BTreeSet<String> = BTreeSet::new();
    // Two untraced passes check run-to-run determinism; in a traced run
    // the probe-installed runner pass is the second run.
    let min_passes = if opts.trace { 1 } else { 2 };
    let passes = repeat(untraced_budget, min_passes, || loop {
        match run_pass(w, &runnable, panicked.is_empty(), &mut clock) {
            Ok(pass) => break pass,
            Err(bad) => {
                runnable.retain(|s| !bad.contains(&s.id));
                panicked.extend(bad);
            }
        }
    });
    let first = &passes[0];

    // The correctness gate. A job that panicked failed to run; a job whose
    // output is invalid, unrepeatable or off the reference ran wrongly and
    // makes the run incorrect. Each failing job counts once.
    let reference = Reference::of(w);
    let mut wrong: BTreeSet<String> = BTreeSet::new();
    for p in &passes {
        wrong.extend(check::nondeterministic(&first.digests, &p.digests));
    }
    wrong.extend(check::invariant_failures(w, &runnable, &first.results));
    let mut off_reference = reference.mismatches(opts.seed, &first.digests);
    off_reference.retain(|id| !panicked.contains(id));
    wrong.extend(off_reference);

    let run_s = median(&passes.iter().map(|p| p.time.scaled_s).collect::<Vec<_>>());
    let run_wall_s = median(&passes.iter().map(|p| p.time.wall_s).collect::<Vec<_>>());
    let mut spans_json = None;
    let mut layer_metrics = Vec::new();
    let mut traced_passes = 0;
    if opts.trace {
        let assemble = panicked.is_empty();
        let traced = repeat(opts.seconds - untraced_budget, 1, || {
            traced_pass(w, &runnable, assemble)
        });
        let (values, bad) = per_layer(
            w,
            opts.seed,
            &traced,
            &runnable,
            &passes,
            run_wall_s,
            setup_allocs,
        );
        wrong.extend(bad);
        spans_json = Some(
            traced
                .last()
                .expect("a traced pass")
                .tracer
                .chrome_json(&runnable),
        );
        layer_metrics = values;
        traced_passes = traced.len();
    }

    let failed: BTreeSet<&String> = panicked.iter().chain(&wrong).collect();
    let setup_s = median(&setup_times.iter().map(|s| s.scaled_s).collect::<Vec<_>>());
    let setup_wall_s = median(&setup_times.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let pass_totals = calib::totals(&passes.iter().map(|p| p.time).collect::<Vec<_>>());
    let events = first.events;
    let m = &first.model;
    let e2e: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("run_s", Some(run_s)),
        ("events_per_s", Some(events / run_s)),
        ("setup_s", Some(setup_s)),
        ("run_wall_s", Some(run_wall_s)),
        ("setup_wall_s", Some(setup_wall_s)),
        (
            "host_speed",
            Some(pass_totals.scaled_s / pass_totals.wall_s),
        ),
        (
            "allocs_per_event",
            Some(first.allocs.allocs as f64 / events),
        ),
        (
            "alloc_bytes_per_event",
            Some(first.allocs.bytes as f64 / events),
        ),
        (
            "peak_heap_mb",
            Some(first.peak_bytes as f64 / (1024.0 * 1024.0)),
        ),
        ("model_mbps", Some(m.mbps)),
        ("model_latency_p50_us", Some(m.latency_p50_us)),
        ("model_latency_p99_us", Some(m.latency_high_us)),
        ("model_error_pct", m.error_pct),
        (
            "jobs_failed_frac",
            Some(failed.len() as f64 / specs.len() as f64),
        ),
    ]);

    let mut report = vec![format!(
        "# perfbench workload={} seed={} jobs={} setup_repeats={} untraced_passes={} \
         traced_passes={traced_passes} reference={}",
        w.name(),
        opts.seed,
        specs.len(),
        setup_times.len(),
        passes.len(),
        if reference.covers(opts.seed) {
            "checked"
        } else {
            "not recorded for this seed"
        }
    )];
    for d in &END_TO_END {
        let note = match d.name {
            "run_s" => format!("median of {} passes, at the reference speed", passes.len()),
            "events_per_s" => "at the reference speed".to_string(),
            "setup_s" => format!(
                "median of {} repeats, at the reference speed",
                setup_times.len()
            ),
            "run_wall_s" | "setup_wall_s" => "host seconds".to_string(),
            "host_speed" => "reference kernel speed ÷ its speed on the tuning machine".to_string(),
            "model_mbps" => format!("mean of {} throughput jobs", m.mbps_jobs),
            "model_latency_p50_us" => format!("median of n={}", m.latency_n),
            "model_latency_p99_us" => format!(
                "p{:.0} (ten or more samples above it, or the max) of n={}",
                m.latency_high_q * 100.0,
                m.latency_n
            ),
            _ => String::new(),
        };
        fmt_metric(&mut report, d, e2e[d.name], &note);
    }
    report.push(format!(
        "# pass seconds: {}",
        passes
            .iter()
            .map(|p| format!("{:.4}", p.time.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (d, v) in &layer_metrics {
        report.push(format!("layer {} {} {}", d.name, v, d.unit));
    }
    for id in &panicked {
        report.push(format!("# failed job (panicked): {id}"));
    }
    for id in &wrong {
        report.push(format!("# failed job (wrong output): {id}"));
    }

    let result_metrics: Vec<(Def, f64)> = if opts.trace {
        layer_metrics
    } else {
        END_TO_END
            .iter()
            .filter(|d| !REPORT_ONLY.contains(&d.name))
            .map(|d| (*d, e2e[d.name].expect("gated metrics are defined")))
            .collect()
    };
    Outcome {
        result: metrics::result_line(wrong.is_empty(), specs.len(), failed.len(), &result_metrics),
        report,
        spans_json,
    }
}
