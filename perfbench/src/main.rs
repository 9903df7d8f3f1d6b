//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <paper-grid|fabric-congestion|lossy-recovery>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --record-reference > reference/<name>.txt
//! ```
//!
//! The report lines come first; the last line of standard output is the
//! JSON result. `--trace 1` also writes the last traced pass's spans to
//! `out/trace-<workload>-seed<N>.json` in this package's directory.

use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_perfbench::check::{digests, workload_digest, Reference};
use clic_perfbench::run::{run, Options};
use clic_perfbench::workload::{Workload, DEFAULT_SEED};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-grid|fabric-congestion|lossy-recovery> \
                     [--seed N] [--seconds S] [--trace 0|1] [--record-reference]";

/// Seeds besides the default whose whole-workload digests the reference
/// records.
const RECORDED_SEEDS: std::ops::RangeInclusive<u64> = 1..=31;

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PaperGrid,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record-reference" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, record))
}

fn record_reference(w: Workload) -> String {
    let pass = |seed| {
        let (results, _) = run_jobs(&w.jobs(seed), &RunnerConfig::uncached(1));
        digests(&results)
    };
    let mut r = Reference {
        jobs: pass(DEFAULT_SEED),
        ..Reference::default()
    };
    for seed in RECORDED_SEEDS {
        // A seed on which a job panics has no correct output to record.
        match std::panic::catch_unwind(|| pass(seed)) {
            Ok(d) => {
                r.seeds.insert(seed, workload_digest(&d));
            }
            Err(_) => eprintln!("perfbench: seed {seed} not recorded: a job panicked"),
        }
    }
    r.render(w)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, record) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if record {
        print!("{}", record_reference(opts.workload));
        return ExitCode::SUCCESS;
    }
    let outcome = run(&opts);
    if let Some(spans) = &outcome.spans_json {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{}", outcome.result);
    ExitCode::SUCCESS
}
