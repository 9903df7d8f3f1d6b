//! Parallel job execution.
//!
//! Takes a set of [`JobSpec`]s, runs every one on a
//! [`std::thread::scope`] worker pool, and returns a [`ResultMap`] keyed
//! by job id — so the output is deterministic and bit-identical to
//! [`clic_cluster::experiments::run_serial`] regardless of worker count or
//! completion order. Each job owns its entire (`Rc`/`RefCell`-based)
//! simulation on the thread that runs it; only the plain-data [`JobSpec`]
//! and the flat `Measurement` cross threads. Every call simulates every
//! job.

use clic_cluster::experiments::ResultMap;
use clic_cluster::jobs::{JobSpec, Measurement};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How to execute a job set.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker thread count; `1` runs everything on the calling thread.
    pub jobs: usize,
}

impl RunnerConfig {
    /// Run on `jobs` worker threads.
    pub fn uncached(jobs: usize) -> RunnerConfig {
        RunnerConfig { jobs }
    }
}

/// One executed job, for reporting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job id.
    pub id: String,
    /// Execution time in seconds.
    pub secs: f64,
}

/// What a [`run_jobs`] call did.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-job outcomes, in job-submission order.
    pub jobs: Vec<JobReport>,
    /// Wall-clock seconds for the whole call.
    pub wall_secs: f64,
}

impl RunReport {
    /// Sum of per-job times: what a serial run of the jobs would have
    /// cost.
    pub fn serial_equiv_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }

    /// Fold another report into this one (summing wall time; used to
    /// aggregate per-figure runs into a grand total).
    pub fn merge(&mut self, other: &RunReport) {
        self.jobs.extend(other.jobs.iter().cloned());
        self.wall_secs += other.wall_secs;
    }
}

/// Execute `specs` and return results keyed by job id plus a report of
/// what ran.
///
/// Panics if two specs share an id (ids are the result keys).
pub fn run_jobs(specs: &[JobSpec], config: &RunnerConfig) -> (ResultMap, RunReport) {
    let started = Instant::now();
    let workers = config.jobs.min(specs.len());

    let done: Mutex<Vec<(usize, Measurement, f64)>> = Mutex::new(Vec::with_capacity(specs.len()));
    let next = AtomicUsize::new(0);
    let run_worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(spec) = specs.get(i) else { break };
        let t0 = Instant::now();
        let m = spec.run();
        let secs = t0.elapsed().as_secs_f64();
        done.lock().unwrap().push((i, m, secs));
    };
    if workers <= 1 {
        run_worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(run_worker);
            }
        });
    }
    let mut done = done.into_inner().unwrap();
    done.sort_unstable_by_key(|&(i, _, _)| i);

    let mut results = ResultMap::new();
    let mut report = RunReport {
        jobs: Vec::with_capacity(specs.len()),
        wall_secs: 0.0,
    };
    for (i, m, secs) in done {
        let id = &specs[i].id;
        report.jobs.push(JobReport {
            id: id.clone(),
            secs,
        });
        let prev = results.insert(id.clone(), m);
        assert!(prev.is_none(), "duplicate job id {id:?}");
    }
    report.wall_secs = started.elapsed().as_secs_f64();
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_cluster::calibration::CostModel;
    use clic_cluster::experiments::{self, run_serial};
    use clic_cluster::jobs::sweep_point;
    use clic_cluster::workload::StackKind;

    fn small_grid() -> Vec<JobSpec> {
        experiments::loss_jobs()
            .into_iter()
            .chain(experiments::syscall_jobs())
            .collect()
    }

    fn bits(map: &ResultMap) -> Vec<(String, Vec<(String, u64)>)> {
        map.iter()
            .map(|(id, m)| {
                (
                    id.clone(),
                    m.values
                        .iter()
                        .map(|(n, v)| (n.clone(), v.to_bits()))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let specs = small_grid();
        let serial = run_serial(&specs);
        let (par, report) = run_jobs(&specs, &RunnerConfig::uncached(4));
        assert_eq!(bits(&serial), bits(&par));
        assert_eq!(report.jobs.len(), specs.len());
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_panic() {
        let model = CostModel::era_2002();
        let mk = || {
            sweep_point(
                "t/dup",
                experiments::clic_pair(&model, false, true),
                StackKind::Clic,
                64,
            )
        };
        run_jobs(&[mk(), mk()], &RunnerConfig::uncached(1));
    }
}
