//! The output-correctness gate: per-job digests of every `Measurement`
//! bit, a reference recorded from the program, run-to-run determinism and
//! per-job invariants. Every job that fails any of them is counted once in
//! `jobs_failed_frac`.

use crate::workload::{Workload, DEFAULT_SEED};
use clic_cluster::experiments::ResultMap;
use clic_cluster::jobs::{JobSpec, Measurement};
use std::collections::{BTreeMap, BTreeSet};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain([0xffu8].iter()) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a job's id and every value's name and exact bits.
pub fn job_digest(id: &str, m: &Measurement) -> u64 {
    let mut h = Fnv::new();
    h.write(id.as_bytes());
    for (name, v) in &m.values {
        h.write(name.as_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.0
}

/// Per-job digests of a pass, keyed by job id.
pub fn digests(results: &ResultMap) -> BTreeMap<String, u64> {
    results
        .iter()
        .map(|(id, m)| (id.clone(), job_digest(id, m)))
        .collect()
}

/// Digest of a whole pass (its job digests in id order).
pub fn workload_digest(digests: &BTreeMap<String, u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests.values() {
        h.write(&d.to_le_bytes());
    }
    h.0
}

/// A recorded reference: per-job digests at [`DEFAULT_SEED`] and
/// whole-workload digests at other seeds.
#[derive(Debug, Default, PartialEq)]
pub struct Reference {
    /// Job id → digest, at the default seed.
    pub jobs: BTreeMap<String, u64>,
    /// Seed → whole-workload digest.
    pub seeds: BTreeMap<u64, u64>,
}

impl Reference {
    /// The compiled-in reference of `w`.
    pub fn of(w: Workload) -> Reference {
        let text = match w {
            Workload::PaperGrid => include_str!("../reference/paper-grid.txt"),
            Workload::FabricCongestion => include_str!("../reference/fabric-congestion.txt"),
            Workload::LossyRecovery => include_str!("../reference/lossy-recovery.txt"),
        };
        Reference::parse(text).expect("compiled-in reference parses")
    }

    /// Parse the `job <hex> <id>` / `seed <n> <hex>` line format.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.splitn(3, ' ');
            let bad = || format!("malformed reference line {line:?}");
            let (tag, a, b) = (
                parts.next().ok_or_else(bad)?,
                parts.next().ok_or_else(bad)?,
                parts.next().ok_or_else(bad)?,
            );
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match tag {
                "job" => {
                    r.jobs.insert(b.to_string(), hex(a)?);
                }
                "seed" => {
                    r.seeds.insert(a.parse().map_err(|_| bad())?, hex(b)?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    /// Render in the format [`Reference::parse`] reads.
    pub fn render(&self, w: Workload) -> String {
        let mut out = format!(
            "# {} reference: per-job Measurement digests at seed {DEFAULT_SEED}, \
             whole-workload digests at other seeds.\n",
            w.name()
        );
        for (id, d) in &self.jobs {
            out.push_str(&format!("job {d:016x} {id}\n"));
        }
        for (seed, d) in &self.seeds {
            out.push_str(&format!("seed {seed} {d:016x}\n"));
        }
        out
    }

    /// Job ids whose results disagree with this reference. At the default
    /// seed each job is compared on its own; at another recorded seed a
    /// whole-workload mismatch fails every job; unrecorded seeds pass.
    pub fn mismatches(&self, seed: u64, digests: &BTreeMap<String, u64>) -> BTreeSet<String> {
        if seed == DEFAULT_SEED {
            let mut bad: BTreeSet<String> = digests
                .iter()
                .filter(|(id, d)| self.jobs.get(*id) != Some(d))
                .map(|(id, _)| id.clone())
                .collect();
            // A reference job the run no longer produces is a failure too.
            bad.extend(
                self.jobs
                    .keys()
                    .filter(|id| !digests.contains_key(*id))
                    .cloned(),
            );
            return bad;
        }
        match self.seeds.get(&seed) {
            Some(&d) if d != workload_digest(digests) => digests.keys().cloned().collect(),
            _ => BTreeSet::new(),
        }
    }

    /// Whether `seed` has a recorded reference.
    pub fn covers(&self, seed: u64) -> bool {
        seed == DEFAULT_SEED || self.seeds.contains_key(&seed)
    }
}

/// The paper-grid rows that already drop frames on the lossless link (the
/// 4 MB CLIC streams overrun the receiver); every other lossless row must
/// stay drop-free.
const LOSSLESS_ROWS_WITH_DROPS: [&str; 5] = [
    "fig4/0-copy MTU 1500/size=4194304",
    "fig4/1-copy MTU 1500/size=4194304",
    "fig4/1-copy MTU 9000/size=4194304",
    "fig5/CLIC 1500/size=4194304",
    "scalars/c1500/size=4194304",
];

/// Job ids breaking a per-job invariant: a non-finite value, no simulator
/// event, or a dropped frame on a lossless row that has none today.
pub fn invariant_failures(w: Workload, specs: &[JobSpec], results: &ResultMap) -> BTreeSet<String> {
    specs
        .iter()
        .filter(|spec| {
            // A job without a result panicked; it is counted as such.
            let Some(m) = results.get(&spec.id) else {
                return false;
            };
            let finite = m.values.iter().all(|(_, v)| v.is_finite());
            let events = m.get("m.events").is_some_and(|e| e > 0.0);
            let drops_ok = !w.lossless()
                || LOSSLESS_ROWS_WITH_DROPS.contains(&spec.id.as_str())
                || m.get("m.drops") == Some(0.0);
            !(finite && events && drops_ok)
        })
        .map(|spec| spec.id.clone())
        .collect()
}

/// Job ids whose digests differ between two passes.
pub fn nondeterministic(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> BTreeSet<String> {
    a.keys()
        .chain(b.keys())
        .filter(|id| a.get(*id) != b.get(*id))
        .cloned()
        .collect()
}
