//! Per-solve correctness gate and the cross-run determinism record.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use esr_core::{run_pcg, ExperimentResult, Problem, SolverConfig};
use parcomm::{CostModel, FailureScript};

use crate::workload::Expected;

/// Largest accepted `max|x − x*|` (the paper's exact-recovery criterion).
pub const MAX_ERROR: f64 = 1e-6;

/// One gated `run_pcg` call: its host wall time and, if every check
/// passed, the result.
pub struct Solve {
    pub wall_s: f64,
    pub result: Result<ExperimentResult, String>,
}

/// Run one distributed solve, catching a panic, and check it: convergence,
/// the error against `x*`, and the recovery counts the script implies.
pub fn solve(
    problem: &Problem,
    x_star: &[f64],
    nodes: usize,
    cfg: &SolverConfig,
    script: FailureScript,
    expected: Expected,
) -> Solve {
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_pcg(problem, nodes, cfg, CostModel::default(), script)
    }));
    let wall_s = t.elapsed().as_secs_f64();
    let result = match run {
        Err(_) => Err("solve panicked".to_string()),
        Ok(Err(e)) => Err(format!("configuration rejected: {e}")),
        Ok(Ok(res)) => check(res, x_star, expected),
    };
    Solve { wall_s, result }
}

fn check(
    res: ExperimentResult,
    x_star: &[f64],
    expected: Expected,
) -> Result<ExperimentResult, String> {
    if !res.converged {
        return Err(format!("not converged after {} iterations", res.iterations));
    }
    let err = max_error(&res.x, x_star);
    if err.is_nan() || err >= MAX_ERROR {
        return Err(format!("max|x - x*| = {err:e}"));
    }
    let got = Expected {
        recoveries: res.recoveries,
        ranks_recovered: res.ranks_recovered,
        retired_nodes: res.retired_nodes(),
    };
    if got != expected {
        return Err(format!(
            "recovery counts {got:?}, script implies {expected:?}"
        ));
    }
    Ok(res)
}

/// `max|x − x*|`; NaN if any entry is NaN (poisoned state read back).
pub fn max_error(x: &[f64], x_star: &[f64]) -> f64 {
    x.iter()
        .zip(x_star)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, |m, d| {
            if d.is_nan() || m.is_nan() {
                f64::NAN
            } else {
                m.max(d)
            }
        })
}

/// Values that must repeat bitwise across every solve and every run of a
/// workload under one seed, keyed by metric name.
#[derive(Default)]
pub struct Fingerprint(BTreeMap<String, u64>);

impl Fingerprint {
    pub fn of(res: &ExperimentResult) -> Self {
        let mut f = Fingerprint::default();
        f.insert("iterations", res.iterations as u64);
        f.insert("vtime_s", res.vtime.to_bits());
        f.insert("vtime_recovery_s", res.vtime_recovery.to_bits());
        f.insert("parcomm.msgs", res.stats.total_msgs());
        f
    }

    pub fn insert(&mut self, key: &str, value: u64) {
        self.0.insert(key.to_string(), value);
    }

    /// Fold `other` in; returns the keys whose values disagree.
    pub fn merge(&mut self, other: &Fingerprint) -> Vec<String> {
        let mut bad = Vec::new();
        for (k, &v) in &other.0 {
            match self.0.get(k) {
                Some(&old) if old != v => bad.push(format!("{k}: {old} vs {v}")),
                Some(_) => {}
                None => {
                    self.0.insert(k.clone(), v);
                }
            }
        }
        bad
    }
}

/// The fingerprint record of earlier runs of the same executable on the
/// same workload and seed, kept next to the executable (inside the build
/// directory). A record of another build never applies: a program change
/// may legitimately change these values.
pub struct Record {
    path: Option<PathBuf>,
}

impl Record {
    pub fn open(workload: &str, seed: u64) -> Self {
        let path = std::env::current_exe().ok().and_then(|exe| {
            let bytes = std::fs::read(&exe).ok()?;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            h.write(&bytes);
            let dir = exe.parent()?.join("perfbench-fingerprints");
            Some(dir.join(format!("{workload}-seed{seed}-{:016x}.txt", h.finish())))
        });
        Record { path }
    }

    /// Compare this run's fingerprint against the record, then store the
    /// union. Returns the disagreements.
    pub fn reconcile(&self, run: &Fingerprint) -> Vec<String> {
        let Some(path) = &self.path else {
            return Vec::new();
        };
        let mut stored = Fingerprint::default();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once('=') {
                    if let Ok(v) = v.parse() {
                        stored.insert(k, v);
                    }
                }
            }
        }
        let bad = stored.merge(run);
        let text: String = stored.0.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
        if let Some(dir) = path.parent() {
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&tmp, text))
                .and_then(|()| std::fs::rename(&tmp, path));
            if let Err(e) = written {
                eprintln!("warning: fingerprint record not written: {e}");
            }
        }
        bad
    }
}
