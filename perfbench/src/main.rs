//! Benchmark of the ESR-PCG workspace: full distributed solves through
//! `esr_core::run_pcg`, and, in a separate traced run, each crate's public
//! entry points timed from outside on the same inputs.
//!
//! ```sh
//! perfbench --workload dense-m8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human-readable report
//! goes to standard error. See README.md for the workloads and metrics.

mod gate;
mod layers;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use esr_core::ExperimentResult;
use parcomm::FailureScript;

use gate::Fingerprint;
use workload::{Inputs, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "workload {} (seed {}): {:?} at scale {}, N = {}, phi = {}, {:?}, failures from iteration {}",
        w.name, args.seed, w.matrix, w.scale, w.nodes, w.phi, w.policy, w.fail_iteration
    );
    let mut report = if args.trace {
        layers::run(w, args.seed, args.seconds)
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    report.print();
    ExitCode::SUCCESS
}

/// The end-to-end metrics (tracing off).
fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Report {
    let setup = Setup::measure(w, seed);
    let mut report = Report::default();
    let run = SolveLoop::run(w, &setup.inputs, true, seconds, 3, &mut report);
    let rss = peak_rss_mb();
    run.summarize_walls("solve_s");
    let res = run.last.as_ref();
    report.metric("solve_s", median(&run.walls), "s");
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric(
        "iterations",
        res.map_or(f64::NAN, |r| r.iterations as f64),
        "count",
    );
    report.metric("vtime_s", res.map_or(f64::NAN, |r| r.vtime), "vs");
    report.metric(
        "vtime_recovery_s",
        res.map_or(f64::NAN, |r| r.vtime_recovery),
        "vs",
    );
    report.reconcile(w, seed, &run.fingerprint);
    let solved = (report.attempted - report.failed) as f64 / report.attempted as f64;
    report.metric("solved_frac", solved, "frac");
    report
}

/// The workload's inputs, with the set-up time measured over several
/// repetitions (the last repetition's inputs are kept).
pub struct Setup {
    pub inputs: Inputs,
    /// Median host time of `suite::generate` plus the right-hand side.
    pub setup_s: f64,
    /// Median host time of `suite::generate` alone.
    pub generate_s: f64,
}

impl Setup {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 50;
    const MIN_TOTAL_S: f64 = 1.0;

    pub fn measure(w: &Workload, seed: u64) -> Setup {
        let (mut setup, mut generate) = (Vec::new(), Vec::new());
        let mut inputs = None;
        let start = Instant::now();
        while setup.len() < Self::MIN_REPS
            || (start.elapsed().as_secs_f64() < Self::MIN_TOTAL_S && setup.len() < Self::MAX_REPS)
        {
            // Free the previous repetition first so the peak memory is that
            // of one problem.
            drop(inputs.take());
            let t = Instant::now();
            let a = std::hint::black_box(w.matrix());
            let generated = t.elapsed().as_secs_f64();
            inputs = Some(std::hint::black_box(w.inputs(a, seed)));
            setup.push(t.elapsed().as_secs_f64());
            generate.push(generated);
        }
        eprintln!(
            "setup: {} reps, median {:.4} s ({} rows, {} nnz)",
            setup.len(),
            median(&setup),
            inputs.as_ref().map_or(0, |i| i.problem.n()),
            inputs.as_ref().map_or(0, |i| i.problem.a.nnz()),
        );
        Setup {
            inputs: inputs.expect("at least one repetition"),
            setup_s: median(&setup),
            generate_s: median(&generate),
        }
    }
}

/// Repeated gated solves of one configuration.
pub struct SolveLoop {
    /// Host wall times of the solves that passed the gate.
    pub walls: Vec<f64>,
    /// The last result that passed the gate.
    pub last: Option<ExperimentResult>,
    /// Agreed deterministic values of every passing solve.
    pub fingerprint: Fingerprint,
}

impl SolveLoop {
    /// Start solves until `budget_s` has passed (at least `min` solves),
    /// with the workload's failures or without any.
    pub fn run(
        w: &Workload,
        inputs: &Inputs,
        with_failures: bool,
        budget_s: f64,
        min: usize,
        report: &mut Report,
    ) -> SolveLoop {
        let cfg = w.config();
        let expected = if with_failures {
            w.expected()
        } else {
            workload::NO_FAILURE
        };
        let mut out = SolveLoop {
            walls: Vec::new(),
            last: None,
            fingerprint: Fingerprint::default(),
        };
        let start = Instant::now();
        let mut attempted = 0;
        loop {
            let script = if with_failures {
                w.script()
            } else {
                FailureScript::none()
            };
            let solve = gate::solve(
                &inputs.problem,
                &inputs.x_star,
                w.nodes,
                &cfg,
                script,
                expected,
            );
            attempted += 1;
            report.attempted += 1;
            match solve.result {
                Ok(res) => {
                    let bad = out.fingerprint.merge(&Fingerprint::of(&res));
                    if bad.is_empty() {
                        out.walls.push(solve.wall_s);
                        out.last = Some(res);
                    } else {
                        report.fail(format!("solve {attempted} is not deterministic: {bad:?}"));
                    }
                }
                Err(e) => report.fail(format!("solve {attempted}: {e}")),
            }
            if attempted >= min && start.elapsed().as_secs_f64() >= budget_s {
                return out;
            }
        }
    }

    /// Print the median and the highest percentile the sample count
    /// supports (one with at least ten samples beyond it), with the count.
    pub fn summarize_walls(&self, label: &str) {
        let n = self.walls.len();
        let mut sorted = self.walls.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = if n >= 20 {
            format!("p{} {:.4} s", 100 * (n - 10) / n, sorted[n - 11])
        } else {
            format!(
                "max {:.4} s (no percentile above the median has ten samples beyond it)",
                sorted.last().copied().unwrap_or(f64::NAN)
            )
        };
        eprintln!(
            "{label}: median {:.4} s, {tail}, n = {n}",
            median(&self.walls)
        );
        let samples: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        eprintln!("walls ({label}): {}", samples.join(" "));
    }
}

/// One run's result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
        self.problems.push(why);
    }

    /// Check `run` against earlier runs of this build on the same workload
    /// and seed; a disagreement fails every solve of this run.
    pub fn reconcile(&mut self, w: &Workload, seed: u64, run: &Fingerprint) {
        let bad = gate::Record::open(w.name, seed).reconcile(run);
        if !bad.is_empty() {
            let why = format!("deterministic values differ from an earlier run: {bad:?}");
            eprintln!("FAILED: {why}");
            self.failed = self.attempted;
            self.problems.push(why);
        }
    }

    fn print(&mut self) {
        let mut body = Vec::new();
        for &(name, value, unit) in &self.metrics {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
            let value = if value.is_finite() {
                value
            } else {
                self.problems.push(format!("metric {name} is not finite"));
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
