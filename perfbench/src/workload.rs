//! The benchmark's workloads and the inputs each one derives from a seed.

use esr_core::{Problem, RecoveryPolicy, SolverConfig};
use parcomm::{FailAt, FailureEvent, FailureScript};
use sparsemat::gen::suite::{self, PaperMatrix};
use sparsemat::{Csr, Rng};

/// When one wave of a failure script hits.
#[derive(Clone, Copy, Debug)]
pub enum Wave {
    /// At the post-SpMV boundary of the workload's failure iteration.
    Iteration,
    /// While the recovery started at that iteration runs, before `substep`.
    Substep(u32),
}

/// One benchmark workload: a matrix, a cluster, and a scripted failure.
pub struct Workload {
    pub name: &'static str,
    pub matrix: PaperMatrix,
    pub scale: f64,
    pub nodes: usize,
    pub phi: usize,
    pub policy: RecoveryPolicy,
    /// Fixed failure iteration, about half the reference iteration count.
    pub fail_iteration: u64,
    /// Failure waves in order; each takes the next contiguous ranks.
    pub waves: &'static [(Wave, usize)],
}

/// Why each workload exists is recorded in README.md. BENCHMARK.json lists
/// the first two; `cascade-shrink-m2` runs by name only (README.md, "Noise").
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-m8",
        matrix: PaperMatrix::M8,
        scale: 0.1,
        nodes: 128,
        phi: 3,
        policy: RecoveryPolicy::Replace,
        fail_iteration: 37,
        waves: &[(Wave::Iteration, 3)],
    },
    Workload {
        name: "runtime-m1-n512",
        matrix: PaperMatrix::M1,
        scale: 0.01,
        nodes: 512,
        phi: 1,
        policy: RecoveryPolicy::Replace,
        fail_iteration: 28,
        waves: &[(Wave::Iteration, 1)],
    },
    Workload {
        name: "cascade-shrink-m2",
        matrix: PaperMatrix::M2,
        scale: 0.2,
        nodes: 128,
        phi: 8,
        policy: RecoveryPolicy::Shrink,
        fail_iteration: 40,
        waves: &[
            (Wave::Iteration, 4),
            (Wave::Substep(1), 2),
            (Wave::Substep(2), 2),
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a correct solve of a workload must report about its recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub recoveries: usize,
    pub ranks_recovered: usize,
    pub retired_nodes: usize,
}

/// The seeded inputs of one run: the problem and its manufactured solution.
pub struct Inputs {
    pub problem: Problem,
    pub x_star: Vec<f64>,
}

impl Workload {
    /// The analog matrix (no seed: the matrix is the workload's identity).
    pub fn matrix(&self) -> Csr {
        suite::generate(self.matrix, self.scale)
    }

    /// The right-hand side `b = A·x*` for a seeded manufactured solution:
    /// a fixed random vector in [-1, 1) plus a seeded 1% perturbation. The
    /// inputs differ between seeds while the iteration count, which sets
    /// the work, does not: with a fully seeded `x*` it alone varies by up to
    /// 10% between seeds (see README.md).
    pub fn inputs(&self, a: Csr, seed: u64) -> Inputs {
        let mut base = Rng::new(0xE5D2_BA5E);
        let mut rng = Rng::new(seed ^ 0x5EED_BE4C_0000_0000);
        let x_star: Vec<f64> = (0..a.n_rows())
            .map(|_| base.range_f64(-1.0, 1.0) + 0.01 * rng.range_f64(-1.0, 1.0))
            .collect();
        let b = a.mul_vec(&x_star);
        Inputs {
            problem: Problem::new(a, b),
            x_star,
        }
    }

    pub fn config(&self) -> SolverConfig {
        SolverConfig::resilient_with_policy(self.phi, self.policy)
    }

    /// The failure script: contiguous ranks from the paper's "center"
    /// location, rank N/2 (Sec. 7.1). The location is fixed, not seeded:
    /// under Shrink it alone moves `vtime_s` by up to 3× (see README.md).
    pub fn script(&self) -> FailureScript {
        let mut next = self.nodes / 2;
        let events = self
            .waves
            .iter()
            .map(|&(wave, count)| {
                let ranks = (next..next + count).collect();
                next += count;
                let when = match wave {
                    Wave::Iteration => FailAt::Iteration(self.fail_iteration),
                    Wave::Substep(substep) => FailAt::RecoverySubstep {
                        after_iteration: self.fail_iteration,
                        substep,
                    },
                };
                FailureEvent { when, ranks }
            })
            .collect();
        let script = FailureScript::new(events);
        script.validate_for_cluster(self.nodes);
        script
    }

    /// One recovery event (a cascade counts once) that rebuilds every
    /// failed rank; under Shrink every failed rank retires.
    pub fn expected(&self) -> Expected {
        let failed: usize = self.waves.iter().map(|&(_, c)| c).sum();
        Expected {
            recoveries: 1,
            ranks_recovered: failed,
            retired_nodes: if self.policy == RecoveryPolicy::Shrink {
                failed
            } else {
                0
            },
        }
    }
}

/// A failure-free run of the same configuration.
pub const NO_FAILURE: Expected = Expected {
    recoveries: 0,
    ranks_recovered: 0,
    retired_nodes: 0,
};
