//! Pinned reference iteration counts.
//!
//! The fused-reduction hot path (2 all-reduces per PCG iteration, 3 per
//! BiCGSTAB iteration) must not change solver behaviour: the convergence
//! test still evaluates ‖r(j+1)‖² of the same residual at the same point
//! of the iteration. These pins catch any accidental semantic drift in the
//! reduction schedule — if a refactor legitimately changes the counts
//! (e.g. a different reduction *order* shifting a borderline iteration),
//! re-pin them consciously in the same commit.

use esr_suite::core::{run_bicgstab, run_pcg, run_pipecg, Problem, SolverConfig};
use esr_suite::parcomm::{CostModel, FailureScript};
use esr_suite::sparsemat::gen::poisson2d;

fn pcg_iters(nodes: usize, grid: usize) -> usize {
    let problem = Problem::with_ones_solution(poisson2d(grid, grid));
    let r = run_pcg(
        &problem,
        nodes,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference PCG must converge");
    r.iterations
}

fn pipecg_iters(nodes: usize, grid: usize) -> usize {
    let problem = Problem::with_ones_solution(poisson2d(grid, grid));
    let r = run_pipecg(
        &problem,
        nodes,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference pipelined PCG must converge");
    r.iterations
}

#[test]
fn pcg_reference_iteration_counts_are_pinned() {
    // Each N is its own pin: the block-Jacobi preconditioner blocks follow
    // the partition, so convergence genuinely depends on the cluster size
    // (and the per-rank partial dot products reassociate differently).
    assert_eq!(pcg_iters(4, 16), 17);
    assert_eq!(pcg_iters(7, 16), 31);
    assert_eq!(pcg_iters(8, 16), 22);
}

#[test]
fn pipecg_reference_iteration_counts_are_pinned() {
    // The pipelined recurrences are a reformulation of the same Krylov
    // method; on these well-conditioned problems they converge in exactly
    // the blocking solver's iteration counts (17/31/22). A drift here means
    // the recurrence restructuring changed the numerics.
    assert_eq!(pipecg_iters(4, 16), 17);
    assert_eq!(pipecg_iters(7, 16), 31);
    assert_eq!(pipecg_iters(8, 16), 22);
}

#[test]
fn pipecg_matches_blocking_pcg_converged_solution() {
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let blocking = run_pcg(
        &problem,
        8,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    let piped = run_pipecg(
        &problem,
        8,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(blocking.converged && piped.converged);
    let max_diff = blocking
        .x
        .iter()
        .zip(&piped.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        max_diff < 1e-6,
        "pipelined diverged from blocking: {max_diff}"
    );
}

#[test]
fn bicgstab_reference_iteration_counts_are_pinned() {
    let problem = Problem::with_ones_solution(poisson2d(12, 12));
    let r = run_bicgstab(
        &problem,
        4,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference BiCGSTAB must converge");
    assert_eq!(r.iterations, 10);
}

// ---------------------------------------------------------------------
// Replace-path trajectory pins.
//
// These values were captured on the code that *predates* the shared
// RecoveryEngine (when each solver carried its own copy of the recovery
// protocol). The refactored Replace path must reproduce them bitwise:
// same iteration counts, same final residual to the last ulp. A drift
// here means the engine's reconstruction math deviated from paper
// Alg. 2 — re-pin only with a numerical justification in the same commit.
// ---------------------------------------------------------------------

#[test]
fn replace_recovery_trajectories_are_pinned_bitwise() {
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let script = || FailureScript::simultaneous(6, 2, 2, 7);

    let r = run_pcg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_291_282e-8);

    let r = run_pipecg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_337_481_355e-8);

    let r = run_bicgstab(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        FailureScript::simultaneous(4, 2, 2, 7),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 13);
    assert_eq!(r.solver_residual, 5.429_056_169_617_638e-8);
}

#[test]
fn replace_overlapping_recovery_trajectory_is_pinned_bitwise() {
    // A second failure arriving at restart substep 2 of the first event:
    // the enlarged-set restart must also replay the pre-engine protocol
    // bitwise.
    use esr_suite::parcomm::{FailAt, FailureEvent};
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(5),
            ranks: vec![2],
        },
        FailureEvent {
            when: FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: 2,
            },
            ranks: vec![4],
        },
    ]);
    let r = run_pcg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script,
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.ranks_recovered, 2);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_293_216e-8);
}

#[test]
fn checkpoint_restart_trajectories_are_pinned_bitwise() {
    // Captured on the code that *predates* folding checkpoint/restart into
    // the RecoveryEngine (when `cr_pcg_node` carried its own PCG loop and
    // its own deposit/rollback protocol). The engine-backed Replace × PCG
    // C/R path must reproduce them bitwise: the fused loop-top reductions
    // are element-wise identical to the old separate ones, the pack layout
    // is unchanged, and rollback restores the exact deposited state.
    use esr_suite::core::{run_checkpoint_restart, CrConfig};
    let problem = Problem::with_ones_solution(poisson2d(14, 14));

    // Two simultaneous failures at iteration 6, interval 5: rollback to
    // epoch 5 re-executes one iteration.
    let cr = CrConfig::default().with_interval(5).with_copies(2);
    let r = run_checkpoint_restart(
        &problem,
        7,
        &SolverConfig::resilient(2),
        &cr,
        CostModel::default(),
        FailureScript::simultaneous(6, 2, 2, 7),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_317_102e-8);
    assert_eq!(r.solver_residual.to_bits(), 0x3e63_1b7c_608f_2b29);

    // Single failure at iteration 13 on 4 nodes, one replica per block:
    // rollback to epoch 10 re-executes three iterations.
    let cr = CrConfig::default().with_interval(5).with_copies(1);
    let r = run_checkpoint_restart(
        &problem,
        4,
        &SolverConfig::resilient(1),
        &cr,
        CostModel::default(),
        FailureScript::simultaneous(13, 2, 1, 4),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.iterations, 19);
    assert_eq!(r.solver_residual, 4.851_781_963_741_809e-8);
    assert_eq!(r.solver_residual.to_bits(), 0x3e6a_0c3d_04e1_3b3c);
}

#[test]
fn resilient_pcg_iteration_count_matches_reference() {
    // ESR's whole point (paper Sec. 5): reconstruction is *exact*, so a
    // failure run performs the same mathematical iterations as the
    // reference run plus the restarted one(s).
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let reference = run_pcg(
        &problem,
        6,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    let failing = run_pcg(
        &problem,
        6,
        &SolverConfig::resilient(2),
        CostModel::default(),
        FailureScript::simultaneous(5, 1, 2, 6),
    )
    .unwrap();
    assert!(failing.converged);
    assert_eq!(failing.iterations, reference.iterations);
}

// ---------------------------------------------------------------------
// Shrink-path trajectory pins.
//
// Shrink is the one path where the solver's own reductions and the
// scatter-plan rebuilds run on a sub-communicator (the survivors), so it
// pins everything the communicator can move: the trajectory, both
// virtual clocks, which ranks retired, and the cluster's traffic per
// phase. Captured before the world communicator became the group of all
// ranks; that refactor must reproduce every value bitwise.
// ---------------------------------------------------------------------

/// Everything one Shrink scenario pins.
#[derive(Debug, PartialEq)]
struct ShrinkPin {
    iterations: usize,
    solver_residual: u64,
    vtime: u64,
    vtime_recovery: u64,
    retired: Vec<usize>,
    /// Cluster-wide `(messages, elements)` per phase, in `CommPhase::ALL`
    /// order.
    traffic: Vec<(u64, u64)>,
}

fn shrink_pin(r: &esr_suite::core::ExperimentResult) -> ShrinkPin {
    use esr_suite::parcomm::CommPhase;
    assert!(r.converged);
    ShrinkPin {
        iterations: r.iterations,
        solver_residual: r.solver_residual.to_bits(),
        vtime: r.vtime.to_bits(),
        vtime_recovery: r.vtime_recovery.to_bits(),
        retired: r
            .per_node
            .iter()
            .filter(|o| o.retired)
            .map(|o| o.rank)
            .collect(),
        traffic: CommPhase::ALL
            .iter()
            .map(|&p| (r.stats.msgs(p), r.stats.elems(p)))
            .collect(),
    }
}

/// FNV-1a over the bytes of a serialized trace.
#[cfg(feature = "trace")]
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn shrink_recovery_trajectories_are_pinned_bitwise() {
    use esr_suite::core::{run_checkpoint_restart, CrConfig, RecoveryPolicy};
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    let script = || FailureScript::simultaneous(6, 2, 2, 7);

    let pcg = run_pcg(&problem, 7, &cfg, CostModel::default(), script()).unwrap();
    let pipecg = run_pipecg(&problem, 7, &cfg, CostModel::default(), script()).unwrap();
    let bicgstab = run_bicgstab(
        &problem,
        7,
        &cfg,
        CostModel::default(),
        FailureScript::simultaneous(4, 2, 2, 7),
    )
    .unwrap();
    let cr = CrConfig::default().with_interval(5).with_copies(2);
    let checkpoint =
        run_checkpoint_restart(&problem, 7, &cfg, &cr, CostModel::default(), script()).unwrap();

    let got = [
        ("ESR × PCG", shrink_pin(&pcg)),
        ("ESR × PipeCG", shrink_pin(&pipecg)),
        ("ESR × BiCGSTAB", shrink_pin(&bicgstab)),
        ("Checkpoint × PCG", shrink_pin(&checkpoint)),
    ];
    let want = [
        ShrinkPin {
            iterations: 28,
            solver_residual: 0x3e6b_7ffe_f5aa_c021,
            vtime: 0x3f34_9e5c_46de_d3f8,
            vtime_recovery: 0x3ef4_d599_06f4_2654,
            retired: vec![2, 3],
            traffic: vec![
                (0, 0),
                (318, 3640),
                (0, 7728),
                (632, 950),
                (64, 476),
                (0, 0),
            ],
        },
        ShrinkPin {
            iterations: 26,
            solver_residual: 0x3e68_adfa_dc6a_fb8f,
            vtime: 0x3f24_adb8_bfb7_8107,
            vtime_recovery: 0x3f04_933d_9290_4382,
            retired: vec![2, 3],
            traffic: vec![
                (0, 0),
                (332, 3808),
                (0, 21672),
                (322, 938),
                (88, 560),
                (0, 0),
            ],
        },
        ShrinkPin {
            iterations: 18,
            solver_residual: 0x3e00_47dd_d008_8b30,
            vtime: 0x3f35_4fd6_28ac_76bd,
            vtime_recovery: 0x3efa_2e30_6848_55dc,
            retired: vec![2, 3],
            traffic: vec![
                (0, 0),
                (410, 4704),
                (0, 9800),
                (606, 1012),
                (72, 504),
                (0, 0),
            ],
        },
        ShrinkPin {
            iterations: 32,
            solver_residual: 0x3e66_4e0c_63c9_4431,
            vtime: 0x3f36_bacd_3308_9cda,
            vtime_recovery: 0x3ee5_455f_d138_fc98,
            retired: vec![2, 3],
            traffic: vec![
                (0, 0),
                (300, 4200),
                (88, 12720),
                (722, 1090),
                (31, 236),
                (0, 0),
            ],
        },
    ];
    for ((label, got), want) in got.iter().zip(&want) {
        assert_eq!(got, want, "{label}: Shrink trajectory moved");
    }

    // Under tracing, the Shrink PipeCG run's whole serialized trace: the
    // survivors' non-blocking group reductions, every span name and tag.
    #[cfg(feature = "trace")]
    assert_eq!(
        fnv1a(&pipecg.trace.chrome_trace_json()),
        0x4a78_54b6_a18f_6fe3,
        "Shrink PipeCG trace moved"
    );
}
