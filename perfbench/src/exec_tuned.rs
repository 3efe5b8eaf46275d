//! `exec_tuned`: set-up tunes a fixed set of large matrices and prepares
//! each winner with `Executor`; the measured phase runs every tuned plan
//! (and the default-CSR plan beside it) over and over.
//!
//! Chosen because it is the only workload where `waco-exec` kernels and
//! the `waco-runtime` pool do the work, so it shows whether tuning pays
//! off on the host it runs on.

use std::time::Instant;

use waco_exec::{Executor, FastPath, KernelArgs, PlannedKernel};
use waco_schedule::{named, Kernel, SuperSchedule};
use waco_serve::{Json, Tuner};
use waco_sim::{MachineConfig, Simulator};
use waco_tensor::gen::{Family, Rng64};
use waco_tensor::{CsrMatrix, DenseMatrix, DenseVector};

use crate::inputs::{dense_matrix, dense_vector, family_matrix};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, Samples};
use crate::{ms, tune_cold, Args};

/// The matrix set: the families on which tuned plans were seen to run
/// slower than the default, for SpMV and SpMM ×32, at full size.
const CASES: [(Family, usize, Kernel); 8] = [
    (Family::Uniform, 32768, Kernel::SpMV),
    (Family::Uniform, 32768, Kernel::SpMM),
    (Family::BlockedDense, 16384, Kernel::SpMV),
    (Family::BlockedDense, 16384, Kernel::SpMM),
    (Family::PowerLaw, 32768, Kernel::SpMV),
    (Family::PowerLaw, 32768, Kernel::SpMM),
    (Family::Banded, 32768, Kernel::SpMV),
    (Family::Banded, 16384, Kernel::SpMM),
];
const SPMM_DENSE: usize = 32;
/// The fast-path variants an SpMV or SpMM plan can take, with the metric
/// counting the tuned plans that took each.
const FASTPATHS: [(FastPath, &str); 5] = [
    (FastPath::None, "exec.fastpath.none"),
    (FastPath::CsrRows, "exec.fastpath.csr_rows"),
    (FastPath::RegBlockSpmm, "exec.fastpath.reg_block_spmm"),
    (FastPath::BcsrBlock, "exec.fastpath.bcsr_block"),
    (FastPath::DiscordantCsr, "exec.fastpath.discordant_csr"),
];
/// Fewest calls per plan: enough for a supported median.
const MIN_CALLS: usize = 20;
/// Turns each case takes in the measured phase.
const ROUNDS: usize = 10;
/// Output tolerance: each entry within `TOL · (1 + Σ|a_ij·x_j|)` of the
/// hand-written loop's f64 result.
const TOL: f64 = 1e-3;

enum Operand {
    Vector(DenseVector),
    Matrix(DenseMatrix),
}

impl Operand {
    fn args(&self) -> KernelArgs<'_> {
        match self {
            Operand::Vector(x) => KernelArgs::Spmv { x },
            Operand::Matrix(b) => KernelArgs::Spmm { b },
        }
    }

    fn width(&self) -> usize {
        match self {
            Operand::Vector(_) => 1,
            Operand::Matrix(b) => b.ncols(),
        }
    }

    fn row(&self, r: usize) -> &[f32] {
        match self {
            Operand::Vector(x) => std::slice::from_ref(&x.as_slice()[r]),
            Operand::Matrix(b) => b.row(r),
        }
    }
}

struct Case {
    name: String,
    tuned: PlannedKernel,
    default: PlannedKernel,
    csr: CsrMatrix,
    operand: Operand,
    /// f64 reference output and the per-entry tolerance.
    reference: Vec<f64>,
    tolerance: Vec<f64>,
    threads: usize,
    tuned_ms: Samples,
    default_ms: Samples,
    hand_ms: Samples,
}

/// What set-up learned besides the cases.
#[derive(Default)]
struct SetupInfo {
    prepare_ms: Samples,
    tune_failed: Vec<String>,
}

fn setup(seed: u64, info: &mut SetupInfo) -> Result<Vec<Case>, String> {
    let tuner = tune_cold::setup()?;
    let sim = Simulator::new(MachineConfig::xeon_like());
    let mut rng = Rng64::seed_from(seed ^ 0x6578_6563);
    let mut cases = Vec::new();
    for (family, n, kernel) in CASES {
        let name = format!("{family:?}-{n}-{kernel}");
        let dense = if kernel == Kernel::SpMV {
            0
        } else {
            SPMM_DENSE
        };
        let m = family_matrix(family, n, &mut rng);
        let space = sim.space_for(kernel, vec![n, n], dense);
        let default_sched = named::default_csr(&space);
        // A tune the tuner cannot finish leaves the caller with the
        // shipped default: that is what this case then runs, and the
        // failure is recorded (`exec.tune_failed`).
        let sched: SuperSchedule = match tuner.tune(&m, kernel, dense) {
            Ok(outcome) => outcome.schedule,
            Err(e) => {
                info.tune_failed.push(format!("{name}: {e}"));
                default_sched.clone()
            }
        };
        let t = Instant::now();
        let tuned = Executor::planned().prepare(&m, &sched, &space);
        info.prepare_ms.push(ms(t.elapsed()));
        let tuned = tuned.map_err(|e| format!("preparing the tuned plan of {name}: {e}"))?;
        let default = Executor::planned()
            .prepare(&m, &default_sched, &space)
            .map_err(|e| format!("preparing the default plan of {name}: {e}"))?;
        let operand = if kernel == Kernel::SpMV {
            Operand::Vector(dense_vector(n, &mut rng))
        } else {
            Operand::Matrix(dense_matrix(n, dense, &mut rng))
        };
        let csr = CsrMatrix::from_coo(&m);
        let (reference, tolerance) = reference(&csr, &operand);
        cases.push(Case {
            name,
            threads: sched.parallel.as_ref().map_or(1, |p| p.threads),
            tuned,
            default,
            csr,
            operand,
            reference,
            tolerance,
            tuned_ms: Samples::new(),
            default_ms: Samples::new(),
            hand_ms: Samples::new(),
        });
    }
    Ok(cases)
}

/// The f64 result of `A · operand` and each entry's tolerance.
fn reference(csr: &CsrMatrix, operand: &Operand) -> (Vec<f64>, Vec<f64>) {
    let w = operand.width();
    let mut out = vec![0.0f64; csr.nrows() * w];
    let mut mag = vec![0.0f64; csr.nrows() * w];
    for r in 0..csr.nrows() {
        let (cols, vals) = csr.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (j, &x) in operand.row(c).iter().enumerate() {
                out[r * w + j] += f64::from(v) * f64::from(x);
                mag[r * w + j] += (f64::from(v) * f64::from(x)).abs();
            }
        }
    }
    let tol = mag.iter().map(|m| TOL * (1.0 + m)).collect();
    (out, tol)
}

/// The hand-written CSR loop the tuned plans are read against.
fn hand_csr(csr: &CsrMatrix, operand: &Operand, out: &mut [f32]) {
    let w = operand.width();
    let (ptr, idx, vals) = (csr.row_ptr(), csr.col_idx(), csr.vals());
    for r in 0..csr.nrows() {
        let acc = &mut out[r * w..(r + 1) * w];
        acc.fill(0.0);
        for k in ptr[r]..ptr[r + 1] {
            let v = vals[k];
            for (a, &x) in acc.iter_mut().zip(operand.row(idx[k])) {
                *a += v * x;
            }
        }
    }
}

fn output_matches(reference: &[f64], tolerance: &[f64], out: &[f32]) -> bool {
    out.len() == reference.len()
        && out
            .iter()
            .zip(reference)
            .zip(tolerance)
            .all(|((&y, &r), &t)| (f64::from(y) - r).abs() <= t)
}

fn run_plan(plan: &PlannedKernel, operand: &Operand) -> Result<(f64, Vec<f32>), String> {
    let t = Instant::now();
    let out = plan.run(operand.args()).map_err(|e| e.to_string())?;
    let elapsed = ms(t.elapsed());
    let values = match operand {
        Operand::Vector(_) => out.into_vector().map(|v| v.as_slice().to_vec()),
        Operand::Matrix(_) => out.into_matrix().map(|m| m.as_slice().to_vec()),
    }
    .map_err(|e| e.to_string())?;
    Ok((elapsed, values))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up runs once: it tunes 8 large matrices (30-45 s on a 2-core
    // host), a long CPU-bound phase that is steady without repeats.
    let mut info = SetupInfo::default();
    let t = Instant::now();
    let mut cases = setup(args.seed, &mut info)?;
    let setup_s = t.elapsed().as_secs_f64();

    // The cases take turns: `ROUNDS` rounds, each giving every case an
    // equal slice, so a transient slowdown of the host lands on all cases
    // alike rather than on whichever case it happened to overlap.
    let slice = args.duration() / (ROUNDS * cases.len()) as u32;
    let min_per_round = MIN_CALLS.div_ceil(ROUNDS);
    let mut hand_out = Vec::new();
    for _ in 0..ROUNDS {
        for case in &mut cases {
            let start = Instant::now();
            let mut calls = 0;
            while calls < min_per_round || start.elapsed() < slice {
                calls += 1;
                report.attempted += 2;
                for (plan, samples) in [
                    (&case.tuned, &mut case.tuned_ms),
                    (&case.default, &mut case.default_ms),
                ] {
                    match run_plan(plan, &case.operand) {
                        Ok((t, out)) => {
                            samples.push(t);
                            if !output_matches(&case.reference, &case.tolerance, &out) {
                                report.fail(true);
                            }
                        }
                        Err(_) => report.fail(false),
                    }
                }
                if args.trace {
                    hand_out.resize(case.reference.len(), 0.0);
                    let t = Instant::now();
                    hand_csr(&case.csr, &case.operand, &mut hand_out);
                    case.hand_ms.push(ms(t.elapsed()));
                    // The reference loop is checked like the plans it is
                    // read against, so a bug in it cannot skew
                    // `ref.hand_csr_ms`.
                    report.attempted += 1;
                    if !output_matches(&case.reference, &case.tolerance, &hand_out) {
                        report.fail(true);
                    }
                }
            }
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note("spmm_dense", Json::num(SPMM_DENSE as f64));
    report.note(
        "tolerance",
        Json::str(format!("|y - ref| <= {TOL} * (1 + sum|a*x|)")),
    );
    report.note("tune_failed", Json::str(info.tune_failed.join("; ")));
    let mut tuned_medians = Vec::new();
    let mut default_medians = Vec::new();
    let mut hand_medians = Vec::new();
    let mut total_calls = 0usize;
    let mut total_ms = 0.0;
    for case in &mut cases {
        report.note_samples(&format!("{}.tuned", case.name), &case.tuned_ms, &[0.5]);
        let tuned = case.tuned_ms.median()?;
        let default = case.default_ms.median()?;
        report.note(format!("{}.tuned_ms", case.name), Json::num(tuned));
        report.note(format!("{}.default_ms", case.name), Json::num(default));
        report.note(
            format!("{}.threads", case.name),
            Json::num(case.threads as f64),
        );
        report.note(
            format!("{}.fast_path", case.name),
            Json::str(case.tuned.plan().fast_path().wire_name()),
        );
        tuned_medians.push(tuned);
        default_medians.push(default);
        if args.trace {
            hand_medians.push(case.hand_ms.median()?);
        }
        // Each call counts at its plan's median, so one preempted call of
        // an oversubscribed plan does not move the rate.
        total_calls += case.tuned_ms.len();
        total_ms += tuned * case.tuned_ms.len() as f64;
    }
    let speedups: Vec<f64> = default_medians
        .iter()
        .zip(&tuned_medians)
        .map(|(d, t)| d / t)
        .collect();

    if args.trace {
        report.metric("exec.prepare_ms", info.prepare_ms.mean(), "ms");
        report.metric("exec.tuned_ms", gm(&tuned_medians)?, "ms");
        report.metric("exec.default_csr_ms", gm(&default_medians)?, "ms");
        report.metric("ref.hand_csr_ms", gm(&hand_medians)?, "ms");
        for (fast, name) in FASTPATHS {
            let count = cases
                .iter()
                .filter(|c| c.tuned.plan().fast_path() == fast)
                .count();
            report.metric(name, count as f64, "count");
        }
        let threads: Vec<f64> = cases.iter().map(|c| c.threads as f64).collect();
        report.metric(
            "exec.threads_requested",
            threads.iter().sum::<f64>() / threads.len() as f64,
            "threads",
        );
        let over = cases.iter().filter(|c| c.threads > nproc).count();
        report.metric("exec.oversubscribed", over as f64, "count");
        report.metric("exec.tune_failed", info.tune_failed.len() as f64, "count");
        report.metric("error_rate", report.error_rate(), "ratio");
        return Ok(());
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb("self")?, "MB");
    report.metric("p50_ms", gm(&tuned_medians)?, "ms");
    report.metric(
        "tail_ms",
        tuned_medians.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric("rate_per_s", total_calls as f64 * 1e3 / total_ms, "1/s");
    report.metric("speedup_x", gm(&speedups)?, "x");
    Ok(())
}

fn gm(values: &[f64]) -> Result<f64, String> {
    geomean(values).ok_or_else(|| "geomean of an empty or non-positive set".into())
}
