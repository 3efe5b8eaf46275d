//! The WACO-rs benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separate replay of the same inputs through each
//! layer's public entry point gives the per-layer metrics. The line before
//! it is a self-describing record (host, seed, sample counts). See
//! `perfbench/NOTES.md` for the workloads, metrics and baseline numbers.

mod exec_tuned;
mod inputs;
mod report;
mod serve;
mod stats;
mod tune_cold;

use std::time::Duration;

use report::Report;

/// The end-to-end metrics every `--trace 0` run prints, with their units
/// (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("speedup_x", "x"),
];

/// The per-layer metrics every `--trace 1` run prints (the `per_layer`
/// list of `BENCHMARK.json`). A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sparseconv.pattern_ms", "ms"),
    ("model.feature_ms", "ms"),
    ("anns.index_build_ms", "ms"),
    ("anns.index_builds", "count"),
    ("core.stage1_ms", "ms"),
    ("core.pruned", "count"),
    ("anns.query_ms", "ms"),
    ("anns.evals", "count"),
    ("sim.measure_ms", "ms"),
    ("sim.candidates", "count"),
    ("exec.lower_ms", "ms"),
    ("tune.total_ms", "ms"),
    ("tune.unattributed_ms", "ms"),
    ("exec.prepare_ms", "ms"),
    ("exec.tuned_ms", "ms"),
    ("exec.default_csr_ms", "ms"),
    ("ref.hand_csr_ms", "ms"),
    ("exec.fastpath.none", "count"),
    ("exec.fastpath.csr_rows", "count"),
    ("exec.fastpath.reg_block_spmm", "count"),
    ("exec.fastpath.bcsr_block", "count"),
    ("exec.fastpath.discordant_csr", "count"),
    ("exec.threads_requested", "threads"),
    ("exec.oversubscribed", "count"),
    ("exec.tune_failed", "count"),
    ("serve.json_decode_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("tensor.mtx_parse_ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.body_kb", "KB"),
    ("gen.late_p95_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p95_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.tune_ms", "ms"),
    ("serve.insert_ms", "ms"),
    ("serve.tune_calls", "count"),
    ("serve.coalesced", "count"),
    ("serve.saturation_rps", "1/s"),
    ("error_rate", "ratio"),
];

/// Command-line arguments every workload takes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a number of seconds in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// The measured phase's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let trace = args.as_ref().is_ok_and(|a| a.trace);
    let result = args.and_then(|args| {
        let mut report = Report::default();
        report::describe_host(&mut report, &args.workload, args.seed);
        match args.workload.as_str() {
            "tune_cold" => tune_cold::run(&args, &mut report),
            "exec_tuned" => exec_tuned::run(&args, &mut report),
            "serve_mixed" => serve::run_mixed(&args, &mut report),
            other => Err(format!(
                "unknown workload {other} (tune_cold, exec_tuned, serve_mixed)"
            )),
        }
        .map(|()| report)
    });
    match result.and_then(|mut report| {
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        report.complete(expected, trace)?;
        Ok(report)
    }) {
        Ok(mut report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
