//! The run's output: a self-describing record line, then the result line
//! a benchmark harness reads (`correct`, `attempted`, `failed`, `metrics`).

use std::fmt::Write as _;

use waco_serve::Json;

use crate::stats::{min_samples, Samples};

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (tunes, kernel calls, requests).
    pub attempted: u64,
    /// Operations that failed, timed out, or returned a wrong output.
    pub failed: u64,
    /// Of `failed`, the operations whose output was checked and wrong.
    pub wrong: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    record: Vec<(String, Json)>,
    /// The host's CPU time counters when the run began.
    cpu_start: Option<Vec<u64>>,
}

impl Report {
    /// Adds a metric; non-finite values are a bug in the workload.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Adds a descriptive field to the record line.
    pub fn note(&mut self, key: impl Into<String>, value: Json) {
        self.record.push((key.into(), value));
    }

    /// Adds `<what>.samples` and the sample count each percentile needs.
    pub fn note_samples(&mut self, what: &str, samples: &Samples, quantiles: &[f64]) {
        self.note(format!("{what}.samples"), Json::num(samples.len() as f64));
        for &q in quantiles {
            self.note(
                format!("{what}.p{}_min_samples", q * 100.0),
                Json::num(min_samples(q) as f64),
            );
        }
    }

    /// Records a failed (or wrong) operation.
    pub fn fail(&mut self, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
    }

    /// Share of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Checks the reported metrics against the run's `expected` list, in
    /// its order. With `zero_missing`, a metric the workload did not
    /// report reads 0 (a layer it does not exercise); otherwise a missing
    /// metric is an error.
    pub fn complete(
        &mut self,
        expected: &[(&'static str, &'static str)],
        zero_missing: bool,
    ) -> Result<(), String> {
        if let Some((name, ..)) = self
            .metrics
            .iter()
            .find(|(n, _, u)| !expected.contains(&(n, u)))
        {
            return Err(format!("metric {name} is not in the benchmark's list"));
        }
        let mut ordered = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            match self.metrics.iter().find(|m| m.0 == name) {
                Some(&m) => ordered.push(m),
                None if zero_missing => ordered.push((name, 0.0, unit)),
                None => return Err(format!("the workload did not measure {name}")),
            }
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Prints the record line, then the result line (last on stdout).
    pub fn print(&mut self) {
        // Time the host's hypervisor gave to other guests while this run
        // waited for a CPU: serve latencies rise with it.
        if let (Some(start), Some(end)) = (&self.cpu_start, cpu_times()) {
            let delta: Vec<u64> = end
                .iter()
                .zip(start)
                .map(|(e, s)| e.saturating_sub(*s))
                .collect();
            let total = delta.iter().sum::<u64>().max(1) as f64;
            let share = |i: usize| {
                delta
                    .get(i)
                    .map_or(Json::Null, |&v| Json::num(v as f64 / total))
            };
            self.note("host.idle_share", share(3));
            self.note("host.steal_share", share(7));
        }
        let mut record = String::from("{\"perfbench_record\": {");
        for (i, (k, v)) in self.record.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(record, "{sep}{}: {v}", Json::str(k.as_str()));
        }
        record.push_str("}}");
        println!("{record}");
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The host's cumulative CPU time counters (the `cpu` line of
/// `/proc/stat`: user, nice, system, idle, iowait, irq, softirq, steal, …).
fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// Host facts every record carries.
pub fn describe_host(report: &mut Report, workload: &str, seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    report.cpu_start = cpu_times();
    report.note("workload", Json::str(workload));
    report.note("seed", Json::num(seed as f64));
    report.note("nproc", Json::num(nproc as f64));
    report.note("cpu_model", Json::str(cpu));
    report.note(
        "runtime_pool_participants",
        Json::num(waco_runtime::ThreadPool::global().max_participants() as f64),
    );
}
