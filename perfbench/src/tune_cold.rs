//! `tune_cold`: one in-process caller tunes a seeded stream of distinct
//! matrices in a closed loop through `WacoTuner::tune`.
//!
//! Chosen because it is the whole cold-tune path (WACONet features,
//! Stage-1 pruning, ANNS, simulator measurement, per-shape index builds,
//! plan lowering) with no wire cost, over sizes that straddle the point
//! where simulator measurement overtakes feature extraction.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use waco_core::{prune_margin, train_cost_model, SearchPipeline, Waco};
use waco_exec::{AsymptoticProfile, ExecutionPlan};
use waco_model::CostModel;
use waco_schedule::{named, Kernel, Space};
use waco_serve::{Fingerprint, Json, Tuner, WacoTuner, WacoTunerConfig};
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::Pattern;
use waco_tensor::gen::{self, Family, Rng64};
use waco_tensor::CooMatrix;

use crate::inputs::family_matrix;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{geomean, unattributed, Samples};
use crate::{ms, Args};

/// Row counts of one round, spaced by √2 from 128 to 2048.
const LADDER: [usize; 9] = [128, 181, 256, 362, 512, 724, 1024, 1448, 2048];
/// Rounds per second of `--seconds`: the run tunes a fixed number of rounds
/// (so every run has the same mix of new and seen shapes), sized to take
/// about `--seconds` on a 2-core host when the benchmark was defined.
const ROUNDS_PER_SECOND: f64 = 2.0;
/// Set-ups per run; `setup_s` is the middle one. Set-up (training both
/// pipelines) takes about 60 ms, so it repeats often enough to be steady.
const SETUP_REPEATS: usize = 31;
/// Dense extent of the SpMM half of the stream.
const SPMM_DENSE: usize = 32;

/// One tune of the stream.
struct TuneInput {
    m: CooMatrix,
    kernel: Kernel,
    dense: usize,
}

/// The seeded input stream. A round tunes every ladder size for SpMV and
/// SpMM; in alternate slots the shape is fresh (a row count this run has
/// not used yet, so the tuner must build a new ANNS index), so about half
/// of the tunes meet a new shape.
struct Stream {
    rng: Rng64,
    round: usize,
    used: HashSet<(usize, Kernel)>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: Rng64::seed_from(seed ^ 0x7475_6e65),
            round: 0,
            used: HashSet::new(),
        }
    }

    fn next_round(&mut self) -> Vec<TuneInput> {
        let r = self.round;
        self.round += 1;
        (0..2 * LADDER.len())
            .map(|slot| {
                let kernel = if slot % 2 == 0 {
                    Kernel::SpMV
                } else {
                    Kernel::SpMM
                };
                let dense = if kernel == Kernel::SpMV {
                    0
                } else {
                    SPMM_DENSE
                };
                let base = LADDER[slot / 2];
                let mut n = base;
                if (slot / 2 + r) % 2 == 1 {
                    n += 1;
                    while self.used.contains(&(n, kernel)) {
                        n += 1;
                    }
                }
                self.used.insert((n, kernel));
                let family = Family::ALL[(slot + r) % Family::ALL.len()];
                TuneInput {
                    m: family_matrix(family, n, &mut self.rng),
                    kernel,
                    dense,
                }
            })
            .collect()
    }
}

/// A tuner with both pipelines trained, as a server has them after its
/// first requests.
pub fn setup() -> Result<WacoTuner, String> {
    let tuner = WacoTuner::new(WacoTunerConfig::default());
    for (kernel, dense) in [(Kernel::SpMV, 0), (Kernel::SpMM, SPMM_DENSE)] {
        tuner
            .warm_up(kernel, dense)
            .map_err(|e| format!("training the {kernel} pipeline: {e}"))?;
    }
    Ok(tuner)
}

fn space_of(sim: &Simulator, input: &TuneInput) -> Space {
    sim.space_for(
        input.kernel,
        vec![input.m.nrows(), input.m.ncols()],
        input.dense,
    )
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let rounds = (args.seconds * ROUNDS_PER_SECOND).ceil() as usize;
    let mut setups = Samples::new();
    let mut tuner = None;
    for _ in 0..repeats {
        let t = Instant::now();
        tuner = Some(setup()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let tuner = tuner.expect("at least one set-up");
    let sim = Simulator::new(MachineConfig::xeon_like());
    let mut layers = args.trace.then(Layers::new).transpose()?;

    let mut stream = Stream::new(args.seed);
    let mut tunes = Samples::new();
    let mut speedups = Vec::new();
    for _ in 0..rounds {
        for input in stream.next_round() {
            report.attempted += 1;
            if let Some(layers) = layers.as_mut() {
                layers.replay(&input, &sim)?;
            }
            let t = Instant::now();
            let outcome = tuner.tune(&input.m, input.kernel, input.dense);
            let elapsed = ms(t.elapsed());
            let Ok(outcome) = outcome else {
                report.fail(false);
                continue;
            };
            tunes.push(elapsed);
            // The tuner measures the default too, so its winner can never
            // be slower than the default-CSR schedule.
            let space = space_of(&sim, &input);
            let default = named::default_csr(&space);
            match sim.time_matrix(&input.m, &default, &space) {
                Ok(d)
                    if outcome.schedule.validate(&space).is_ok()
                        && outcome.kernel_seconds > 0.0
                        && outcome.kernel_seconds <= d.seconds * (1.0 + 1e-9) =>
                {
                    speedups.push(d.seconds / outcome.kernel_seconds);
                }
                _ => report.fail(true),
            }
        }
    }

    report.note(
        "tuner_pipelines",
        Json::str("SpMV, SpMM x32 (WacoTunerConfig::default)"),
    );
    report.note("rounds", Json::num(stream.round as f64));
    report.note_samples("tune", &tunes, &[0.5, 0.9]);
    report.note("setup.samples", Json::num(setups.len() as f64));
    if let Some(mut layers) = layers {
        return layers.finish(&mut tunes, report);
    }
    report.metric("setup_s", setups.middle(), "s");
    report.metric("peak_rss_mb", peak_rss_mb("self")?, "MB");
    report.metric("p50_ms", tunes.median()?, "ms");
    report.metric("tail_ms", tunes.percentile(0.9)?, "ms");
    report.metric("rate_per_s", 1e3 / tunes.mean(), "1/s");
    report.metric(
        "speedup_x",
        geomean(&speedups).ok_or("no tune produced a speed-up")?,
        "x",
    );
    Ok(())
}

/// The traced replay: the same inputs through each layer's public entry
/// point, on a second pipeline trained exactly like the tuner's.
struct Layers {
    pipelines: HashMap<Kernel, Replay>,
    /// The Stage-1 pipeline of every shape met so far, as the tuner keeps
    /// one beside each index.
    stages: HashMap<(Vec<usize>, usize), SearchPipeline>,
    tunes: u64,
    pattern: f64,
    feature: f64,
    index_build: f64,
    index_builds: u64,
    stage1: f64,
    pruned: u64,
    query: f64,
    evals: u64,
    measure: f64,
    candidates: u64,
    lower: f64,
}

/// One kernel's replay pipeline.
struct Replay {
    /// Builds and holds the per-shape indices (`Waco::index`).
    waco: Waco,
    /// Extracts features and ranks index queries.
    model: CostModel,
}

impl Layers {
    fn new() -> Result<Self, String> {
        let cfg = WacoTunerConfig::default();
        let mut pipelines = HashMap::new();
        for (kernel, dense) in [(Kernel::SpMV, 0), (Kernel::SpMM, SPMM_DENSE)] {
            let (families, base) = cfg.corpus;
            let corpus = gen::corpus(families, base, cfg.waco.seed);
            let sim = Simulator::new(MachineConfig::xeon_like());
            let failed = |e| format!("training the {kernel} replay pipeline: {e}");
            let (waco, _) =
                Waco::train_2d(sim.clone(), kernel, &corpus, dense, cfg.waco).map_err(failed)?;
            // `Waco::index` holds the pipeline borrowed while its index is
            // in use, so feature extraction and queries run on a second
            // copy of the cost model, trained the same way.
            let (model, _) =
                train_cost_model(sim, kernel, &corpus, dense, cfg.waco).map_err(failed)?;
            pipelines.insert(kernel, Replay { waco, model });
        }
        Ok(Layers {
            pipelines,
            stages: HashMap::new(),
            tunes: 0,
            pattern: 0.0,
            feature: 0.0,
            index_build: 0.0,
            index_builds: 0,
            stage1: 0.0,
            pruned: 0,
            query: 0.0,
            evals: 0,
            measure: 0.0,
            candidates: 0,
            lower: 0.0,
        })
    }

    fn replay(&mut self, input: &TuneInput, sim: &Simulator) -> Result<(), String> {
        let Replay { waco, model } = self
            .pipelines
            .get_mut(&input.kernel)
            .expect("a pipeline per streamed kernel");
        let cfg = *waco.config();
        let space = space_of(sim, input);
        self.tunes += 1;

        let t = Instant::now();
        let pattern = Pattern::from_matrix(&input.m);
        self.pattern += ms(t.elapsed());

        let key = (space.sparse_dims.clone(), space.dense_extent);
        let new_shape = !self.stages.contains_key(&key);
        let t = Instant::now();
        let index = waco.index(&space);
        if new_shape {
            self.index_build += ms(t.elapsed());
            self.index_builds += 1;
            let t = Instant::now();
            let pipeline = SearchPipeline::new(index);
            self.stage1 += ms(t.elapsed());
            self.stages.insert(key.clone(), pipeline);
        }
        let pipeline = &self.stages[&key];

        let t = Instant::now();
        let feat = model.extract_feature(&pattern);
        self.feature += ms(t.elapsed());

        let t = Instant::now();
        let profile = AsymptoticProfile::from_matrix(&input.m);
        let (allowed, prune) = pipeline.prune(&profile, cfg.topk, prune_margin(input.kernel));
        self.stage1 += ms(t.elapsed());
        self.pruned += prune.pruned() as u64;

        // The staged search's beam: a copy of `ef_staged` in
        // `Waco::tune_inner` (crates/core/src/lib.rs), which core does not
        // expose. Keep the two in step.
        let ef = (cfg.ef / 4).clamp(2 * cfg.topk.max(1), cfg.ef.max(1));
        let t = Instant::now();
        let (hits, evals, _) =
            index.query_with_feature_masked(model, &feat, cfg.topk, ef, &allowed);
        self.query += ms(t.elapsed());
        self.evals += evals as u64;

        let t = Instant::now();
        let mut best: Option<(f64, &waco_schedule::SuperSchedule)> = None;
        let default = named::default_csr(&space);
        let candidates = hits.iter().map(|&(i, _)| &index.schedules[i]);
        for sched in candidates.chain([&default]) {
            if let Ok(r) = sim.time_matrix(&input.m, sched, &space) {
                self.candidates += 1;
                if best.is_none_or(|(b, _)| r.seconds < b) {
                    best = Some((r.seconds, sched));
                }
            }
        }
        self.measure += ms(t.elapsed());

        if let Some((_, winner)) = best {
            let t = Instant::now();
            let _key = Fingerprint::of_matrix(&input.m);
            let plan = ExecutionPlan::build(winner, &space);
            self.lower += ms(t.elapsed());
            plan.map_err(|e| format!("lowering the winner: {e}"))?;
        }
        Ok(())
    }

    fn finish(&mut self, tunes: &mut Samples, report: &mut Report) -> Result<(), String> {
        let n = self.tunes.max(1) as f64;
        let per = |v: f64| v / n;
        let layers = [
            ("sparseconv.pattern_ms", per(self.pattern)),
            ("model.feature_ms", per(self.feature)),
            ("anns.index_build_ms", per(self.index_build)),
            ("core.stage1_ms", per(self.stage1)),
            ("anns.query_ms", per(self.query)),
            ("sim.measure_ms", per(self.measure)),
            ("exec.lower_ms", per(self.lower)),
        ];
        for (name, v) in layers {
            report.metric(name, v, "ms");
        }
        let times: Vec<f64> = layers.iter().map(|l| l.1).collect();
        report.metric(
            "tune.unattributed_ms",
            unattributed(tunes.mean(), &times),
            "ms",
        );
        report.metric("anns.index_builds", self.index_builds as f64, "count");
        report.metric("core.pruned", per(self.pruned as f64), "count");
        report.metric("anns.evals", per(self.evals as f64), "count");
        report.metric("sim.candidates", per(self.candidates as f64), "count");
        report.metric("tune.total_ms", tunes.mean(), "ms");
        report.metric("error_rate", report.error_rate(), "ratio");
        Ok(())
    }
}
