//! The `paper-quick` workload: the user's reproduce-the-paper path.
//!
//! Every registry experiment except `fig-multipath` (which
//! `multipath-window` covers) is planned at [`RunSpec::quick`] size,
//! executed by [`hydra_bench::execute`] on two workers, harvested into
//! its result document and, at the goldens' seed, diffed against
//! `goldens/<name>.json` with [`hydra_bench::golden::diff`].
//!
//! At any other seed there is no golden, so the check phase instead
//! re-runs a sample of jobs serially, outside the engine, and requires
//! identical [`SimStats`], and requires the repair ordering that
//! `tests/repair_ordering.rs` pins, on `fig-repair`'s suite-mean hit
//! rates. The sample re-run also times generation, `Core::new` and
//! `Core::run` for the per-layer metrics, which the engine hides.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hydra_bench::golden::{diff, DiffOptions};
use hydra_bench::results::experiment_doc;
use hydra_bench::{
    execute, registry, Experiment, ExperimentRun, JobKind, JobOutput, RunSpec, SimJob,
};
use hydra_pipeline::{Core, CpiStack, SimStats};
use hydra_stats::Json;
use hydra_workloads::Workload;

use crate::alloc::allocations;
use crate::spans::Tracer;

/// The seed the committed goldens were generated with.
pub const GOLDEN_SEED: u64 = 12345;

/// Cycle-level jobs re-run serially in the check phase.
const SAMPLE: usize = 8;

/// Engine worker threads: two, or one on a single-core host.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What `paper-quick` runs and how it checks it.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Registry names of the experiments to run, in registry order.
    pub experiments: Vec<String>,
    /// Sizing and seed.
    pub run: RunSpec,
    /// Directory holding `<name>.json` goldens (read at [`GOLDEN_SEED`]).
    pub goldens: PathBuf,
}

impl PaperSpec {
    /// `paper-quick` at `seed`: every registry experiment but
    /// `fig-multipath`, quick size.
    pub fn quick(seed: u64, goldens: PathBuf) -> Self {
        PaperSpec {
            experiments: registry()
                .iter()
                .map(|e| e.name().to_string())
                .filter(|n| n != "fig-multipath")
                .collect(),
            run: RunSpec::builder()
                .fast_forward(RunSpec::quick().fast_forward)
                .horizon(RunSpec::quick().horizon)
                .seed(seed)
                .build(),
            goldens,
        }
    }
}

/// One experiment with its planned jobs.
pub struct Plan {
    /// The experiment.
    pub experiment: Box<dyn Experiment>,
    /// `experiment.plan(run)`.
    pub jobs: Vec<SimJob>,
}

/// Looks up and plans every experiment of `spec`; returns the plans and
/// the host seconds planning took.
pub fn plan_all(spec: &PaperSpec, tracer: &mut Tracer) -> (Vec<Plan>, f64) {
    let (plans, took) = tracer.span("setup", None, |t| {
        let mut all = registry();
        all.retain(|e| spec.experiments.iter().any(|n| n == e.name()));
        all.into_iter()
            .map(|experiment| {
                let (jobs, _) = t.span("engine.plan", None, |_| experiment.plan(&spec.run));
                Plan { experiment, jobs }
            })
            .collect()
    });
    (plans, took.as_secs_f64())
}

/// Reads `goldens/<name>.json` for every experiment of `spec`.
pub fn load_goldens(spec: &PaperSpec) -> Vec<(String, Result<Json, String>)> {
    spec.experiments
        .iter()
        .map(|name| {
            let path = spec.goldens.join(format!("{name}.json"));
            let doc = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|text| {
                    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
                });
            (name.clone(), doc)
        })
        .collect()
}

/// One experiment's share of a pass.
#[derive(Debug, Clone)]
pub struct ExperimentPass {
    /// Registry name.
    pub name: String,
    /// Jobs planned (0 for a configuration table).
    pub jobs: usize,
    /// Host seconds in [`hydra_bench::execute`].
    pub execute_s: f64,
    /// Host seconds in harvest, rendering the document and the golden
    /// diff.
    pub harvest_s: f64,
    /// Each job's host seconds, as the engine timed it.
    pub job_s: Vec<f64>,
    /// Worker threads the engine used.
    pub workers: usize,
    /// Seconds at the end of the execute call when some worker had no
    /// job left, from the jobs' durations scheduled in plan order.
    pub idle_tail_s: f64,
    /// The result document as compact JSON text.
    pub doc: String,
    /// Every job output, in plan order.
    pub outputs: Vec<JobOutput>,
    /// Why the experiment failed, if it did.
    pub failure: Option<String>,
}

/// One pass over every experiment.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the measured phase: every execute and harvest.
    pub wall_s: f64,
    /// Per experiment, in registry order.
    pub experiments: Vec<ExperimentPass>,
}

/// Executes and harvests every plan; at [`GOLDEN_SEED`] also diffs each
/// document against its golden. `between` is called after each
/// experiment with its host seconds, outside the pass's timing.
pub fn run_pass(
    spec: &PaperSpec,
    plans: &[Plan],
    goldens: Option<&[(String, Result<Json, String>)]>,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(f64),
) -> Pass {
    let mut wall_s = 0.0;
    let (experiments, _) = tracer.span("measure", None, |t| {
        plans
            .iter()
            .map(|p| {
                let e = run_experiment(spec, p, goldens, t);
                wall_s += e.execute_s + e.harvest_s;
                between(e.execute_s + e.harvest_s);
                e
            })
            .collect()
    });
    Pass {
        wall_s,
        experiments,
    }
}

fn run_experiment(
    spec: &PaperSpec,
    plan: &Plan,
    goldens: Option<&[(String, Result<Json, String>)]>,
    tracer: &mut Tracer,
) -> ExperimentPass {
    let name = plan.experiment.name().to_string();
    let mut out = ExperimentPass {
        name: name.clone(),
        jobs: plan.jobs.len(),
        execute_s: 0.0,
        harvest_s: 0.0,
        job_s: Vec::new(),
        workers: 1,
        idle_tail_s: 0.0,
        doc: String::new(),
        outputs: Vec::new(),
        failure: None,
    };
    let (executed, took) = tracer.span("engine.execute", None, |t| {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| execute(&plan.jobs, workers())));
        if let Ok((_, report)) = &result {
            if t.is_on() {
                for (i, (s, e)) in schedule(&report.job_millis, report.workers)
                    .0
                    .iter()
                    .enumerate()
                {
                    let id = t.job(|| format!("{name} #{i} {}", plan.jobs[i].label));
                    let at = |ms: f64| start + Duration::from_secs_f64(ms / 1e3);
                    t.record("engine.job", Some(id), at(*s), at(*e));
                }
            }
        }
        result
    });
    out.execute_s = took.as_secs_f64();
    let (outputs, report) = match executed {
        Ok(v) => v,
        Err(_) => {
            out.failure = Some(format!("{name}: a job panicked"));
            return out;
        }
    };
    out.job_s = report.job_millis.iter().map(|ms| ms / 1e3).collect();
    out.workers = report.workers;
    out.idle_tail_s = schedule(&report.job_millis, report.workers).1 / 1e3;

    let (harvested, took) = tracer.span("engine.harvest", None, |t| {
        let table = catch_unwind(AssertUnwindSafe(|| {
            plan.experiment.harvest(&spec.run, &outputs)
        }))
        .map_err(|_| format!("{name}: harvest panicked"))?;
        let run = ExperimentRun { table, report };
        let doc = experiment_doc(plan.experiment.as_ref(), &spec.run, &run);
        if let Some(goldens) = goldens {
            t.span("golden.diff", None, |_| check_golden(&name, &doc, goldens))
                .0?;
        }
        Ok::<_, String>(doc.to_string())
    });
    out.harvest_s = took.as_secs_f64();
    match harvested {
        Ok(doc) => out.doc = doc,
        Err(why) => out.failure = Some(why),
    }
    out.outputs = outputs;
    out
}

fn check_golden(
    name: &str,
    doc: &Json,
    goldens: &[(String, Result<Json, String>)],
) -> Result<(), String> {
    let golden = match goldens.iter().find(|(n, _)| n == name) {
        Some((_, Ok(g))) => g,
        Some((_, Err(why))) => return Err(format!("{name}: golden unreadable: {why}")),
        None => return Err(format!("{name}: no golden")),
    };
    let mismatches = diff(golden, doc, &DiffOptions::default());
    match mismatches.first() {
        None => Ok(()),
        Some(m) => Err(format!(
            "{name}: {} field(s) differ from the golden, first {m}",
            mismatches.len()
        )),
    }
}

/// Replays the engine's schedule from its jobs' durations: each job, in
/// plan order, goes to the worker that frees up first. Returns each
/// job's `(start, end)` and the idle tail, the time between the first
/// and the last worker running out of jobs (same unit as `durations`).
pub fn schedule(durations: &[f64], workers: usize) -> (Vec<(f64, f64)>, f64) {
    let mut free = vec![0.0f64; workers.max(1)];
    let spans = durations
        .iter()
        .map(|&d| {
            let (w, &start) = free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one worker");
            free[w] = start + d;
            (start, start + d)
        })
        .collect();
    let last = free.iter().copied().fold(0.0, f64::max);
    let first = free.iter().copied().fold(f64::INFINITY, f64::min);
    (
        spans,
        if durations.is_empty() {
            0.0
        } else {
            last - first
        },
    )
}

/// Host seconds and simulated work of the serial sample re-run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Jobs re-run.
    pub jobs: usize,
    /// Host seconds in [`Workload::generate`].
    pub generate_s: f64,
    /// Host seconds in [`Core::new`].
    pub core_new_s: f64,
    /// Host seconds in [`Core::run`], warm-up and window.
    pub run_s: f64,
    /// Cycles simulated by those runs.
    pub cycles: u64,
    /// Heap allocations made during those runs.
    pub allocs: u64,
    /// Static instructions of the re-run jobs' programs.
    pub static_insts: u64,
}

/// The check phase: re-runs a sample of cycle-level jobs serially and
/// requires the engine's exact statistics; away from [`GOLDEN_SEED`]
/// also requires the repair ordering. Failures are recorded on the
/// experiment they belong to.
pub fn check_pass(
    spec: &PaperSpec,
    plans: &[Plan],
    pass: &mut Pass,
    tracer: &mut Tracer,
) -> Sample {
    let eligible: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(e, p)| {
            p.jobs.iter().enumerate().filter_map(move |(j, job)| {
                matches!(job.kind, JobKind::Cycle { .. } | JobKind::Obs { .. }).then_some((e, j))
            })
        })
        .collect();
    let picks: Vec<(usize, usize)> = (0..SAMPLE.min(eligible.len()))
        .map(|k| eligible[k * eligible.len() / SAMPLE.min(eligible.len())])
        .collect();
    let mut sample = Sample::default();
    tracer.span("check", None, |t| {
        for (e, j) in picks {
            let exp = &mut pass.experiments[e];
            let Some(engine) = exp.outputs.get(j) else {
                continue;
            };
            let engine = match engine {
                JobOutput::Stats(s) | JobOutput::Obs { stats: s, .. } => *s,
                _ => continue,
            };
            let id = t.job(|| format!("sample {} #{j}", exp.name));
            let serial = rerun(&plans[e].jobs[j], &mut sample, t, id);
            if serial != engine && exp.failure.is_none() {
                exp.failure = Some(format!(
                    "{}: job {j} ({}) re-run serially gives different statistics",
                    exp.name, plans[e].jobs[j].label
                ));
            }
        }
        if spec.run.seed != GOLDEN_SEED {
            if let Some(exp) = pass.experiments.iter_mut().find(|e| e.name == "fig-repair") {
                if let Err(why) = repair_ordering(&exp.doc) {
                    exp.failure.get_or_insert(why);
                }
            }
        }
    });
    sample
}

fn rerun(job: &SimJob, sample: &mut Sample, t: &mut Tracer, id: u32) -> SimStats {
    let (spec, seed, config, fast_forward, horizon) = match &job.kind {
        JobKind::Cycle {
            spec,
            seed,
            config,
            fast_forward,
            horizon,
        }
        | JobKind::Obs {
            spec,
            seed,
            config,
            fast_forward,
            horizon,
        } => (spec, *seed, *config, *fast_forward, *horizon),
        _ => unreachable!("only cycle-level jobs are sampled"),
    };
    sample.jobs += 1;
    let (w, d) = t.span("workloads.generate", Some(id), |_| {
        Workload::generate(spec, seed).expect("job spec generates")
    });
    sample.generate_s += d.as_secs_f64();
    sample.static_insts += w.program().len() as u64;
    let (mut core, d) = t.span("pipeline.core_new", Some(id), |_| {
        Core::new(config, w.program())
    });
    sample.core_new_s += d.as_secs_f64();
    let allocs_before = allocations();
    let (_, d) = t.span("pipeline.run", Some(id), |_| core.run(fast_forward));
    sample.run_s += d.as_secs_f64();
    core.reset_stats();
    let (stats, d) = t.span("pipeline.run", Some(id), |_| core.run(horizon));
    sample.run_s += d.as_secs_f64();
    sample.allocs += allocations() - allocs_before;
    sample.cycles += core.cycle();
    stats
}

/// The ordering `tests/repair_ordering.rs` pins, applied to suite-mean
/// hit rates (percent): no repair ≤ TOS pointer ≤ TOS pointer and
/// contents ≤ full stack and no repair ≤ valid bits ≤ TOS pointer and
/// contents, each within the test's slack; full stack above 99.5%, TOS
/// pointer and contents above 85% and the perfect predictor above 99.9%.
pub fn repair_ordering(doc: &str) -> Result<(), String> {
    let doc = Json::parse(doc).map_err(|e| format!("fig-repair: unreadable document: {e}"))?;
    let table = doc.get("table").ok_or("fig-repair: no table")?;
    let columns: Vec<&str> = table
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("fig-repair: no columns")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let rows = table
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("fig-repair: no rows")?;
    let mean = |col: &str| -> Result<f64, String> {
        let i = columns
            .iter()
            .position(|c| *c == col)
            .ok_or_else(|| format!("fig-repair: no column {col:?}"))?;
        let values: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.as_arr().and_then(|r| r.get(i)).and_then(Json::as_num))
            .collect();
        if values.len() != rows.len() || values.is_empty() {
            return Err(format!("fig-repair: column {col:?} is not numeric"));
        }
        Ok(values.iter().sum::<f64>() / values.len() as f64)
    };
    let none = mean("no repair")?;
    let vbits = mean("valid bits")?;
    let ptr = mean("TOS pointer")?;
    let contents = mean("TOS ptr+contents")?;
    let full = mean("full stack")?;
    let perfect = mean("perfect")?;
    let ordered = ptr >= none - 2.0
        && contents >= ptr - 2.0
        && full >= contents - 0.5
        && vbits >= none - 2.0
        && contents >= vbits - 2.0;
    if ordered && full > 99.5 && contents > 85.0 && perfect > 99.9 {
        Ok(())
    } else {
        Err(format!(
            "fig-repair: suite-mean hit rates out of order: none {none:.2} \
             valid bits {vbits:.2} ptr {ptr:.2} ptr+contents {contents:.2} \
             full {full:.2} perfect {perfect:.2}"
        ))
    }
}

/// The goldens directory of the checkout this binary was built in.
pub fn default_goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../goldens")
}

/// Every simulated count in the experiments' job outputs (one
/// [`SimStats`] per core or hart), and the observability jobs' stats
/// with their lost-slot accounting.
pub fn totals(experiments: &[ExperimentPass]) -> (Vec<SimStats>, Vec<(SimStats, CpiStack)>) {
    let mut stats = Vec::new();
    let mut obs = Vec::new();
    for e in experiments {
        for o in &e.outputs {
            match o {
                JobOutput::Stats(s) => stats.push(*s),
                JobOutput::Obs { stats: s, cpi, .. } => {
                    stats.push(*s);
                    obs.push((*s, *cpi));
                }
                JobOutput::SmtStats(v) => stats.extend(v.iter().copied()),
                _ => {}
            }
        }
    }
    (stats, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_replays_the_work_queue() {
        let (spans, tail) = schedule(&[3.0, 1.0, 1.0, 4.0], 2);
        assert_eq!(spans, vec![(0.0, 3.0), (0.0, 1.0), (1.0, 2.0), (2.0, 6.0)]);
        assert_eq!(tail, 3.0);
        assert_eq!(schedule(&[], 2).1, 0.0);
    }
}
