//! Runs a workload as a closed loop of passes for the measuring time,
//! checks every pass, and turns the passes into metrics.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A
//! traced run (`--trace 1`) spends half its time untraced and half with
//! spans recorded, and reports the per-layer metrics plus the tracing
//! overhead: the traced passes' median `wall_s` minus the untraced
//! ones'. Simulated counts must be identical across every pass of a
//! run, traced or not; a difference is a failure, not noise.

use std::time::Instant;

use hydra_pipeline::{CpiStack, LostCause, SimStats};

use crate::cli::{Args, WorkloadName};
use crate::metrics::Metrics;
use crate::paper::{self, PaperSpec, GOLDEN_SEED};
use crate::spans::Tracer;
use crate::summary::{median, ratio, tail};
use crate::window::{self, WindowSpec};
use crate::{calib, components};

/// Host time given to set-up-only phases for the `setup_s` median, as a
/// share of the measured time of an untraced run.
const SETUP_SHARE: f64 = 0.1;

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs attempted over every pass.
    pub attempted: u64,
    /// Jobs that failed: a panic, a failed check, or counts that differ
    /// from the first pass.
    pub failed: u64,
    /// Why, one line per failed job.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines: sample counts and tail percentiles.
    pub notes: Vec<String>,
    /// The traced passes' spans.
    pub tracer: Option<Tracer>,
}

/// Runs `args.workload`.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        WorkloadName::SuiteWindow => run_window(&WindowSpec::suite(), args),
        WorkloadName::MultipathWindow => run_window(&WindowSpec::multipath(), args),
        WorkloadName::PaperQuick => {
            run_paper(&PaperSpec::quick(args.seed, paper::default_goldens()), args)
        }
    }
}

/// Repeats `pass` until adding one more pass of the mean length so far
/// would exceed `seconds`; always runs at least one. Also returns the
/// peak resident set after the first pass, which, unlike the peak at
/// exit, does not grow with the passes' retained results.
fn closed_loop<P>(seconds: f64, mut pass: impl FnMut(usize) -> P) -> (Vec<P>, f64) {
    let start = Instant::now();
    let mut passes = vec![pass(0)];
    let rss = peak_rss_mib();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > seconds {
            return (passes, rss);
        }
        passes.push(pass(passes.len()));
    }
}

/// Splits the measuring time between the untraced and traced halves.
fn halves(args: &Args) -> (f64, f64) {
    if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    }
}

/// Set-up-only phases spread through the passes of an untraced run. A
/// set-up takes milliseconds and the host's speed changes over seconds,
/// so set-ups taken at one point of a run would rest on the host's speed
/// at that point. Instead, after each measured job or experiment,
/// set-ups are repeated until their host time catches up with
/// [`SETUP_SHARE`] of the measured time so far. None are taken in the
/// first pass: its peak memory is reported, and a set-up made while the
/// pass's own cores are alive would add to it. A run of one pass takes
/// its set-ups after it, in one block.
struct SetupSampler<F> {
    once: F,
    owed_s: f64,
    samples: Vec<f64>,
}

impl<F: FnMut() -> f64> SetupSampler<F> {
    /// `once` runs one set-up and returns its host seconds.
    fn new(once: F) -> Self {
        SetupSampler {
            once,
            owed_s: 0.0,
            samples: Vec::new(),
        }
    }

    /// Called after a measured job or experiment of `measured_s`.
    fn after(&mut self, measured_s: f64) {
        self.owed_s += measured_s * SETUP_SHARE;
        while self.owed_s > 0.0 {
            let start = Instant::now();
            self.samples.push((self.once)());
            self.owed_s -= start.elapsed().as_secs_f64();
        }
    }
}

/// Runs a window workload of `spec` with `args`' seed and time.
pub fn run_window(spec: &WindowSpec, args: &Args) -> Outcome {
    let calib_start = calib::calib_mips();
    let (plain_s, traced_s) = halves(args);
    let mut sampler =
        SetupSampler::new(|| window::setup(spec, args.seed, &mut Tracer::new(false)).setup_s);
    let mut plain_tracer = Tracer::new(false);
    let (plain, rss) = closed_loop(plain_s, |i| {
        let mut between = |job_s| {
            if !args.trace && i > 0 {
                sampler.after(job_s)
            }
        };
        window::run_pass(spec, args.seed, i == 0, &mut plain_tracer, &mut between)
    });
    let mut tracer = Tracer::new(true);
    let traced = if args.trace {
        closed_loop(traced_s, |i| {
            window::run_pass(spec, args.seed, i == 0, &mut tracer, &mut |_| {})
        })
        .0
    } else {
        Vec::new()
    };
    if plain.len() == 1 && !args.trace {
        sampler.after(plain[0].wall_s);
    }
    let mut setup_s = sampler.samples;
    setup_s.extend(plain.iter().map(|p| p.setup_s));
    let calib_end = calib::calib_mips();

    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Metrics::default(),
        notes: Vec::new(),
        tracer: args.trace.then_some(tracer),
    };
    let reference = &plain[0];
    for pass in plain.iter().chain(&traced) {
        for (job, first) in pass.jobs.iter().zip(&reference.jobs) {
            out.attempted += 1;
            let why = match (job, first) {
                (Err(why), _) => Some(why.clone()),
                (Ok(_), Err(_)) => Some("failed on the first pass".to_string()),
                (Ok(a), Ok(b)) if !a.same_simulation(b) => Some(format!(
                    "{}: simulated counts differ from the first pass",
                    a.label
                )),
                _ => None,
            };
            if let Some(why) = why {
                out.failed += 1;
                out.failures.push(why);
            }
        }
    }

    let ok = |p: &window::Pass| -> Vec<window::JobResult> {
        p.jobs
            .iter()
            .filter_map(|j| j.as_ref().ok().cloned())
            .collect()
    };
    let sum = |jobs: &[window::JobResult], f: fn(&window::JobResult) -> f64| -> f64 {
        jobs.iter().map(f).sum()
    };
    let sim_mips = |p: &window::Pass| {
        let jobs = ok(p);
        ratio(
            sum(&jobs, |j| j.stats.committed as f64),
            sum(&jobs, |j| j.run_s),
        ) / 1e6
    };
    let jobs_of_first = ok(reference);
    let counts = Counts::new(
        jobs_of_first.iter().map(|j| j.stats).collect(),
        jobs_of_first.iter().map(|j| (j.stats, j.cpi)).collect(),
    );

    if !args.trace {
        let job_s: Vec<f64> = (0..spec.jobs())
            .map(|j| {
                let samples: Vec<f64> = plain
                    .iter()
                    .filter_map(|p| p.jobs[j].as_ref().ok().map(|r| r.job_s))
                    .collect();
                median(&samples)
            })
            .collect();
        let m = &mut out.metrics;
        m.put("sim_mips", median_of(&plain, sim_mips), "M_instr/s");
        m.put("wall_s", median_of(&plain, |p| p.wall_s), "s");
        m.put("setup_s", median(&setup_s), "s");
        put_jobs(m, &mut out.notes, &job_s);
        m.put("peak_rss_mib", rss, "MiB");
        out.notes.push(format!(
            "passes {}, jobs per pass {}, setup samples {}, pass wall_s {:?}",
            plain.len(),
            spec.jobs(),
            setup_s.len(),
            plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()
        ));
        return out;
    }

    let growth = |p: &window::Pass| {
        let jobs = ok(p);
        let per_cycle = |k: usize| {
            ratio(
                jobs.iter().map(|j| j.chunk_s[k]).sum(),
                jobs.iter().map(|j| j.chunk_cycles[k] as f64).sum(),
            )
        };
        ratio(per_cycle(window::CHUNKS as usize - 1), per_cycle(0))
    };
    let m = &mut out.metrics;
    m.put(
        "workloads.generate_s",
        median_of(&traced, |p| p.generate_s),
        "s",
    );
    m.put(
        "workloads.static_insts",
        reference.static_insts as f64,
        "count",
    );
    // Only the first traced pass is checked, and pre-decodes.
    m.put("isa.predecode_s", traced[0].predecode_s, "s");
    m.put(
        "isa.ff_s",
        median_of(&traced, |p| sum(&ok(p), |j| j.ff_s)),
        "s",
    );
    m.put(
        "isa.ff_insts",
        sum(&jobs_of_first, |j| j.skipped as f64),
        "count",
    );
    m.put(
        "isa.ff_mips",
        median_of(&traced, |p| {
            let jobs = ok(p);
            ratio(sum(&jobs, |j| j.skipped as f64), sum(&jobs, |j| j.ff_s)) / 1e6
        }),
        "M_instr/s",
    );
    m.put(
        "pipeline.core_new_s",
        median_of(&traced, |p| p.core_new_s),
        "s",
    );
    let run_s = median_of(&traced, |p| sum(&ok(p), |j| j.run_s));
    m.put("pipeline.run_s", run_s, "s");
    let allocs = sum(&ok(&plain[plain.len() - 1]), |j| j.allocs as f64);
    counts.put(m, run_s, allocs);
    m.put(
        "pipeline.ns_per_cycle.growth",
        median_of(&traced, growth),
        "ratio",
    );
    put_engine_idle(m);
    finish_traced(
        &mut out,
        median_of(&traced, |p| p.wall_s) - median_of(&plain, |p| p.wall_s),
        calib_start,
        calib_end,
    );
    out
}

/// Runs `paper-quick` as described by `spec` with `args`' time.
pub fn run_paper(spec: &PaperSpec, args: &Args) -> Outcome {
    let calib_start = calib::calib_mips();
    let goldens = (spec.run.seed == GOLDEN_SEED).then(|| paper::load_goldens(spec));
    let (plain_s, traced_s) = halves(args);

    let mut sampler = SetupSampler::new(|| paper::plan_all(spec, &mut Tracer::new(false)).1);
    let mut setup_s = Vec::new();
    let mut pass_loop = |seconds: f64, tracer: &mut Tracer| {
        closed_loop(seconds, |i| {
            let (plans, plan_s) = paper::plan_all(spec, tracer);
            if !args.trace {
                setup_s.push(plan_s);
            }
            let mut between = |experiment_s| {
                if !args.trace && i > 0 {
                    sampler.after(experiment_s)
                }
            };
            let mut pass = paper::run_pass(spec, &plans, goldens.as_deref(), tracer, &mut between);
            let sample = paper::check_pass(spec, &plans, &mut pass, tracer);
            (plans, pass, sample, plan_s)
        })
    };
    let mut plain_tracer = Tracer::new(false);
    let (plain, rss) = pass_loop(plain_s, &mut plain_tracer);
    let mut tracer = Tracer::new(true);
    let traced = if args.trace {
        pass_loop(traced_s, &mut tracer).0
    } else {
        Vec::new()
    };
    if plain.len() == 1 && !args.trace {
        sampler.after(plain[0].1.wall_s);
    }
    setup_s.extend(sampler.samples);
    let calib_end = calib::calib_mips();

    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Metrics::default(),
        notes: Vec::new(),
        tracer: args.trace.then_some(tracer),
    };
    let reference = &plain[0].1;
    for (plans, pass, _, _) in plain.iter().chain(&traced) {
        for ((e, first), plan) in pass
            .experiments
            .iter()
            .zip(&reference.experiments)
            .zip(plans)
        {
            let units = plan.jobs.len().max(1) as u64;
            out.attempted += units;
            let why = if let Some(why) = &e.failure {
                Some(why.clone())
            } else if first.failure.is_some() {
                Some(format!("{}: failed on the first pass", e.name))
            } else if e.doc != first.doc
                || paper::totals(std::slice::from_ref(e))
                    != paper::totals(std::slice::from_ref(first))
            {
                Some(format!("{}: results differ from the first pass", e.name))
            } else {
                None
            };
            if let Some(why) = why {
                out.failed += units;
                out.failures.push(why);
            }
        }
    }

    let execute_s = |p: &paper::Pass| p.experiments.iter().map(|e| e.execute_s).sum::<f64>();
    let (all, obs) = paper::totals(&reference.experiments);
    let counts = Counts::new(all, obs);

    if !args.trace {
        let job_s: Vec<f64> = reference
            .experiments
            .iter()
            .enumerate()
            .flat_map(|(e, first)| {
                let plain = &plain;
                (0..first.job_s.len()).map(move |j| {
                    let samples: Vec<f64> = plain
                        .iter()
                        .filter_map(|(_, p, _, _)| p.experiments[e].job_s.get(j).copied())
                        .collect();
                    median(&samples)
                })
            })
            .collect();
        let m = &mut out.metrics;
        m.put(
            "sim_mips",
            median_of(&plain, |(_, p, _, _)| {
                ratio(counts.get("committed"), execute_s(p)) / 1e6
            }),
            "M_instr/s",
        );
        m.put("wall_s", median_of(&plain, |(_, p, _, _)| p.wall_s), "s");
        m.put("setup_s", median(&setup_s), "s");
        put_jobs(m, &mut out.notes, &job_s);
        m.put("peak_rss_mib", rss, "MiB");
        out.notes.push(format!(
            "passes {}, jobs per pass {}, setup samples {}, workers {}",
            plain.len(),
            job_s.len(),
            setup_s.len(),
            paper::workers()
        ));
        return out;
    }

    let m = &mut out.metrics;
    let sample = |f: fn(&paper::Sample) -> f64| median_of(&traced, |(_, _, s, _)| f(s));
    m.put("workloads.generate_s", sample(|s| s.generate_s), "s");
    m.put(
        "workloads.static_insts",
        traced[0].2.static_insts as f64,
        "count",
    );
    for name in ["isa.predecode_s", "isa.ff_s"] {
        m.put(name, 0.0, "s");
    }
    m.put("isa.ff_insts", 0.0, "count");
    m.put("isa.ff_mips", 0.0, "M_instr/s");
    m.put("pipeline.core_new_s", sample(|s| s.core_new_s), "s");
    let run_s = sample(|s| s.run_s);
    m.put("pipeline.run_s", run_s, "s");
    let sampled = &traced[0].2;
    counts.put(m, run_s, 0.0);
    m.put(
        "pipeline.host_ns_per_cycle",
        ratio(run_s * 1e9, sampled.cycles as f64),
        "ns",
    );
    m.put(
        "pipeline.allocs_per_kcycle",
        ratio(plain[0].2.allocs as f64, plain[0].2.cycles as f64 / 1e3),
        "count",
    );
    m.put("pipeline.ns_per_cycle.growth", 0.0, "ratio");
    let per_pass = |f: fn(&paper::ExperimentPass) -> f64| {
        median_of(&traced, |(_, p, _, _)| p.experiments.iter().map(f).sum())
    };
    m.put(
        "engine.jobs",
        reference.experiments.iter().map(|e| e.jobs as f64).sum(),
        "count",
    );
    m.put(
        "engine.busy_ratio",
        median_of(&traced, |(_, p, _, _)| {
            ratio(
                p.experiments
                    .iter()
                    .map(|e| e.job_s.iter().sum::<f64>())
                    .sum(),
                p.experiments
                    .iter()
                    .map(|e| e.workers as f64 * e.execute_s)
                    .sum(),
            )
        }),
        "ratio",
    );
    m.put("engine.idle_tail_s", per_pass(|e| e.idle_tail_s), "s");
    m.put(
        "engine.plan_s",
        median_of(&traced, |(_, _, _, plan_s)| *plan_s),
        "s",
    );
    m.put("engine.harvest_s", per_pass(|e| e.harvest_s), "s");
    finish_traced(
        &mut out,
        median_of(&traced, |(_, p, _, _)| p.wall_s) - median_of(&plain, |(_, p, _, _)| p.wall_s),
        calib_start,
        calib_end,
    );
    out
}

/// The median of `f` over `passes`.
fn median_of<P>(passes: &[P], f: impl Fn(&P) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// `job_s.p50` and `job_s.tail`, with the sample count and the tail's
/// percentile noted.
fn put_jobs(m: &mut Metrics, notes: &mut Vec<String>, job_s: &[f64]) {
    let (value, pct) = tail(job_s);
    m.put("job_s.p50", median(job_s), "s");
    m.put("job_s.tail", value, "s");
    notes.push(format!(
        "job_s over {} jobs (each the median of its passes): tail is p{pct:.1}",
        job_s.len()
    ));
}

/// Engine rows of a workload that does not use the engine.
fn put_engine_idle(m: &mut Metrics) {
    m.put("engine.jobs", 0.0, "count");
    m.put("engine.busy_ratio", 0.0, "ratio");
    m.put("engine.idle_tail_s", 0.0, "s");
    m.put("engine.plan_s", 0.0, "s");
    m.put("engine.harvest_s", 0.0, "s");
}

/// Rows every traced run ends with: the component timings, host speed
/// and tracing overhead.
fn finish_traced(out: &mut Outcome, overhead_s: f64, calib_start: f64, calib_end: f64) {
    components::measure(&mut out.metrics);
    out.metrics.put(
        "host.calib_mips",
        (calib_start + calib_end) / 2.0,
        "M_instr/s",
    );
    out.metrics.put("trace.overhead_s", overhead_s, "s");
    out.notes.push(format!(
        "host calibration: {calib_start:.1} M_instr/s at start, {calib_end:.1} at end"
    ));
}

/// Sums of the simulated counts of a pass, for the layer count rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    named: Vec<(&'static str, u64)>,
    obs_cycles: u64,
    obs_committed: u64,
    cpi: CpiStack,
}

impl Counts {
    /// Sums `all` (`max_live_paths` takes the maximum); the CPI rows come
    /// from the jobs in `obs`, which carry lost-slot accounting.
    pub fn new(all: Vec<SimStats>, obs: Vec<(SimStats, CpiStack)>) -> Self {
        let mut named: Vec<(&'static str, u64)> = SimStats::default()
            .named_counters()
            .iter()
            .map(|&(n, _)| (n, 0))
            .collect();
        for s in &all {
            for (slot, (name, v)) in named.iter_mut().zip(s.named_counters()) {
                slot.1 = if name == "max_live_paths" {
                    slot.1.max(v)
                } else {
                    slot.1 + v
                };
            }
        }
        let mut cpi = CpiStack::default();
        for (_, c) in &obs {
            cpi.absorb(c);
        }
        Counts {
            named,
            obs_cycles: obs.iter().map(|(s, _)| s.cycles).sum(),
            obs_committed: obs.iter().map(|(s, _)| s.committed).sum(),
            cpi,
        }
    }

    /// A summed counter by its [`SimStats::named_counters`] name.
    pub fn get(&self, name: &str) -> f64 {
        self.named
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    /// Adds the count rows of the pipeline, RAS, predictor, cache and
    /// observability layers, with host time per cycle from `run_s` and
    /// heap allocations per kilocycle from `allocs`.
    fn put(&self, m: &mut Metrics, run_s: f64, allocs: f64) {
        let c = |n| self.get(n);
        m.put("pipeline.cycles", c("cycles"), "count");
        m.put("pipeline.committed", c("committed"), "count");
        m.put(
            "pipeline.host_ns_per_cycle",
            ratio(run_s * 1e9, c("cycles")),
            "ns",
        );
        m.put("pipeline.fetched_uops", c("fetched_uops"), "count");
        m.put("pipeline.squashed_uops", c("squashed_uops"), "count");
        m.put(
            "pipeline.useful_uop_ratio",
            ratio(c("committed"), c("fetched_uops")),
            "ratio",
        );
        m.put(
            "pipeline.allocs_per_kcycle",
            ratio(allocs, c("cycles") / 1e3),
            "count",
        );
        m.put("pipeline.forks", c("forks"), "count");
        m.put("pipeline.max_live_paths", c("max_live_paths"), "count");
        m.put("ras.pushes", c("ras_pushes"), "count");
        m.put("ras.pops", c("ras_pops"), "count");
        m.put("ras.restores", c("ras_restores"), "count");
        m.put("ras.overflows", c("ras_overflows"), "count");
        m.put("ras.underflows", c("ras_underflows"), "count");
        m.put("ras.budget_misses", c("checkpoint_budget_misses"), "count");
        m.put(
            "ras.return_hit_rate",
            ratio(c("return_hits"), c("returns")),
            "ratio",
        );
        m.put("bpred.cond_branches", c("cond_branches"), "count");
        m.put("bpred.cond_mispredicts", c("cond_mispredictions"), "count");
        m.put(
            "bpred.target_mispredicts",
            c("target_mispredictions"),
            "count",
        );
        m.put("mem.l1i_accesses", c("l1i_accesses"), "count");
        m.put("mem.l1i_hits", c("l1i_hits"), "count");
        m.put("mem.l1d_accesses", c("l1d_accesses"), "count");
        m.put("mem.l1d_hits", c("l1d_hits"), "count");
        m.put(
            "obs.cpi",
            ratio(self.obs_cycles as f64, self.obs_committed as f64),
            "cycles/instr",
        );
        for cause in LostCause::ALL {
            m.put(
                format!("obs.lost_slots.{}", cause.label()),
                self.cpi.get(cause) as f64,
                "count",
            );
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
