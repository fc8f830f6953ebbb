//! The two window workloads: `suite-window` and `multipath-window`.
//!
//! Each job is one (suite program, core config) pair run serially, the
//! paper's skip-then-measure method: [`Core::fast_forward`] skips a long
//! stretch functionally, leaving caches, predictors and the RAS cold,
//! then a cycle-level [`Core::run`] window is measured. The window is
//! run in chunks so host time per simulated cycle can be compared
//! between its first and last tenth.
//!
//! A pass has a set-up phase (generate, `Core::new`), the measured phase
//! (every job's skip and window) and a check phase that the timings
//! exclude: a [`FastCore`] advanced by skipped + committed instructions
//! must hold the same architectural registers as the core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hydra_bench::experiments::suite_specs;
use hydra_bench::RunSpec;
use hydra_isa::{FastCore, FunctionalCore, Predecoded, Reg};
use hydra_pipeline::{Core, CoreConfig, CpiStack, SimStats};
use hydra_workloads::Workload;
use ras_core::{MultipathStackPolicy, RepairPolicy};

use crate::alloc::allocations;
use crate::spans::Tracer;

/// Seed distance between copies of one suite program; far from the
/// `0x9e37_79b9` stride that separates the suite programs themselves.
const COPY_STRIDE: u64 = 0x5851_f42d_4c95_7f2d;

/// Pieces each window is run in; growth compares the last to the first.
pub const CHUNKS: u64 = 10;

/// Sizing and machine configurations of a window workload.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// How many suite programs to run, in suite order.
    pub programs: usize,
    /// Programs generated per suite program, each from its own seed.
    pub copies: usize,
    /// Machine configurations, each run on every program.
    pub configs: Vec<(&'static str, CoreConfig)>,
    /// Instructions skipped functionally before the window.
    pub skip: u64,
    /// Instructions committed in the cycle-level window.
    pub window: u64,
    /// Flips a bit of one expected register in the check phase, so a
    /// test can show that a wrong register is counted as a failure.
    pub perturb_expected: bool,
}

impl WindowSpec {
    /// `suite-window`: the eight suite programs on the baseline core.
    pub fn suite() -> Self {
        WindowSpec {
            programs: 8,
            copies: 1,
            configs: vec![("baseline", CoreConfig::baseline())],
            skip: 30_000_000,
            window: 500_000,
            perturb_expected: false,
        }
    }

    /// `multipath-window`: four programs per suite program on 2- and
    /// 4-path cores with a unified (TOS pointer and contents repair) and
    /// a per-path stack. Host time per cycle grows with the window here,
    /// and job time with how often a program forks, so many short
    /// windows are run rather than a few long ones: that keeps the
    /// growth visible while averaging out which programs a seed makes.
    pub fn multipath() -> Self {
        let unified = MultipathStackPolicy::Unified {
            repair: RepairPolicy::TosPointerAndContents,
        };
        let per_path = MultipathStackPolicy::PerPath;
        WindowSpec {
            programs: 8,
            copies: 4,
            configs: vec![
                ("2p-unified", CoreConfig::multipath(2, unified)),
                ("4p-unified", CoreConfig::multipath(4, unified)),
                ("2p-per-path", CoreConfig::multipath(2, per_path)),
                ("4p-per-path", CoreConfig::multipath(4, per_path)),
            ],
            skip: 2_000_000,
            window: 10_000,
            perturb_expected: false,
        }
    }

    /// Jobs per pass.
    pub fn jobs(&self) -> usize {
        self.programs * self.copies * self.configs.len()
    }
}

/// What one job measured.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// `"<program> × <config>"`.
    pub label: String,
    /// Instructions the functional skip retired.
    pub skipped: u64,
    /// Window statistics.
    pub stats: SimStats,
    /// Window lost-slot accounting.
    pub cpi: CpiStack,
    /// Architectural registers after the window.
    pub regs: Vec<i64>,
    /// Host seconds in [`Core::fast_forward`].
    pub ff_s: f64,
    /// Host seconds in [`Core::run`], all chunks.
    pub run_s: f64,
    /// Host seconds of the whole job (skip and window).
    pub job_s: f64,
    /// Host seconds of each chunk.
    pub chunk_s: Vec<f64>,
    /// Simulated cycles of each chunk.
    pub chunk_cycles: Vec<u64>,
    /// Heap allocations made during the window.
    pub allocs: u64,
}

impl JobResult {
    /// Whether two runs of the job simulated the same thing: every
    /// count and register, ignoring host timings.
    pub fn same_simulation(&self, other: &JobResult) -> bool {
        self.skipped == other.skipped
            && self.stats == other.stats
            && self.cpi == other.cpi
            && self.regs == other.regs
            && self.chunk_cycles == other.chunk_cycles
    }
}

/// One pass over every job.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the set-up phase.
    pub setup_s: f64,
    /// Of which in [`Workload::generate`].
    pub generate_s: f64,
    /// Of which in [`Core::new`].
    pub core_new_s: f64,
    /// Host seconds in [`Predecoded::new`] for the check phase's
    /// functional cores; 0 when the pass was not checked.
    pub predecode_s: f64,
    /// Static instructions over the generated programs.
    pub static_insts: u64,
    /// Host seconds of the measured phase: the sum of its jobs' times.
    pub wall_s: f64,
    /// Each job's result, or why it failed (a panic, a window that
    /// ended early, or a register the functional check disagrees with).
    pub jobs: Vec<Result<JobResult, String>>,
}

/// Runs `window` committed instructions in [`CHUNKS`] calls to
/// [`Core::run`] and returns each call's duration with the statistics
/// after it.
///
/// `run(n)` stops once `n` instructions have committed since the last
/// `reset_stats` (or since the core was built), not after `n` more, so
/// the targets passed are cumulative.
pub fn chunked_run(
    core: &mut Core,
    window: u64,
    tracer: &mut Tracer,
    job: u32,
) -> Vec<(f64, SimStats)> {
    (1..=CHUNKS)
        .map(|k| {
            let target = window * k / CHUNKS;
            let (stats, took) = tracer.span("pipeline.run", Some(job), |_| core.run(target));
            (took.as_secs_f64(), stats)
        })
        .collect()
}

/// A pass's inputs: the generated programs and one fresh core per job.
pub struct Setup {
    workloads: Vec<Workload>,
    cores: Vec<Core>,
    labels: Vec<String>,
    /// Host seconds of the whole set-up phase.
    pub setup_s: f64,
    /// Of which in [`Workload::generate`].
    pub generate_s: f64,
    /// Of which in [`Core::new`].
    pub core_new_s: f64,
}

/// The set-up phase: generates the programs of workload `seed` and
/// builds a core per job.
pub fn setup(spec: &WindowSpec, seed: u64, tracer: &mut Tracer) -> Setup {
    let rs = RunSpec::builder().seed(seed).build();
    let specs = &suite_specs(&rs)[..spec.programs];
    let (mut setup, took) = tracer.span("setup", None, |t| {
        let mut s = Setup {
            workloads: Vec::new(),
            cores: Vec::new(),
            labels: Vec::new(),
            setup_s: 0.0,
            generate_s: 0.0,
            core_new_s: 0.0,
        };
        for ((ws, seed), copy) in specs
            .iter()
            .flat_map(|s| (0..spec.copies as u64).map(move |c| (s, c)))
        {
            let seed = seed.wrapping_add(copy.wrapping_mul(COPY_STRIDE));
            let (w, d) = t.span("workloads.generate", None, |_| {
                Workload::generate(ws, seed).expect("suite specs generate")
            });
            s.generate_s += d.as_secs_f64();
            for (tag, config) in &spec.configs {
                let (core, d) = t.span("pipeline.core_new", None, |_| {
                    Core::new(*config, w.program())
                });
                s.core_new_s += d.as_secs_f64();
                s.cores.push(core);
                s.labels.push(format!("{}#{copy} × {tag}", w.name()));
            }
            s.workloads.push(w);
        }
        s
    });
    setup.setup_s = took.as_secs_f64();
    setup
}

/// Runs one pass of `spec` for workload `seed`; the check phase runs
/// when `check` is set. `between` is called after each job with its host
/// seconds, outside the pass's timing.
pub fn run_pass(
    spec: &WindowSpec,
    seed: u64,
    check: bool,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(f64),
) -> Pass {
    let Setup {
        workloads,
        cores,
        labels,
        setup_s,
        generate_s,
        core_new_s,
    } = setup(spec, seed, tracer);

    let mut wall_s = 0.0;
    let (mut jobs, _) = tracer.span("measure", None, |t| {
        cores
            .into_iter()
            .zip(&labels)
            .map(|(core, label)| {
                let id = t.job(|| label.clone());
                let start = Instant::now();
                let job = run_job(spec, core, label, t, id);
                let took = start.elapsed().as_secs_f64();
                wall_s += took;
                between(took);
                job
            })
            .collect::<Vec<_>>()
    });

    let mut predecode_s = 0.0;
    if check {
        tracer.span("check", None, |t| {
            let images: Vec<Predecoded> = workloads
                .iter()
                .map(|w| {
                    let (pre, d) = t.span("isa.predecode", None, |_| Predecoded::new(w.program()));
                    predecode_s += d.as_secs_f64();
                    pre
                })
                .collect();
            for (i, job) in jobs.iter_mut().enumerate() {
                let program = i / spec.configs.len();
                if let Ok(r) = job {
                    let pre = images[program].clone();
                    let (verdict, _) = t.span("isa.advance", None, |_| {
                        check_registers(&workloads[program], pre, r, spec.perturb_expected)
                    });
                    if let Err(why) = verdict {
                        *job = Err(why);
                    }
                }
            }
        });
    }

    Pass {
        setup_s,
        generate_s,
        core_new_s,
        predecode_s,
        static_insts: workloads.iter().map(|w| w.program().len() as u64).sum(),
        wall_s,
        jobs,
    }
}

fn run_job(
    spec: &WindowSpec,
    mut core: Core,
    label: &str,
    tracer: &mut Tracer,
    id: u32,
) -> Result<JobResult, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tracer.span("job", Some(id), |t| {
            let (skipped, ff) = t.span("isa.fast_forward", Some(id), |_| {
                core.fast_forward(spec.skip)
            });
            let allocs_before = allocations();
            let chunks = chunked_run(&mut core, spec.window, t, id);
            let allocs = allocations() - allocs_before;
            (skipped, ff, chunks, allocs)
        })
    }));
    let ((skipped, ff, chunks, allocs), job) = match outcome {
        Ok(v) => v,
        Err(_) => return Err(format!("{label}: panicked")),
    };
    let stats = core.stats();
    if stats.committed < spec.window {
        return Err(format!(
            "{label}: window ended early at {} of {} commits",
            stats.committed, spec.window
        ));
    }
    let mut prev = 0;
    let chunk_cycles = chunks
        .iter()
        .map(|(_, s)| {
            let c = s.cycles - prev;
            prev = s.cycles;
            c
        })
        .collect();
    Ok(JobResult {
        label: label.to_string(),
        skipped,
        stats,
        cpi: *core.cpi_stack(),
        regs: (0..Reg::COUNT as u8)
            .map(|r| core.arch_reg(Reg::gpr(r)))
            .collect(),
        ff_s: ff.as_secs_f64(),
        run_s: chunks.iter().map(|c| c.0).sum(),
        job_s: job.as_secs_f64(),
        chunk_s: chunks.iter().map(|c| c.0).collect(),
        chunk_cycles,
        allocs,
    })
}

/// Advances a functional core by the job's skipped + committed
/// instructions and compares every architectural register.
fn check_registers(
    w: &Workload,
    pre: Predecoded,
    r: &JobResult,
    perturb: bool,
) -> Result<(), String> {
    let mut fc = FastCore::with_predecoded(w.program(), pre);
    let n = r.skipped + r.stats.committed;
    let done = fc
        .advance(n)
        .map_err(|e| format!("{}: functional check faulted: {e}", r.label))?;
    if done != n {
        return Err(format!(
            "{}: functional check halted after {done} of {n} instructions",
            r.label
        ));
    }
    for (i, &got) in r.regs.iter().enumerate() {
        let mut want = fc.reg(Reg::gpr(i as u8));
        if perturb && i == 1 {
            want ^= 1;
        }
        if got != want {
            return Err(format!(
                "{}: r{i} is {got} after the window, functional core has {want}",
                r.label
            ));
        }
    }
    Ok(())
}
