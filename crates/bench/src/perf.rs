//! The pinned-workload performance harness behind `expt perf`.
//!
//! The experiment layer answers "did the *results* change?"; this module
//! answers "did the *simulator* get slower?". [`measure`] runs a pinned
//! workload set — the eight-benchmark suite on the paper's baseline
//! configuration, serially, in registry order — and reports two numbers
//! per workload:
//!
//! * **simulated MIPS** — millions of committed instructions per second
//!   of host wall time over the measurement window;
//! * **allocations per kilocycle** — heap allocations observed during
//!   the measurement window (fast-forward excluded), per thousand
//!   simulated cycles. The slab-allocated hot loop is designed to hold
//!   this at zero in steady state; a creeping value is an allocation
//!   leaking back into the per-cycle path.
//!
//! The allocation counter is injected by the caller because only a
//! binary can install a `#[global_allocator]` (this library forbids
//! `unsafe`); the `expt` binary passes its counting allocator's reading,
//! tests can pass a stub.
//!
//! [`perf_doc`] projects the report into the `BENCH_perf.json` artifact
//! and [`check_baseline`] gates a fresh run against a committed baseline
//! (`goldens/perf_baseline.json`) with a relative MIPS tolerance —
//! that is CI's "the core did not get 30% slower" tripwire.

use hydra_isa::{FastCore, FunctionalCore, Predecoded};
use hydra_pipeline::CoreConfig;
use hydra_stats::Json;
use std::path::Path;
use std::time::Instant;

use crate::error::Error;
use crate::{suite, RunSpec};

/// Relative simulated-MIPS loss CI tolerates before failing the perf
/// job: measured ≥ (1 − tolerance) × baseline passes. Applied to the
/// cycle-level row and the functional fast-forward row independently.
pub const MIPS_REGRESSION_TOLERANCE: f64 = 0.30;

/// Instructions each workload executes in the fast-forward throughput
/// row (the program restarts as needed to fill the window). Large enough
/// that pre-decode cost and timer resolution vanish, small enough that
/// the whole eight-workload row stays well under a second.
pub const FF_MEASURE_INSTRUCTIONS: u64 = 4_000_000;

/// One workload's measurement.
#[derive(Debug, Clone)]
pub struct PerfSample {
    /// Workload name (suite order is pinned).
    pub workload: String,
    /// Instructions committed in the measurement window.
    pub committed: u64,
    /// Cycles simulated in the measurement window.
    pub cycles: u64,
    /// Host wall time of the measurement window, in seconds.
    pub wall_secs: f64,
    /// Heap allocations during the measurement window.
    pub allocs: u64,
}

impl PerfSample {
    /// Millions of committed instructions per host-second.
    pub fn mips(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.committed as f64 / self.wall_secs / 1e6
        }
    }

    /// Heap allocations per thousand simulated cycles.
    pub fn allocs_per_kilocycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.allocs as f64 * 1e3 / self.cycles as f64
        }
    }
}

/// The full pinned-suite measurement.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-workload samples, in suite order.
    pub samples: Vec<PerfSample>,
}

impl PerfReport {
    /// Suite-wide simulated MIPS (total committed over total wall time).
    pub fn mips(&self) -> f64 {
        let committed: u64 = self.samples.iter().map(|s| s.committed).sum();
        let wall: f64 = self.samples.iter().map(|s| s.wall_secs).sum();
        if wall <= 0.0 {
            0.0
        } else {
            committed as f64 / wall / 1e6
        }
    }

    /// Suite-wide allocations per kilocycle.
    pub fn allocs_per_kilocycle(&self) -> f64 {
        let allocs: u64 = self.samples.iter().map(|s| s.allocs).sum();
        let cycles: u64 = self.samples.iter().map(|s| s.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            allocs as f64 * 1e3 / cycles as f64
        }
    }

    /// Renders the report as the table `expt perf` prints.
    pub fn to_table(&self) -> hydra_stats::Table {
        use hydra_stats::{Align, Cell, Table};
        let mut t = Table::new(vec![
            "workload",
            "committed",
            "cycles",
            "wall (ms)",
            "sim MIPS",
            "allocs/kcycle",
        ]);
        t.set_title("perf: pinned suite, baseline config, serial");
        for col in 1..=5 {
            t.set_align(col, Align::Right);
        }
        for s in &self.samples {
            t.add_row(vec![
                Cell::text(&s.workload),
                Cell::int(s.committed),
                Cell::int(s.cycles),
                Cell::text(format!("{:.1}", s.wall_secs * 1e3)),
                Cell::text(format!("{:.3}", s.mips())),
                Cell::text(format!("{:.3}", s.allocs_per_kilocycle())),
            ]);
        }
        t.add_row(vec![
            Cell::text("total"),
            Cell::int(self.samples.iter().map(|s| s.committed).sum::<u64>()),
            Cell::int(self.samples.iter().map(|s| s.cycles).sum::<u64>()),
            Cell::text(format!(
                "{:.1}",
                self.samples.iter().map(|s| s.wall_secs).sum::<f64>() * 1e3
            )),
            Cell::text(format!("{:.3}", self.mips())),
            Cell::text(format!("{:.3}", self.allocs_per_kilocycle())),
        ]);
        t
    }
}

/// One workload's functional fast-forward measurement.
#[derive(Debug, Clone)]
pub struct FfSample {
    /// Workload name (suite order is pinned).
    pub workload: String,
    /// Instructions executed on the functional core.
    pub instructions: u64,
    /// Host wall time, in seconds (includes the one-time pre-decode).
    pub wall_secs: f64,
}

impl FfSample {
    /// Millions of functionally executed instructions per host-second.
    pub fn mips(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.wall_secs / 1e6
        }
    }
}

/// The functional fast-forward throughput row: how fast the pre-decoded
/// [`FastCore`] burns through instructions, per workload and suite-wide.
///
/// This is the rate that bounds fast-forward windows, `RefSim`-checked
/// fuzz cases, and workload profiling — everything architectural. It is
/// measured separately from the cycle-level row because the two regress
/// for unrelated reasons (a dispatch-loop pessimization would be
/// invisible in cycle-level MIPS, and vice versa).
#[derive(Debug, Clone)]
pub struct FfReport {
    /// Per-workload samples, in suite order.
    pub samples: Vec<FfSample>,
}

impl FfReport {
    /// Suite-wide fast-forward MIPS (total instructions over total wall
    /// time).
    pub fn mips(&self) -> f64 {
        let instructions: u64 = self.samples.iter().map(|s| s.instructions).sum();
        let wall: f64 = self.samples.iter().map(|s| s.wall_secs).sum();
        if wall <= 0.0 {
            0.0
        } else {
            instructions as f64 / wall / 1e6
        }
    }

    /// Renders the fast-forward table `expt perf` prints.
    pub fn to_table(&self) -> hydra_stats::Table {
        use hydra_stats::{Align, Cell, Table};
        let mut t = Table::new(vec!["workload", "instructions", "wall (ms)", "ff MIPS"]);
        t.set_title("perf: functional fast-forward (pre-decoded core), serial");
        for col in 1..=3 {
            t.set_align(col, Align::Right);
        }
        for s in &self.samples {
            t.add_row(vec![
                Cell::text(&s.workload),
                Cell::int(s.instructions),
                Cell::text(format!("{:.1}", s.wall_secs * 1e3)),
                Cell::text(format!("{:.1}", s.mips())),
            ]);
        }
        t.add_row(vec![
            Cell::text("total"),
            Cell::int(self.samples.iter().map(|s| s.instructions).sum::<u64>()),
            Cell::text(format!(
                "{:.1}",
                self.samples.iter().map(|s| s.wall_secs).sum::<f64>() * 1e3
            )),
            Cell::text(format!("{:.1}", self.mips())),
        ]);
        t
    }
}

/// Measures functional fast-forward throughput: each suite workload runs
/// `instructions` instructions on the pre-decoded core, restarting the
/// program whenever it halts so the window is always full. The one-time
/// pre-decode is inside the timed region (it is part of what a
/// fast-forward pays) but amortizes to noise over millions of
/// instructions.
pub fn measure_fast_forward(rs: &RunSpec, instructions: u64) -> FfReport {
    let mut samples = Vec::new();
    for w in suite(rs) {
        let program = w.program();
        let t0 = Instant::now();
        let pre = Predecoded::new(program);
        let mut core = FastCore::with_predecoded(program, pre.clone());
        let mut remaining = instructions;
        while remaining > 0 {
            let done = core
                .advance(remaining)
                .expect("generated workloads do not fault");
            remaining -= done;
            if core.is_halted() && remaining > 0 {
                core = FastCore::with_predecoded(program, pre.clone());
            }
        }
        samples.push(FfSample {
            workload: w.name().to_string(),
            instructions,
            wall_secs: t0.elapsed().as_secs_f64(),
        });
    }
    FfReport { samples }
}

/// Runs the pinned workload set serially and measures each workload's
/// measurement window.
///
/// `alloc_count` returns the process-wide allocation count; the window's
/// delta is attributed to the workload (the harness itself allocates
/// nothing between readings). Serial execution keeps the attribution
/// exact — worker threads would interleave their allocations.
pub fn measure(rs: &RunSpec, alloc_count: &dyn Fn() -> u64) -> PerfReport {
    let config = CoreConfig::baseline();
    let mut samples = Vec::new();
    for w in suite(rs) {
        let mut core = hydra_pipeline::Core::new(config, w.program());
        core.run(rs.fast_forward);
        core.reset_stats();
        let allocs_before = alloc_count();
        let t0 = Instant::now();
        let stats = core.run(rs.horizon);
        let wall_secs = t0.elapsed().as_secs_f64();
        samples.push(PerfSample {
            workload: w.name().to_string(),
            committed: stats.committed,
            cycles: stats.cycles,
            wall_secs,
            allocs: alloc_count() - allocs_before,
        });
    }
    PerfReport { samples }
}

/// The `BENCH_perf.json` document: per-workload throughput and
/// allocation rates plus suite totals for the cycle-level row, and the
/// functional fast-forward row with its speedup over cycle-level
/// simulation. Wall-clock fields carry the golden differ's `_ms`/`mips`
/// timing markers; `allocs_per_kilocycle` is deterministic for a
/// deterministic simulator.
pub fn perf_doc(rs: &RunSpec, report: &PerfReport, ff: &FfReport) -> Json {
    Json::obj([
        ("schema_version", Json::int(crate::SCHEMA_VERSION)),
        (
            "run",
            Json::obj([
                ("seed", Json::int(rs.seed)),
                ("fast_forward", Json::int(rs.fast_forward)),
                ("horizon", Json::int(rs.horizon)),
            ]),
        ),
        (
            "workloads",
            Json::arr(report.samples.iter().map(|s| {
                Json::obj([
                    ("workload", Json::str(&s.workload)),
                    ("committed", Json::int(s.committed)),
                    ("cycles", Json::int(s.cycles)),
                    ("wall_ms", Json::num(s.wall_secs * 1e3)),
                    ("sim_mips", Json::num(s.mips())),
                    ("allocs", Json::int(s.allocs)),
                    ("allocs_per_kilocycle", Json::num(s.allocs_per_kilocycle())),
                ])
            })),
        ),
        (
            "total",
            Json::obj([
                ("sim_mips", Json::num(report.mips())),
                (
                    "allocs_per_kilocycle",
                    Json::num(report.allocs_per_kilocycle()),
                ),
            ]),
        ),
        (
            "fast_forward",
            Json::obj([
                (
                    "instructions_per_workload",
                    Json::int(ff.samples.first().map(|s| s.instructions).unwrap_or(0)),
                ),
                (
                    "workloads",
                    Json::arr(ff.samples.iter().map(|s| {
                        Json::obj([
                            ("workload", Json::str(&s.workload)),
                            ("instructions", Json::int(s.instructions)),
                            ("wall_ms", Json::num(s.wall_secs * 1e3)),
                            ("ff_mips", Json::num(s.mips())),
                        ])
                    })),
                ),
                (
                    "total",
                    Json::obj([
                        ("ff_mips", Json::num(ff.mips())),
                        (
                            "speedup_vs_pipeline_mips",
                            Json::num(if report.mips() > 0.0 {
                                ff.mips() / report.mips()
                            } else {
                                0.0
                            }),
                        ),
                    ]),
                ),
            ]),
        ),
    ])
}

/// Reads `total.sim_mips` out of a `BENCH_perf.json`-shaped document.
fn total_mips(doc: &Json) -> Option<f64> {
    doc.get("total")?.get("sim_mips").and_then(Json::as_num)
}

/// Reads `fast_forward.total.ff_mips` out of a `BENCH_perf.json`-shaped
/// document.
fn total_ff_mips(doc: &Json) -> Option<f64> {
    doc.get("fast_forward")?
        .get("total")?
        .get("ff_mips")
        .and_then(Json::as_num)
}

/// Reads the `run` block (seed, fast_forward, horizon) out of a
/// `BENCH_perf.json`-shaped document, rendered for comparison and error
/// messages.
fn run_spec(doc: &Json) -> Option<String> {
    let run = doc.get("run")?;
    let field = |key| run.get(key).and_then(Json::as_num);
    Some(format!(
        "seed={}, fast_forward={}, horizon={}",
        field("seed")?,
        field("fast_forward")?,
        field("horizon")?
    ))
}

/// Gates a fresh perf document against the committed baseline at
/// `path`: measured MIPS must be at least
/// `(1 - tolerance) × baseline MIPS`.
///
/// The two documents must come from the same run spec: throughput
/// depends on the window (a long run warms caches and predictors a
/// short one never reaches), so a baseline whose `run` block differs
/// from the fresh run's is refused rather than compared.
///
/// Both throughput rows are gated independently: `total.sim_mips`
/// (cycle-level) always, and `fast_forward.total.ff_mips` whenever the
/// baseline carries one — so a dispatch-loop pessimization in the
/// functional core fails CI even though it would be invisible in
/// cycle-level MIPS.
///
/// # Errors
///
/// [`Error::Io`] if the baseline is unreadable, [`Error::Usage`] if
/// either document lacks a row the comparison needs or the two `run`
/// blocks differ, and
/// [`Error::PerfRegression`] when a measured throughput falls below its
/// tolerated floor.
pub fn check_baseline(fresh: &Json, path: &Path, tolerance: f64) -> Result<(), Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|io| Error::io(format!("reading {}", path.display()), io))?;
    let baseline_doc = Json::parse(&text)
        .map_err(|e| Error::Usage(format!("{}: invalid JSON: {e}", path.display())))?;
    let baseline = total_mips(&baseline_doc)
        .ok_or_else(|| Error::Usage(format!("{}: no total.sim_mips", path.display())))?;
    let measured =
        total_mips(fresh).ok_or_else(|| Error::Usage("fresh run: no total.sim_mips".into()))?;
    let spec = run_spec(fresh).ok_or_else(|| Error::Usage("fresh run: no run block".into()))?;
    match run_spec(&baseline_doc) {
        Some(pinned) if pinned == spec => {}
        pinned => {
            return Err(Error::Usage(format!(
                "{}: baseline run ({}) does not match this run ({spec}); \
                 gate against a baseline measured with the same run spec",
                path.display(),
                pinned.as_deref().unwrap_or("no run block"),
            )))
        }
    }
    if measured < baseline * (1.0 - tolerance) {
        return Err(Error::PerfRegression {
            measured_mips: measured,
            baseline_mips: baseline,
            tolerance,
        });
    }
    if let Some(ff_baseline) = total_ff_mips(&baseline_doc) {
        let ff_measured = total_ff_mips(fresh)
            .ok_or_else(|| Error::Usage("fresh run: no fast_forward.total.ff_mips".into()))?;
        if ff_measured < ff_baseline * (1.0 - tolerance) {
            return Err(Error::PerfRegression {
                measured_mips: ff_measured,
                baseline_mips: ff_baseline,
                tolerance,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunSpec {
        RunSpec {
            seed: 7,
            fast_forward: 200,
            horizon: 2_000,
        }
    }

    fn fake(committed: u64, wall_secs: f64, allocs: u64, cycles: u64) -> PerfReport {
        PerfReport {
            samples: vec![PerfSample {
                workload: "w".into(),
                committed,
                cycles,
                wall_secs,
                allocs,
            }],
        }
    }

    fn fake_ff(instructions: u64, wall_secs: f64) -> FfReport {
        FfReport {
            samples: vec![FfSample {
                workload: "w".into(),
                instructions,
                wall_secs,
            }],
        }
    }

    #[test]
    fn measure_covers_the_whole_suite() {
        let rs = tiny();
        let report = measure(&rs, &|| 0);
        assert_eq!(report.samples.len(), 8);
        for s in &report.samples {
            assert!(s.committed >= rs.horizon, "{}: {}", s.workload, s.committed);
            assert!(s.cycles > 0);
        }
        assert!(report.mips() > 0.0);
    }

    #[test]
    fn rates_come_out_right() {
        let r = fake(2_000_000, 1.0, 500, 1_000_000);
        assert!((r.mips() - 2.0).abs() < 1e-9);
        assert!((r.allocs_per_kilocycle() - 0.5).abs() < 1e-9);
        assert_eq!(fake(1, 0.0, 0, 0).mips(), 0.0);
    }

    #[test]
    fn doc_carries_totals_and_baseline_gate_works() {
        let rs = tiny();
        let ff = fake_ff(100_000_000, 1.0);
        let doc = perf_doc(&rs, &fake(2_000_000, 1.0, 0, 1_000_000), &ff);
        assert_eq!(total_mips(&doc), Some(2.0));
        assert_eq!(total_ff_mips(&doc), Some(100.0));
        assert_eq!(
            doc.get("fast_forward")
                .and_then(|f| f.get("total"))
                .and_then(|t| t.get("speedup_vs_pipeline_mips"))
                .and_then(Json::as_num),
            Some(50.0)
        );

        let dir = std::env::temp_dir().join("hydra_perf_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf_baseline.json");
        std::fs::write(&path, doc.pretty()).unwrap();

        // Same speed: passes. 2× faster: passes. 2× slower: fails.
        check_baseline(&doc, &path, MIPS_REGRESSION_TOLERANCE).unwrap();
        let fast = perf_doc(&rs, &fake(4_000_000, 1.0, 0, 1_000_000), &ff);
        check_baseline(&fast, &path, MIPS_REGRESSION_TOLERANCE).unwrap();
        let slow = perf_doc(&rs, &fake(1_000_000, 1.0, 0, 1_000_000), &ff);
        let err = check_baseline(&slow, &path, MIPS_REGRESSION_TOLERANCE).unwrap_err();
        assert!(err.to_string().contains("regress"), "{err}");
    }

    #[test]
    fn ff_row_is_gated_independently() {
        let rs = tiny();
        let pipeline = fake(2_000_000, 1.0, 0, 1_000_000);
        let baseline = perf_doc(&rs, &pipeline, &fake_ff(100_000_000, 1.0));
        let dir = std::env::temp_dir().join("hydra_perf_ff_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf_baseline.json");
        std::fs::write(&path, baseline.pretty()).unwrap();

        // Same pipeline MIPS but a 2× slower fast-forward row: fails,
        // carrying the ff numbers.
        let ff_slow = perf_doc(&rs, &pipeline, &fake_ff(50_000_000, 1.0));
        match check_baseline(&ff_slow, &path, MIPS_REGRESSION_TOLERANCE) {
            Err(Error::PerfRegression {
                measured_mips,
                baseline_mips,
                ..
            }) => {
                assert!((measured_mips - 50.0).abs() < 1e-9);
                assert!((baseline_mips - 100.0).abs() < 1e-9);
            }
            other => panic!("expected PerfRegression, got {other:?}"),
        }

        // A fresh doc with no ff row against an ff-carrying baseline is
        // a usage error, not a silent pass.
        let mut hollow = perf_doc(&rs, &pipeline, &fake_ff(100_000_000, 1.0));
        hollow = Json::parse(
            &hollow
                .pretty()
                .replace("\"fast_forward\": {", "\"fast_forward_renamed\": {"),
        )
        .unwrap();
        match check_baseline(&hollow, &path, MIPS_REGRESSION_TOLERANCE) {
            Err(Error::Usage(msg)) => assert!(msg.contains("ff_mips"), "{msg}"),
            other => panic!("expected Usage, got {other:?}"),
        }

        // An old-style baseline without an ff row gates only the
        // pipeline MIPS.
        let old_path = dir.join("old_baseline.json");
        std::fs::write(
            &old_path,
            "{\"run\": {\"seed\": 7, \"fast_forward\": 200, \"horizon\": 2000}, \
             \"total\": {\"sim_mips\": 2.0}}",
        )
        .unwrap();
        let ff_free = perf_doc(&rs, &pipeline, &fake_ff(1, 1.0));
        check_baseline(&ff_free, &old_path, MIPS_REGRESSION_TOLERANCE).unwrap();
    }

    #[test]
    fn ff_measurement_fills_the_window_exactly() {
        // The window is exact whether or not a workload halts inside it
        // (halting programs restart until the budget is spent).
        let rs = tiny();
        let report = measure_fast_forward(&rs, 300_000);
        assert_eq!(report.samples.len(), 8);
        for s in &report.samples {
            assert_eq!(s.instructions, 300_000, "{}", s.workload);
            assert!(s.mips() > 0.0);
        }
        let table = report.to_table().to_string();
        assert!(table.contains("ff MIPS"), "{table}");
    }

    #[test]
    fn baseline_gate_failure_carries_the_numbers() {
        let rs = tiny();
        let dir = std::env::temp_dir().join("hydra_perf_baseline_failure_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf_baseline.json");
        let baseline = perf_doc(
            &rs,
            &fake(2_000_000, 1.0, 0, 1_000_000),
            &fake_ff(100_000_000, 1.0),
        );
        std::fs::write(&path, baseline.pretty()).unwrap();

        let slow = perf_doc(
            &rs,
            &fake(1_000_000, 1.0, 0, 1_000_000),
            &fake_ff(100_000_000, 1.0),
        );
        match check_baseline(&slow, &path, MIPS_REGRESSION_TOLERANCE) {
            Err(Error::PerfRegression {
                measured_mips,
                baseline_mips,
                tolerance,
            }) => {
                assert!((measured_mips - 1.0).abs() < 1e-9);
                assert!((baseline_mips - 2.0).abs() < 1e-9);
                assert!((tolerance - MIPS_REGRESSION_TOLERANCE).abs() < 1e-9);
            }
            other => panic!("expected PerfRegression, got {other:?}"),
        }
    }

    #[test]
    fn baseline_gate_rejects_a_mismatched_run_spec() {
        let rs = tiny();
        let dir = std::env::temp_dir().join("hydra_perf_baseline_run_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf_baseline.json");
        let report = fake(2_000_000, 1.0, 0, 1_000_000);
        let ff = fake_ff(100_000_000, 1.0);
        std::fs::write(&path, perf_doc(&rs, &report, &ff).pretty()).unwrap();

        // Same speed, but a longer window, another seed or another
        // fast-forward: each is a usage error naming both specs, never a
        // pass or a regression verdict.
        for other in [
            RunSpec {
                horizon: 1_000_000,
                ..rs
            },
            RunSpec { seed: 8, ..rs },
            RunSpec {
                fast_forward: 100,
                ..rs
            },
        ] {
            let fresh = perf_doc(&other, &report, &ff);
            match check_baseline(&fresh, &path, MIPS_REGRESSION_TOLERANCE) {
                Err(Error::Usage(msg)) => {
                    assert!(msg.contains("horizon=2000"), "{msg}");
                    assert!(msg.contains(&format!("horizon={}", other.horizon)), "{msg}");
                }
                got => panic!("expected Usage, got {got:?}"),
            }
        }

        // A baseline without a run block cannot be matched either.
        let bare = dir.join("bare.json");
        std::fs::write(&bare, "{\"total\": {\"sim_mips\": 2.0}}").unwrap();
        match check_baseline(
            &perf_doc(&rs, &report, &ff),
            &bare,
            MIPS_REGRESSION_TOLERANCE,
        ) {
            Err(Error::Usage(msg)) => assert!(msg.contains("no run block"), "{msg}"),
            got => panic!("expected Usage, got {got:?}"),
        }
    }

    #[test]
    fn baseline_gate_reports_unusable_baselines_distinctly() {
        let rs = tiny();
        let fresh = perf_doc(
            &rs,
            &fake(2_000_000, 1.0, 0, 1_000_000),
            &fake_ff(100_000_000, 1.0),
        );
        let dir = std::env::temp_dir().join("hydra_perf_baseline_unusable_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file: an I/O error naming the path.
        let missing = dir.join("nope.json");
        match check_baseline(&fresh, &missing, MIPS_REGRESSION_TOLERANCE) {
            Err(Error::Io { what, .. }) => assert!(what.contains("nope.json"), "{what}"),
            other => panic!("expected Io, got {other:?}"),
        }

        // Unparseable file: a usage error, not a panic.
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{not json").unwrap();
        assert!(matches!(
            check_baseline(&fresh, &garbled, MIPS_REGRESSION_TOLERANCE),
            Err(Error::Usage(_))
        ));

        // Valid JSON without total.sim_mips: also a usage error.
        let hollow = dir.join("hollow.json");
        std::fs::write(&hollow, "{\"total\": {}}").unwrap();
        match check_baseline(&fresh, &hollow, MIPS_REGRESSION_TOLERANCE) {
            Err(Error::Usage(msg)) => assert!(msg.contains("sim_mips"), "{msg}"),
            other => panic!("expected Usage, got {other:?}"),
        }
    }
}
