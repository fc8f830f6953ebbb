//! The benchmark's own checks, at tiny sizes: every workload runs
//! clean, injected faults are counted as failures, and the chunked
//! window relies on `Core::run` taking cumulative targets.

use std::path::PathBuf;

use hydra_bench::RunSpec;
use hydra_pipeline::{Core, CoreConfig};
use hydra_workloads::{Workload, WorkloadSpec};
use perfbench::cli::{Args, WorkloadName};
use perfbench::paper::{self, PaperSpec, GOLDEN_SEED};
use perfbench::run::{run_paper, run_window, Outcome};
use perfbench::spans::Tracer;
use perfbench::window::{chunked_run, WindowSpec, CHUNKS};

fn tiny(mut spec: WindowSpec) -> WindowSpec {
    spec.programs = 2;
    spec.copies = 1;
    spec.skip = 5_000;
    spec.window = 3_000;
    spec
}

fn args(workload: WorkloadName, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.001,
        trace,
    }
}

fn assert_clean(out: &Outcome) {
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:#?}", out.failures);
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = hydra_stats::Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The run reports exactly the metrics `BENCHMARK.json` declares for
/// its mode, end-to-end ones never 0.
fn assert_declared(out: &Outcome, traced: bool) {
    let want = declared(if traced { "per_layer" } else { "end_to_end" });
    let got: Vec<String> = out.metrics.rows().iter().map(|r| r.0.clone()).collect();
    let (mut want_sorted, mut got_sorted) = (want.clone(), got);
    want_sorted.sort();
    got_sorted.sort();
    assert_eq!(want_sorted, got_sorted);
    if !traced {
        for name in want {
            let v = out.metrics.get(&name).expect("declared");
            assert!(v > 0.0, "{name} = {v}");
        }
    }
}

#[test]
fn window_workloads_run_clean_and_report_every_metric() {
    for (name, spec) in [
        (WorkloadName::SuiteWindow, tiny(WindowSpec::suite())),
        (WorkloadName::MultipathWindow, tiny(WindowSpec::multipath())),
    ] {
        let out = run_window(&spec, &args(name, 7, false));
        assert_clean(&out);
        assert_eq!(out.attempted, spec.jobs() as u64);
        assert_declared(&out, false);

        let traced = run_window(&spec, &args(name, 7, true));
        assert_clean(&traced);
        // One untraced and one traced pass, compared count for count.
        assert_eq!(traced.attempted, 2 * spec.jobs() as u64);
        assert_declared(&traced, true);
        let m = &traced.metrics;
        assert!(m.get("pipeline.committed").unwrap() >= (spec.jobs() * 3_000) as f64);
        assert!(m.get("pipeline.ns_per_cycle.growth").unwrap() > 0.0);
        assert_eq!(m.get("isa.ff_insts"), Some((spec.jobs() * 5_000) as f64));
        assert!(traced
            .tracer
            .as_ref()
            .is_some_and(|t| !t.spans().is_empty()));
    }
}

#[test]
fn a_wrong_expected_register_is_counted_as_failed() {
    let mut spec = tiny(WindowSpec::suite());
    spec.perturb_expected = true;
    let out = run_window(&spec, &args(WorkloadName::SuiteWindow, 7, false));
    assert_eq!(out.failed, out.attempted);
    assert!(out.failures[0].contains("r1 is"), "{}", out.failures[0]);
}

#[test]
fn run_targets_are_cumulative() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 3).expect("generates");
    let mut core = Core::new(CoreConfig::baseline(), w.program());
    let window = 400 * CHUNKS;
    let chunks = chunked_run(&mut core, window, &mut Tracer::new(false), 0);
    assert_eq!(chunks.len() as u64, CHUNKS);
    let mut prev = 0;
    for (k, (_, stats)) in chunks.iter().enumerate() {
        assert!(stats.cycles > prev, "chunk {k} simulated no cycles");
        assert!(stats.committed >= 400 * (k as u64 + 1));
        prev = stats.cycles;
    }
    // The same target again is already met: run(n) counts commits since
    // the last reset, not commits made by this call.
    assert_eq!(core.run(window).cycles, prev);
}

fn quick_subset(seed: u64, experiments: &[&str], goldens: PathBuf) -> PaperSpec {
    let mut spec = PaperSpec::quick(seed, goldens);
    spec.experiments = experiments.iter().map(|s| s.to_string()).collect();
    spec
}

#[test]
fn paper_quick_matches_the_goldens_and_counts_a_tampered_one() {
    let names = ["table1", "table2"];
    let spec = quick_subset(GOLDEN_SEED, &names, paper::default_goldens());
    let out = run_paper(&spec, &args(WorkloadName::PaperQuick, GOLDEN_SEED, false));
    assert_clean(&out);
    assert_declared(&out, false);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tampered-goldens");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in names {
        let text = std::fs::read_to_string(paper::default_goldens().join(format!("{name}.json")))
            .expect("golden exists");
        let text = if name == "table2" {
            let tampered = text.replacen("\"go\"", "\"og\"", 1);
            assert_ne!(tampered, text);
            tampered
        } else {
            text
        };
        std::fs::write(dir.join(format!("{name}.json")), text).expect("write golden");
    }
    let spec = quick_subset(GOLDEN_SEED, &names, dir);
    let out = run_paper(&spec, &args(WorkloadName::PaperQuick, GOLDEN_SEED, false));
    assert!(out.failed > 0);
    assert!(out.failed < out.attempted, "table1 still passes");
    assert!(
        out.failures.iter().all(|f| f.starts_with("table2")),
        "{:#?}",
        out.failures
    );
}

#[test]
fn paper_quick_elsewhere_reruns_a_sample_and_checks_the_ordering() {
    let mut spec = quick_subset(7, &["fig-repair"], paper::default_goldens());
    spec.run = RunSpec::builder()
        .seed(7)
        .fast_forward(5_000)
        .horizon(20_000)
        .build();
    let out = run_paper(&spec, &args(WorkloadName::PaperQuick, 7, true));
    assert_clean(&out);
    assert_declared(&out, true);
    let m = &out.metrics;
    assert!(m.get("engine.jobs").unwrap() > 0.0);
    assert!(m.get("pipeline.run_s").unwrap() > 0.0);
    assert!(m.get("ras.return_hit_rate").unwrap() > 0.5);
}

#[test]
fn an_inverted_repair_ladder_is_rejected() {
    // Suite means of: no repair, valid bits, TOS pointer, TOS pointer and
    // contents, full stack; the perfect predictor reads 100.
    let doc = |[none, vbits, ptr, contents, full]: [f64; 5]| {
        format!(
            "{{\"table\": {{\"columns\": [\"benchmark\", \"no repair\", \"valid bits\", \
             \"TOS pointer\", \"TOS ptr+contents\", \"full stack\", \"perfect\"], \
             \"rows\": [[\"go\", {none}, {vbits}, {ptr}, {contents}, {full}, 100]]}}}}"
        )
    };
    let ordering = |rates| paper::repair_ordering(&doc(rates));
    assert!(ordering([50.0, 80.0, 90.0, 95.0, 100.0]).is_ok());
    // A rung out of order.
    assert!(ordering([50.0, 80.0, 90.0, 95.0, 80.0]).is_err());
    assert!(ordering([50.0, 40.0, 90.0, 95.0, 100.0]).is_err());
    assert!(ordering([50.0, 99.0, 90.0, 95.0, 100.0]).is_err());
    // Every rung in order, but an absolute floor broken: full stack and
    // contents repair pulled down together, or contents repair too weak.
    assert!(ordering([50.0, 80.0, 90.0, 93.0, 93.0]).is_err());
    assert!(ordering([50.0, 70.0, 80.0, 84.0, 100.0]).is_err());
}
