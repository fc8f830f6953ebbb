//! `perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints notes, then one JSON result line last:
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `perfbench/out/spans-<workload>-<seed>.json`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::cli;
use perfbench::metrics::result_line;
use perfbench::run::run;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for why in &outcome.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    if let Some(tracer) = &outcome.tracer {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                tracer
                    .to_json(args.workload.as_str(), args.seed)
                    .to_string(),
            )
        });
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for row in tracer.self_times() {
            println!(
                "span {:<22} count {:>6}  total {:>10.4} s  self {:>10.4} s",
                row.name, row.count, row.total_s, row.self_s
            );
        }
    }
    println!(
        "{} seed {} {}: attempted {}, failed {}, failed_frac {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in outcome.metrics.rows() {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
