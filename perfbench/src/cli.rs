//! Command-line arguments.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Single-path skip-then-measure windows on the baseline core.
    SuiteWindow,
    /// Skip-then-measure windows on multipath cores.
    MultipathWindow,
    /// The quick-size paper reproduction through the engine.
    PaperQuick,
}

impl WorkloadName {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::SuiteWindow,
        WorkloadName::MultipathWindow,
        WorkloadName::PaperQuick,
    ];

    /// The name given to `--workload`.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::SuiteWindow => "suite-window",
            WorkloadName::MultipathWindow => "multipath-window",
            WorkloadName::PaperQuick => "paper-quick",
        }
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run, which reports per-layer metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload suite-window|multipath-window|paper-quick \
                         [--seed N] [--seconds S] [--trace 0|1]";

/// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]`; each
/// flag also accepts the `--flag=value` form.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 12345;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WorkloadName::ALL
                        .into_iter()
                        .find(|w| w.as_str() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_flag_in_both_forms() {
        let a = parse(&args(
            "--workload paper-quick --seed 7 --seconds=3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: WorkloadName::PaperQuick,
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        let d = parse(&args("--workload=suite-window")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (12345, 10.0, false));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload suite-window --seed x",
            "--workload suite-window --seconds 0",
            "--workload suite-window --trace 2",
            "--workload suite-window --bogus",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
