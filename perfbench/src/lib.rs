//! The repository benchmark: end-to-end and per-layer measurements of
//! the HydraScalar simulator on three closed-loop workloads.
//!
//! * `suite-window` — the eight suite programs on the baseline
//!   single-path core: a long functional skip, then a long cycle-level
//!   window from a cold microarchitecture ([`window`]).
//! * `multipath-window` — the same skip-then-measure method on 2- and
//!   4-path multipath cores with unified and per-path stacks
//!   ([`window`]).
//! * `paper-quick` — every registry experiment except `fig-multipath`
//!   at quick size through the parallel engine, harvested and diffed
//!   against the committed goldens ([`paper`]).
//!
//! Every layer is measured from outside, by timing calls into the
//! crates' public functions ([`spans`]); no simulator code is changed.
//! `perfbench/README.md` maps each layer metric to the end-to-end
//! metric it should move.

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod components;
pub mod metrics;
pub mod paper;
pub mod run;
pub mod spans;
pub mod summary;
pub mod window;
