//! Host-speed calibration: a fixed [`FastCore`] kernel whose work does
//! not depend on the seed or the workload, timed at the start and the
//! end of every run. It shows host-speed drift beside every timing.

use std::time::Instant;

use hydra_isa::{FastCore, FunctionalCore};
use hydra_workloads::{Workload, WorkloadSpec};

/// Instructions the kernel executes.
const KERNEL_INSTS: u64 = 10_000_000;

/// Millions of instructions per second the kernel ran at.
pub fn calib_mips() -> f64 {
    let spec = WorkloadSpec::by_name("li").expect("li is a suite program");
    let w = Workload::generate(&spec, 12345).expect("suite specs generate");
    let mut fc = FastCore::new(w.program());
    let t0 = Instant::now();
    let done = fc
        .advance(KERNEL_INSTS)
        .expect("suite programs do not fault");
    done as f64 / t0.elapsed().as_secs_f64() / 1e6
}
