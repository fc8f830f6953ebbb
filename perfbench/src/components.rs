//! Component rows: host nanoseconds per operation of the RAS, the branch
//! predictors and a cache, timed in isolation through their public APIs
//! (the operations `crates/bench/benches/component_microbench.rs` covers).

use std::hint::black_box;
use std::time::Instant;

use hydra_bpred::{Btb, BtbConfig, HybridConfig, HybridPredictor};
use hydra_isa::Addr;
use hydra_mem::{Cache, CacheConfig};
use ras_core::{RepairPolicy, ReturnAddressStack};

use crate::metrics::Metrics;
use crate::summary::median;

/// Operations per timed repetition.
const OPS: u64 = 200_000;
/// Repetitions; the median is reported.
const REPS: usize = 5;

/// Every repair policy the experiment registry evaluates, with the
/// metric-name suffix of its checkpoint/restore row.
pub fn registry_policies() -> [(&'static str, RepairPolicy); 8] {
    [
        ("none", RepairPolicy::None),
        ("valid_bits", RepairPolicy::ValidBits),
        ("tos_ptr", RepairPolicy::TosPointer),
        ("tos_ptr_contents", RepairPolicy::TosPointerAndContents),
        ("top_1", RepairPolicy::TopContents { k: 1 }),
        ("top_2", RepairPolicy::TopContents { k: 2 }),
        ("top_4", RepairPolicy::TopContents { k: 4 }),
        ("full_stack", RepairPolicy::FullStack),
    ]
}

/// Median ns per call of `op` over [`REPS`] repetitions of [`OPS`] calls.
fn ns_per_op(mut op: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..OPS {
                op(black_box(i));
            }
            t0.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&reps)
}

/// Adds every component row to `m`.
pub fn measure(m: &mut Metrics) {
    let mut s = ReturnAddressStack::new(32);
    m.put(
        "ras.push_pop_ns",
        ns_per_op(|i| {
            s.push(i);
            black_box(s.pop());
        }),
        "ns",
    );
    for (slug, policy) in registry_policies() {
        let mut s = ReturnAddressStack::new(32);
        for i in 0..16 {
            s.push(i);
        }
        let ns = ns_per_op(|i| {
            let ckpt = s.checkpoint(black_box(policy));
            s.pop();
            s.push(i);
            s.restore(&ckpt);
        });
        m.put(format!("ras.ckpt_restore_ns.{slug}"), ns, "ns");
    }

    let mut p = HybridPredictor::new(HybridConfig::default());
    m.put(
        "bpred.hybrid_ns",
        ns_per_op(|i| {
            let pc = Addr::new(i % 509);
            let pred = p.predict(pc);
            p.update(pc, &pred, i % 3 == 0);
        }),
        "ns",
    );
    let mut btb = Btb::new(BtbConfig::default());
    m.put(
        "bpred.btb_ns",
        ns_per_op(|i| {
            let pc = Addr::new(i % 1021);
            black_box(btb.lookup(pc));
            btb.update(pc, Addr::new(i));
        }),
        "ns",
    );
    let mut cache = Cache::new(CacheConfig {
        sets: 128,
        ways: 2,
        line_words: 16,
    });
    m.put(
        "mem.cache_access_ns",
        ns_per_op(|i| {
            black_box(cache.access(i * 7 % 65_536));
        }),
        "ns",
    );
}
