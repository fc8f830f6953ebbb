//! Event-driven issue and writeback.
//!
//! Instead of rescanning the whole RUU every cycle, the scheduler keeps
//! two lists inside the window, the structures of SimpleScalar
//! `sim-outorder`'s ready queue and event queue:
//!
//! * the **ready list** — `(seq, slot)` of every dispatched, unsquashed,
//!   `Waiting` micro-op whose operands are all available, sorted by
//!   `seq`. A micro-op joins it at dispatch when no producer is pending,
//!   or later, when writeback marks its last pending producer `Done` and
//!   walks that producer's wakeup list. [`Core::issue`] walks only this
//!   list, oldest first, so selection matches the old oldest-first scan
//!   exactly (a store issued earlier in the cycle publishes its address
//!   to younger loads, as before);
//! * the **in-flight list** — every `Issued` slot, squashed ones
//!   included (they still complete). [`Core::writeback`] takes out the
//!   entries whose latency has elapsed, sorts them by `seq` and completes
//!   and resolves them oldest first, as the old scan did.
//!
//! Readiness is O(1) through per-micro-op derived state: `dispatched`,
//! and a 2-bit `pending_mask` whose bit `i` is set at rename when source
//! `i`'s producer is not yet `Done`. A recycled consumer slot can appear
//! on one producer's wakeup list twice, so clearing a bit is idempotent
//! and a micro-op joins the ready list only on the transition to an empty
//! mask. Squashes drop squashed entries from the ready list; a squashed
//! `Issued` micro-op that drains before its latency elapses leaves the
//! in-flight list at drain, before its slot can be recycled.
//!
//! Both lists live inside the RUU, so `ruu_size` bounds them; they are
//! reserved once in [`Sched::new`] and the hot loop never allocates.
//! Neither they nor the derived micro-op fields are serialized:
//! [`Core::rebuild_sched`] re-derives all of them from the RUU and the
//! fetch queue when a snapshot is decoded.

use super::Core;
use crate::path::PathId;
use crate::uop::{Src, Uop, UopState, NIL};
use hydra_isa::semantics::{alu, branch_taken, effective_address};
use hydra_isa::{Addr, Inst};

/// The scheduler's derived lists (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Sched {
    /// `(seq, slot)` of every issuable micro-op, sorted by `seq`.
    ready: Vec<(u64, u32)>,
    /// `(done_at, slot)` of every `Issued` micro-op, in no particular
    /// order; the completion cycle is copied here so writeback's sweep
    /// reads only this list.
    in_flight: Vec<(u64, u32)>,
    /// Writeback scratch: the `(seq, slot)` pairs completing this cycle.
    completing: Vec<(u64, u32)>,
}

impl Sched {
    /// Empty lists with room for a full window of `ruu_size` entries.
    pub(super) fn new(ruu_size: usize) -> Self {
        Sched {
            ready: Vec::with_capacity(ruu_size),
            in_flight: Vec::with_capacity(ruu_size),
            completing: Vec::with_capacity(ruu_size),
        }
    }

    fn insert_ready(&mut self, seq: u64, slot: u32) {
        let at = self.ready.partition_point(|&(s, _)| s < seq);
        self.ready.insert(at, (seq, slot));
    }

    /// Drops entries a squash just marked (they will never issue).
    pub(super) fn drop_squashed(&mut self, slab: &[Uop]) {
        self.ready.retain(|&(_, s)| !slab[s as usize].squashed);
    }
}

enum LoadOutcome {
    NotReady,
    Forwarded(i64),
    FromMemory,
}

impl Core {
    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    /// Completes every in-flight micro-op whose latency has elapsed,
    /// oldest first, so an older misprediction squashes younger control
    /// before it resolves. Resolution only marks flags, so the set
    /// completing this cycle is fixed before the first one resolves.
    pub(super) fn writeback(&mut self) {
        let cycle = self.cycle;
        let mut completing = std::mem::take(&mut self.sched.completing);
        let slab = &self.slab;
        self.sched.in_flight.retain(|&(done_at, slot)| {
            if done_at > cycle {
                return true;
            }
            completing.push((slab[slot as usize].seq, slot));
            false
        });
        completing.sort_unstable();
        for &(seq, slot) in &completing {
            let su = slot as usize;
            self.slab[su].state = UopState::Done;
            if let Some(t) = &mut self.ptrace {
                t.on_complete(seq, cycle);
            }
            self.wake_consumers(slot, seq);
            let u = &self.slab[su];
            if u.squashed || !u.is_control() || u.resolved {
                continue;
            }
            self.resolve(slot);
        }
        completing.clear();
        self.sched.completing = completing;
    }

    /// Walks the wakeup list of the producer in `slot`, which just
    /// completed: clears each registered operand's pending bit and moves
    /// consumers whose last producer this was onto the ready list.
    /// Entries from since-recycled slots fail the `Pending(seq)` check.
    fn wake_consumers(&mut self, slot: u32, seq: u64) {
        let consumers = std::mem::take(&mut self.slab[slot as usize].consumers);
        for &(c, i) in &consumers {
            let u = &mut self.slab[c as usize];
            let bit = 1 << i;
            if u.srcs[i as usize] != Src::Pending(seq) || u.pending_mask & bit == 0 {
                continue;
            }
            u.pending_mask &= !bit;
            if u.pending_mask == 0 && u.dispatched && !u.squashed {
                let cseq = u.seq;
                self.sched.insert_ready(cseq, c);
            }
        }
        self.slab[slot as usize].consumers = consumers;
    }

    /// Marks the micro-op in `slot` as having entered the RUU, putting it
    /// on the ready list if no producer is pending.
    pub(super) fn on_dispatch(&mut self, slot: u32) {
        let u = &mut self.slab[slot as usize];
        u.dispatched = true;
        if u.pending_mask == 0 && !u.squashed {
            let seq = u.seq;
            self.sched.insert_ready(seq, slot);
        }
    }

    /// Takes a squashed micro-op draining from the RUU front off the
    /// in-flight list, before its slot is recycled.
    pub(super) fn on_drain(&mut self, slot: u32) {
        if matches!(self.slab[slot as usize].state, UopState::Issued { .. }) {
            let at = self
                .sched
                .in_flight
                .iter()
                .position(|&(_, s)| s == slot)
                .expect("issued micro-op is in flight");
            self.sched.in_flight.swap_remove(at);
        }
    }

    /// Re-derives the scheduler's state after a snapshot decode: the
    /// `dispatched` flags and pending masks of every micro-op in the RUU
    /// and the fetch queue, then both lists. A producer that has left
    /// the window counts as available, as it did for the scan.
    pub(super) fn rebuild_sched(&mut self) {
        let live = || {
            self.ruu
                .iter()
                .copied()
                .chain(self.fetch_queue.iter().map(|&(_, s)| s))
        };
        let pending = |seq: u64| {
            live().any(|s| {
                let p = &self.slab[s as usize];
                p.seq == seq && !p.is_done()
            })
        };
        let masks: Vec<(u32, u8)> = live()
            .map(|s| {
                let mut mask = 0;
                for (i, src) in self.slab[s as usize].srcs.iter().enumerate() {
                    if matches!(*src, Src::Pending(seq) if pending(seq)) {
                        mask |= 1 << i;
                    }
                }
                (s, mask)
            })
            .collect();
        for (s, mask) in masks {
            self.slab[s as usize].pending_mask = mask;
        }
        self.sched.ready.clear();
        self.sched.in_flight.clear();
        for &slot in &self.ruu {
            let u = &mut self.slab[slot as usize];
            u.dispatched = true;
            match u.state {
                UopState::Waiting if u.pending_mask == 0 && !u.squashed => {
                    self.sched.ready.push((u.seq, slot))
                }
                UopState::Issued { done_at } => self.sched.in_flight.push((done_at, slot)),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue and execution
    // ------------------------------------------------------------------

    /// Issues up to `issue_width` micro-ops from the ready list, oldest
    /// first. A load still waiting on an older store's address stays on
    /// the list without using up an issue slot.
    pub(super) fn issue(&mut self) {
        let mut slots = self.config.issue_width;
        let mut i = 0;
        while slots > 0 && i < self.sched.ready.len() {
            let (_, slot) = self.sched.ready[i];
            let [s0, s1] = self.slab[slot as usize].srcs;
            let (a, b) = (self.operand(s0), self.operand(s1));
            match self.try_execute(slot, a, b) {
                Some(done_at) => {
                    self.sched.ready.remove(i);
                    self.sched.in_flight.push((done_at, slot));
                    slots -= 1;
                }
                None => i += 1,
            }
        }
    }

    /// The value of an available source operand. A pending producer is
    /// `Done` and still in the RUU (retiring it would have patched the
    /// operand to a value), unless it drained squashed — its consumers
    /// are then squashed too, and read 0.
    fn operand(&self, src: Src) -> i64 {
        match src {
            Src::None => 0,
            Src::Value(v) => v,
            Src::Pending(seq) => self
                .ruu
                .binary_search_by_key(&seq, |&slot| self.slab[slot as usize].seq)
                .map_or(0, |idx| {
                    let p = &self.slab[self.ruu[idx] as usize];
                    debug_assert!(p.is_done(), "ready micro-op has a pending producer");
                    p.result.unwrap_or(0)
                }),
        }
    }

    /// Attempts to execute the micro-op in slab slot `slot` with operand
    /// values `a`, `b`. Returns the cycle its result becomes available,
    /// or `None` if it must keep waiting (memory ordering).
    fn try_execute(&mut self, slot: u32, a: i64, b: i64) -> Option<u64> {
        let su = slot as usize;
        let (seq, inst, pc, path) = {
            let u = &self.slab[su];
            (u.seq, u.inst, u.pc, u.path)
        };
        let lat = &self.config.latencies;
        let data_words = self.program.data_words();

        let mut result = None;
        let mut actual_next = None;
        let mut taken_actual = None;
        let mut latency = lat.alu;
        let mut mem_addr = None;
        let mut store_value = None;

        match inst {
            Inst::Nop | Inst::Halt => {
                if matches!(inst, Inst::Halt) {
                    actual_next = Some(pc);
                }
            }
            Inst::Alu { op, .. } => {
                result = Some(alu(op, a, b));
                latency = match op {
                    hydra_isa::AluOp::Mul => lat.mul,
                    hydra_isa::AluOp::Div => lat.div,
                    _ => lat.alu,
                };
            }
            Inst::AluImm { op, imm, .. } => {
                result = Some(alu(op, a, imm));
                latency = match op {
                    hydra_isa::AluOp::Mul => lat.mul,
                    hydra_isa::AluOp::Div => lat.div,
                    _ => lat.alu,
                };
            }
            Inst::LoadImm { imm, .. } => result = Some(imm),
            Inst::Load { offset, .. } => {
                let ea = effective_address(a, offset, data_words);
                // Conservative disambiguation: wait until every older
                // visible store knows its address.
                match self.load_forward(seq, path, ea) {
                    LoadOutcome::NotReady => return None,
                    LoadOutcome::Forwarded(v) => {
                        result = Some(v);
                        latency = lat.agen + self.memory.data_access(ea, false);
                    }
                    LoadOutcome::FromMemory => {
                        result = Some(self.mem_data[ea as usize]);
                        latency = lat.agen + self.memory.data_access(ea, false);
                    }
                }
                hydra_trace::trace_event!(hydra_trace::TraceEvent::CacheAccess {
                    cycle: self.cycle,
                    cache: "l1d",
                    addr: ea,
                    hit: latency - lat.agen <= self.config.mem.l1_latency,
                });
                mem_addr = Some(ea);
            }
            Inst::Store { offset, .. } => {
                // srcs = [value (rs), base]; see dispatch.
                let ea = effective_address(b, offset, data_words);
                mem_addr = Some(ea);
                store_value = Some(a);
                latency = lat.agen + self.memory.data_access(ea, true);
                hydra_trace::trace_event!(hydra_trace::TraceEvent::CacheAccess {
                    cycle: self.cycle,
                    cache: "l1d",
                    addr: ea,
                    hit: latency - lat.agen <= self.config.mem.l1_latency,
                });
                let ls = self.slab[su].lsq_slot;
                if ls != NIL {
                    let e = &mut self.lsq.entries[ls as usize];
                    e.addr = Some(ea);
                    e.value = Some(a);
                }
            }
            Inst::Branch { cond, target, .. } => {
                let t = branch_taken(cond, a, b);
                taken_actual = Some(t);
                actual_next = Some(if t { target } else { pc.next() });
                latency = lat.branch;
            }
            Inst::Jump { target } => {
                actual_next = Some(target);
                latency = lat.branch;
            }
            Inst::Call { target } => {
                result = Some(pc.next().word() as i64);
                actual_next = Some(target);
                latency = lat.branch;
            }
            Inst::CallIndirect { .. } => {
                result = Some(pc.next().word() as i64);
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
            Inst::JumpIndirect { .. } => {
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
            Inst::Return => {
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
        }

        let done_at = self.cycle + latency.max(1);
        let u = &mut self.slab[su];
        u.result = result;
        u.actual_next_pc = actual_next;
        u.taken_actual = taken_actual;
        u.mem_addr = mem_addr;
        u.store_value = store_value;
        u.state = UopState::Issued { done_at };
        if let Some(t) = &mut self.ptrace {
            t.on_issue(seq, self.cycle);
        }
        Some(done_at)
    }

    fn load_forward(&self, seq: u64, path: PathId, ea: u64) -> LoadOutcome {
        let mut forwarded = None;
        // Walk the LSQ in queue (= program) order through the links.
        let mut s = self.lsq.head;
        while s != NIL {
            let e = &self.lsq.entries[s as usize];
            s = self.lsq.next[s as usize];
            if e.seq >= seq || !e.is_store || e.squashed {
                continue;
            }
            if !self.paths.visible(e.path, e.seq, path) {
                continue;
            }
            match e.addr {
                None => return LoadOutcome::NotReady,
                Some(addr) if addr == ea => {
                    forwarded = Some(e.value.expect("executed store has value"));
                }
                Some(_) => {}
            }
        }
        match forwarded {
            Some(v) => LoadOutcome::Forwarded(v),
            None => LoadOutcome::FromMemory,
        }
    }
}

#[cfg(test)]
impl Core {
    /// Asserts that both lists hold exactly what the full-RUU scans they
    /// replace would select: for the ready list, every `Waiting`,
    /// unsquashed RUU entry whose operands are available (a pending
    /// producer is `Done` or has left the RUU), in `seq` order; for the
    /// in-flight list, every `Issued` RUU entry.
    pub(super) fn assert_sched_matches_scan(&self) {
        let available = |src: Src| match src {
            Src::Pending(seq) => self
                .ruu
                .iter()
                .find(|&&s| self.slab[s as usize].seq == seq)
                .is_none_or(|&s| self.slab[s as usize].is_done()),
            Src::None | Src::Value(_) => true,
        };
        let mut scan = Sched::new(0);
        for &s in &self.ruu {
            let u = &self.slab[s as usize];
            match u.state {
                UopState::Waiting if !u.squashed && u.srcs.iter().all(|&x| available(x)) => {
                    scan.ready.push((u.seq, s))
                }
                UopState::Issued { done_at } => scan.in_flight.push((done_at, s)),
                _ => {}
            }
        }
        scan.in_flight.sort_unstable();
        assert_eq!(self.sched_normalized(), scan, "cycle {}", self.cycle);
    }

    /// This core's lists with the in-flight list sorted (its order
    /// carries no meaning), for comparing two cores.
    pub(super) fn sched_normalized(&self) -> Sched {
        let mut sched = self.sched.clone();
        sched.in_flight.sort_unstable();
        sched
    }
}
