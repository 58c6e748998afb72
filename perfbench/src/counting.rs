//! Exact work counters taken from outside the library: a counting
//! [`Hooks`] wrapper.
//!
//! The pipeline dispatches every event to its hook chain, so wrapping any
//! chain in [`CountingHooks`] counts the dispatches the pipeline makes —
//! calls per hook kind and the idle cycles it skipped over in
//! `on_idle_span` steps. The counts are simulated quantities: they repeat
//! exactly for the same trace and configuration, so a speed-only change
//! must leave them identical.

use uarch::btb::Btb;
use uarch::cache::{AccessOutcome, SetAssocCache};
use uarch::pipeline::{Hooks, Parts, RegClass};
use uarch::regfile::{PhysReg, RegisterFile};
use uarch::scheduler::{EntryValues, Scheduler, SlotId};
use uarch::tlb::Dtlb;

/// The counted hook kinds and their per-uop metric, in
/// [`HookCounts::calls`] order. `l2_accessed` is forwarded but not
/// counted: none of the measured configurations has an L2. `cycle_end`
/// counts only the pipeline's own calls, not the per-cycle replay a
/// hook's default `on_idle_span` performs.
pub const KINDS: [(&str, &str); 9] = [
    (
        "regfile_released",
        "uarch.pipeline.hook_calls_per_uop.regfile_released",
    ),
    (
        "regfile_written",
        "uarch.pipeline.hook_calls_per_uop.regfile_written",
    ),
    (
        "scheduler_released",
        "uarch.pipeline.hook_calls_per_uop.scheduler_released",
    ),
    (
        "scheduler_allocated",
        "uarch.pipeline.hook_calls_per_uop.scheduler_allocated",
    ),
    (
        "dl0_accessed",
        "uarch.pipeline.hook_calls_per_uop.dl0_accessed",
    ),
    (
        "dtlb_accessed",
        "uarch.pipeline.hook_calls_per_uop.dtlb_accessed",
    ),
    (
        "btb_accessed",
        "uarch.pipeline.hook_calls_per_uop.btb_accessed",
    ),
    ("cycle_end", "uarch.pipeline.hook_calls_per_uop.cycle_end"),
    (
        "on_idle_span",
        "uarch.pipeline.hook_calls_per_uop.on_idle_span",
    ),
];

/// Dispatch counts of one or more runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HookCounts {
    /// Calls per kind, indexed like [`KINDS`].
    pub calls: [u64; 9],
    /// Cycles covered by `on_idle_span` steps.
    pub idle_cycles: u64,
}

impl HookCounts {
    pub fn add(&mut self, other: &HookCounts) {
        for (a, b) in self.calls.iter_mut().zip(&other.calls) {
            *a += b;
        }
        self.idle_cycles += other.idle_cycles;
    }
}

/// Forwards every hook to `inner`, counting the dispatches.
#[derive(Debug, Clone, Default)]
pub struct CountingHooks<H> {
    pub inner: H,
    pub counts: HookCounts,
}

impl<H> CountingHooks<H> {
    pub fn new(inner: H) -> Self {
        CountingHooks {
            inner,
            counts: HookCounts::default(),
        }
    }
}

impl<H: Hooks> Hooks for CountingHooks<H> {
    fn regfile_released(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        self.counts.calls[0] += 1;
        self.inner.regfile_released(rf, class, preg, now);
    }

    fn regfile_written(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        self.counts.calls[1] += 1;
        self.inner.regfile_written(rf, class, preg, value, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.counts.calls[2] += 1;
        self.inner.scheduler_released(sched, slot, now);
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.counts.calls[3] += 1;
        self.inner.scheduler_allocated(sched, slot, values, now);
    }

    fn dl0_accessed(&mut self, dl0: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.counts.calls[4] += 1;
        self.inner.dl0_accessed(dl0, outcome, now);
    }

    fn l2_accessed(&mut self, l2: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.inner.l2_accessed(l2, outcome, now);
    }

    fn dtlb_accessed(&mut self, dtlb: &mut Dtlb, outcome: &AccessOutcome, now: u64) {
        self.counts.calls[5] += 1;
        self.inner.dtlb_accessed(dtlb, outcome, now);
    }

    fn btb_accessed(&mut self, btb: &mut Btb, outcome: &AccessOutcome, now: u64) {
        self.counts.calls[6] += 1;
        self.inner.btb_accessed(btb, outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        self.counts.calls[7] += 1;
        self.inner.cycle_end(parts, now);
    }

    fn on_idle_span(&mut self, parts: &mut Parts, start: u64, end: u64) {
        self.counts.calls[8] += 1;
        self.counts.idle_cycles += end - start + 1;
        self.inner.on_idle_span(parts, start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

    fn counted(uops: usize) -> (HookCounts, u64) {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = CountingHooks::new(NoHooks);
        let spec = TraceSpec::new(Suite::Multimedia, 0);
        let run = pipe.run_chunked(
            spec.generate_chunks(uops, tracegen::soa::DEFAULT_CHUNK),
            &mut hooks,
        );
        (hooks.counts, run.cycles)
    }

    #[test]
    fn counts_repeat_exactly_and_cover_the_run() {
        let (a, cycles) = counted(3_000);
        let (b, _) = counted(3_000);
        assert_eq!(a, b);
        assert!(a.calls[3] > 0 && a.calls[4] > 0);
        assert!(a.calls[7] + a.idle_cycles <= cycles + 1);
    }
}
