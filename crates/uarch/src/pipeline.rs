//! Trace-driven out-of-order pipeline model.
//!
//! A compact Core™-like model: per cycle it retires finished uops, issues
//! ready uops over five ports, and allocates up to `alloc_width` new uops
//! from the trace (rename + scheduler capture + MOB id). It is *statistical*
//! rather than functionally exact — results come from the trace, not from
//! executing operations — but the quantities the paper's evaluation rests on
//! are modeled faithfully:
//!
//! - CPI and its sensitivity to DL0/DTLB misses (Table 3);
//! - scheduler occupancy (~63%) and data-field occupancy (§4.5);
//! - register-file free time (54% INT / 69% FP) and write-port
//!   availability at release (92% / 86%, §4.4);
//! - per-adder utilization (11–30% depending on the allocation policy,
//!   §4.3), with an adder on each integer-ALU and address-generation port.
//!
//! NBTI mechanisms attach through the [`Hooks`] trait, which receives
//! events (releases, cache fills, cycle boundaries) with mutable access to
//! the structures — exactly the points where Penelope's balancing writes
//! happen.

use std::collections::VecDeque;

use crate::btb::Btb;
use crate::cache::{AccessOutcome, CacheConfig, SetAssocCache};
use crate::error::{validate_cache, validate_regfile, PipelineError};
use crate::mob::MobAllocator;
use crate::regfile::{PhysReg, RegFileConfig, RegisterFile};
use crate::scheduler::{DataUsage, EntryValues, Field, Scheduler, SlotId};
use crate::tlb::Dtlb;
use tracegen::soa::ChunkedUops;
use tracegen::uop::{Uop, UopClass};

/// Which register file an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// The integer register file.
    Int,
    /// The FP register file.
    Fp,
}

/// How integer-ALU uops are spread over the three ALU ports (0, 1 and 4).
///
/// §4.3: "if additions are allocated to adders with priorities, the
/// utilization of the adders ranges between 11% and 30%, but if additions
/// are distributed uniformly across adders, the utilization of adders
/// is 21%".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdderPolicy {
    /// Round-robin over the ALU ports (uniform utilization).
    #[default]
    Uniform,
    /// Lowest-numbered ALU port first (skewed utilization).
    Prioritized,
}

/// Pipeline parameters.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Uops allocated per cycle.
    pub alloc_width: u8,
    /// Scheduler entries.
    pub sched_entries: usize,
    /// Scheduler allocation ports.
    pub sched_ports: u8,
    /// Integer register file.
    pub int_rf: RegFileConfig,
    /// FP register file.
    pub fp_rf: RegFileConfig,
    /// First-level data cache geometry.
    pub dl0: CacheConfig,
    /// Optional unified second-level cache. When present, a DL0 miss that
    /// hits the L2 pays `dl0_miss_penalty`, and an L2 miss pays
    /// `l2_miss_penalty` on top.
    pub l2: Option<CacheConfig>,
    /// Extra cycles when a DL0 miss also misses the L2.
    pub l2_miss_penalty: u64,
    /// DTLB entries.
    pub dtlb_entries: u32,
    /// DTLB associativity.
    pub dtlb_ways: u16,
    /// BTB entries.
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u16,
    /// Front-end bubble when a taken branch misses the BTB.
    pub btb_miss_penalty: u64,
    /// Extra cycles on a DL0 miss.
    pub dl0_miss_penalty: u64,
    /// Extra cycles on a DTLB miss.
    pub dtlb_miss_penalty: u64,
    /// Cycles between writeback and physical-register release (commit lag).
    pub release_delay: u64,
    /// Front-end bubble after a mispredicted branch allocates.
    pub mispredict_penalty: u64,
    /// ALU port selection policy.
    pub adder_policy: AdderPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            alloc_width: 4,
            sched_entries: Scheduler::PAPER_ENTRIES,
            sched_ports: 4,
            int_rf: RegFileConfig::integer(),
            fp_rf: RegFileConfig::floating_point(),
            dl0: CacheConfig::dl0(32, 8),
            l2: None,
            l2_miss_penalty: 40,
            dtlb_entries: 128,
            dtlb_ways: 8,
            btb_entries: 512,
            btb_ways: 4,
            btb_miss_penalty: 2,
            dl0_miss_penalty: 12,
            dtlb_miss_penalty: 30,
            release_delay: 16,
            mispredict_penalty: 20,
            adder_policy: AdderPolicy::Uniform,
        }
    }
}

/// The microarchitectural structures, bundled so hooks can receive mutable
/// access to all of them at cycle boundaries.
#[derive(Debug)]
pub struct Parts {
    /// Integer physical register file.
    pub int_rf: RegisterFile,
    /// FP physical register file.
    pub fp_rf: RegisterFile,
    /// The scheduler.
    pub sched: Scheduler,
    /// First-level data cache.
    pub dl0: SetAssocCache,
    /// Second-level cache, if configured.
    pub l2: Option<SetAssocCache>,
    /// Data TLB.
    pub dtlb: Dtlb,
    /// Branch target buffer.
    pub btb: Btb,
    /// MOB id allocator.
    pub mob: MobAllocator,
}

/// Observer/actuator interface for NBTI mechanisms.
///
/// All methods have empty defaults; implement only what the mechanism
/// needs. Methods receive mutable structure references so balancing writes
/// can reuse idle ports in the same cycle as the triggering event.
pub trait Hooks {
    /// A physical register was released (its content remains).
    fn regfile_released(
        &mut self,
        _rf: &mut RegisterFile,
        _class: RegClass,
        _preg: PhysReg,
        _now: u64,
    ) {
    }

    /// A value was architecturally written to a register (sampling point
    /// for RINV).
    fn regfile_written(
        &mut self,
        _rf: &mut RegisterFile,
        _class: RegClass,
        _preg: PhysReg,
        _value: u128,
        _now: u64,
    ) {
    }

    /// A scheduler slot was released (its contents remain).
    fn scheduler_released(&mut self, _sched: &mut Scheduler, _slot: SlotId, _now: u64) {}

    /// A scheduler slot was allocated with the given captured values.
    fn scheduler_allocated(
        &mut self,
        _sched: &mut Scheduler,
        _slot: SlotId,
        _values: &EntryValues,
        _now: u64,
    ) {
    }

    /// The DL0 completed an access (hit or fill).
    fn dl0_accessed(&mut self, _dl0: &mut SetAssocCache, _outcome: &AccessOutcome, _now: u64) {}

    /// The L2 completed an access (only on DL0 misses, when configured).
    fn l2_accessed(&mut self, _l2: &mut SetAssocCache, _outcome: &AccessOutcome, _now: u64) {}

    /// The DTLB completed an access (hit or fill).
    fn dtlb_accessed(&mut self, _dtlb: &mut Dtlb, _outcome: &AccessOutcome, _now: u64) {}

    /// The BTB completed a lookup (hit or train).
    fn btb_accessed(&mut self, _btb: &mut Btb, _outcome: &AccessOutcome, _now: u64) {}

    /// End of cycle; periodic maintenance goes here.
    fn cycle_end(&mut self, _parts: &mut Parts, _now: u64) {}

    /// A span of idle cycles `start..=end` (inclusive) that the event-driven
    /// core skipped over in one step: the pipeline proves no retire, issue,
    /// allocation, or register release can happen in the span, so the only
    /// thing that would have run is `cycle_end` once per cycle.
    ///
    /// The default implementation replays exactly that, so every existing
    /// hook observes the same call sequence as under the cycle-accurate
    /// loop. Span-aware hooks may override this with a closed-form update,
    /// but overrides must stay observably equivalent to the replay —
    /// including any RNG draw sequence — or run-to-run byte-identity breaks.
    fn on_idle_span(&mut self, parts: &mut Parts, start: u64, end: u64) {
        for t in start..=end {
            self.cycle_end(parts, t);
        }
    }
}

/// A no-op hook set: the unmodified baseline processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {
    fn on_idle_span(&mut self, _parts: &mut Parts, _start: u64, _end: u64) {
        // `cycle_end` is a no-op, so the replay loop would be too.
    }
}

/// Forwarding impl so hook chains can be composed by mutable borrow: a
/// wrapper (telemetry, fault injection) can hold `&mut H` instead of
/// taking ownership of the chain it instruments.
impl<H: Hooks + ?Sized> Hooks for &mut H {
    fn regfile_released(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        (**self).regfile_released(rf, class, preg, now);
    }

    fn regfile_written(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        (**self).regfile_written(rf, class, preg, value, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        (**self).scheduler_released(sched, slot, now);
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        (**self).scheduler_allocated(sched, slot, values, now);
    }

    fn dl0_accessed(&mut self, dl0: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        (**self).dl0_accessed(dl0, outcome, now);
    }

    fn l2_accessed(&mut self, l2: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        (**self).l2_accessed(l2, outcome, now);
    }

    fn dtlb_accessed(&mut self, dtlb: &mut Dtlb, outcome: &AccessOutcome, now: u64) {
        (**self).dtlb_accessed(dtlb, outcome, now);
    }

    fn btb_accessed(&mut self, btb: &mut Btb, outcome: &AccessOutcome, now: u64) {
        (**self).btb_accessed(btb, outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        (**self).cycle_end(parts, now);
    }

    fn on_idle_span(&mut self, parts: &mut Parts, start: u64, end: u64) {
        (**self).on_idle_span(parts, start, end);
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    class: UopClass,
    fp: bool,
    /// (new mapping, previous mapping of the same arch reg).
    dst: Option<(PhysReg, Option<PhysReg>)>,
    result: u128,
    src1: Option<PhysReg>,
    src2: Option<PhysReg>,
    ready1: bool,
    ready2: bool,
    port: u8,
    mem_addr: Option<u64>,
    mob: Option<u8>,
}

/// Aggregate results of a pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Uops retired.
    pub uops: u64,
    /// Per-port issue counts (ports 0..4).
    pub port_issues: [u64; 5],
    /// Per-port *adder operations* (IntAlu on the ALU ports, address
    /// generations on the memory ports): the basis of the §4.3 utilization
    /// figures.
    pub adder_ops: [u64; 5],
}

impl RunResult {
    /// Cycles per uop.
    pub fn cpi(&self) -> f64 {
        if self.uops == 0 {
            0.0
        } else {
            self.cycles as f64 / self.uops as f64
        }
    }

    /// Utilization of the adder on each port (integer adders on ports 0 and
    /// 1; AGU adders on ports 2 and 3; port 4 has no adder).
    pub fn adder_utilization(&self) -> [f64; 5] {
        let mut u = [0.0; 5];
        if self.cycles > 0 {
            for (i, &n) in self.adder_ops.iter().enumerate() {
                u[i] = n as f64 / self.cycles as f64;
            }
        }
        u
    }

    /// Worst per-adder utilization (the §4.3 "allocated with priorities"
    /// case is judged by its most used adder).
    pub fn max_adder_utilization(&self) -> f64 {
        self.adder_utilization().into_iter().fold(0.0, f64::max)
    }

    /// Merges another run into this one (multi-trace campaigns).
    pub fn merge(&mut self, other: &RunResult) {
        self.cycles += other.cycles;
        self.uops += other.uops;
        for (a, b) in self.port_issues.iter_mut().zip(&other.port_issues) {
            *a += b;
        }
        for (a, b) in self.adder_ops.iter_mut().zip(&other.adder_ops) {
            *a += b;
        }
    }
}

/// The pipeline: owns the structures and the clock; runs traces.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    /// The structures, exposed for statistics and mechanisms.
    pub parts: Parts,
    now: u64,
    seq: u64,
    int_map: [PhysReg; 16],
    fp_map: [PhysReg; 8],
    int_ready: Vec<bool>,
    fp_ready: Vec<bool>,
    in_flight: Vec<Option<InFlight>>,
    /// Slot sets are one word each, bit `s` for slot `s` (validation caps
    /// the scheduler at [`MAX_SCHED_ENTRIES`]). `free`: slots with no uop
    /// in flight — allocation takes the first set bit at or after
    /// `slot_rr`.
    free: u64,
    /// Ready-but-unissued uops per port. A slot's bit is set exactly once
    /// (at allocation if both sources are ready, or at the wakeup that
    /// completes its readiness) and cleared when it issues; issue takes
    /// the lowest `seq` among the port's bits.
    ready: [u64; 5],
    /// Issued uops awaiting completion at `finish_at[slot]` (immutable
    /// after issue). Retire walks the due bits in ascending slot order.
    issued: u64,
    /// Allocation order of each slot's uop (the age issue selects by).
    seq_of: Vec<u64>,
    /// Completion cycle of each issued slot's uop.
    finish_at: Vec<u64>,
    /// Minimum `finish_at` over `issued` (`u64::MAX` when none): the next
    /// retire event, read by the retire stage and by skip-ahead.
    next_retire: u64,
    /// Delayed physical-register releases, sorted by due time: every push
    /// uses `now + release_delay` with a fixed delay and a monotonic clock,
    /// so the queue is ordered by construction and the front is the next
    /// release event.
    pending_release: VecDeque<(u64, RegClass, PhysReg)>,
    /// Per-physical-register wakeup lists (integer / FP): slots whose
    /// sources were not ready at allocation, visited once when the producer
    /// writes back. Replaces the O(window) wake scan.
    waiters_int: Vec<Vec<SlotId>>,
    waiters_fp: Vec<Vec<SlotId>>,
    stall_until: u64,
    alu_rr: u8,
    agu_rr: u8,
    slot_rr: usize,
    uops_retired: u64,
    port_issues: [u64; 5],
    adder_ops: [u64; 5],
}

/// The three integer-ALU ports (each with an adder, Core-like); ports 2/3
/// carry the AGU adders; port 4 doubles as the branch port.
const ALU_PORTS: [u8; 3] = [0, 1, 4];

/// Largest scheduler the event core models: its slot sets are one `u64`.
/// The paper's scheduler, and every configuration shipped, has 32.
pub const MAX_SCHED_ENTRIES: usize = 64;

/// The slots in a slot set, lowest first.
fn slots(mut set: u64) -> impl Iterator<Item = SlotId> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let slot = set.trailing_zeros() as usize;
            set &= set - 1;
            slot
        })
    })
}

impl Pipeline {
    /// Builds a pipeline; the architectural registers are pre-mapped and
    /// initialized to zero.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration; use [`Pipeline::try_new`] for
    /// a panic-free, typed-error construction path.
    pub fn new(config: PipelineConfig) -> Self {
        match Pipeline::try_new(config) {
            Ok(pipe) => pipe,
            Err(err) => panic!("invalid pipeline configuration: {err}"),
        }
    }

    /// Checks a configuration without building anything: every structure
    /// geometry must be instantiable and the pipeline must be able to make
    /// forward progress (nonzero allocation width, register files larger
    /// than the pre-mapped architectural state).
    pub fn validate(config: &PipelineConfig) -> Result<(), PipelineError> {
        if config.alloc_width == 0 {
            return Err(PipelineError::ZeroAllocWidth);
        }
        if config.sched_entries == 0 {
            return Err(PipelineError::NoSchedulerEntries);
        }
        if config.sched_entries > MAX_SCHED_ENTRIES {
            return Err(PipelineError::TooManySchedulerEntries {
                entries: config.sched_entries,
                max: MAX_SCHED_ENTRIES,
            });
        }
        if config.sched_ports == 0 {
            return Err(PipelineError::NoSchedulerPorts);
        }
        validate_regfile("integer", &config.int_rf, 16)?;
        validate_regfile("FP", &config.fp_rf, 8)?;
        validate_cache("DL0", &config.dl0)?;
        if let Some(l2) = &config.l2 {
            validate_cache("L2", l2)?;
        }
        // The DTLB and BTB are built from entry counts; check the cache
        // geometries they expand to.
        validate_cache(
            "DTLB",
            &CacheConfig::dtlb(config.dtlb_entries, config.dtlb_ways),
        )?;
        validate_cache(
            "BTB",
            &CacheConfig {
                size_bytes: u64::from(config.btb_entries) * 4,
                ways: config.btb_ways,
                line_bytes: 4,
            },
        )?;
        Ok(())
    }

    /// Builds a pipeline, rejecting degenerate configurations with a typed
    /// error instead of panicking (or hanging) mid-run.
    pub fn try_new(config: PipelineConfig) -> Result<Self, PipelineError> {
        Pipeline::build(config, true)
    }

    /// Builds a timing-only pipeline: its register files and scheduler are
    /// untracked ([`RegisterFile::untracked`], [`Scheduler::untracked`]),
    /// so a run charges no bit residency there. Every [`RunResult`], every
    /// hook call and the caches, DTLB and BTB are those of
    /// [`Pipeline::try_new`]; only the register-file and scheduler
    /// residency (and the scheduler's field contents) read empty. The
    /// choice lasts for the pipeline's life.
    pub fn try_untracked(config: PipelineConfig) -> Result<Self, PipelineError> {
        Pipeline::build(config, false)
    }

    #[allow(clippy::expect_used)] // arch-state allocations validated below
    fn build(config: PipelineConfig, tracked: bool) -> Result<Self, PipelineError> {
        Pipeline::validate(&config)?;
        let regfile = |config| {
            if tracked {
                RegisterFile::new(config)
            } else {
                RegisterFile::untracked(config)
            }
        };
        let mut int_rf = regfile(config.int_rf);
        let mut fp_rf = regfile(config.fp_rf);
        let mut int_map = [0; 16];
        let mut fp_map = [0; 8];
        // validate() guarantees both files exceed the architectural state,
        // so these allocations cannot fail.
        for slot in &mut int_map {
            *slot = int_rf
                .allocate(0)
                .expect("validated: integer RF holds arch state");
        }
        for slot in &mut fp_map {
            *slot = fp_rf
                .allocate(0)
                .expect("validated: FP RF holds arch state");
        }
        let int_ready = vec![true; usize::from(config.int_rf.entries)];
        let fp_ready = vec![true; usize::from(config.fp_rf.entries)];
        Ok(Pipeline {
            parts: Parts {
                int_rf,
                fp_rf,
                sched: if tracked {
                    Scheduler::new(config.sched_entries, config.sched_ports)
                } else {
                    Scheduler::untracked(config.sched_entries, config.sched_ports)
                },
                dl0: SetAssocCache::new(config.dl0),
                l2: config.l2.map(SetAssocCache::new),
                dtlb: Dtlb::new(config.dtlb_entries, config.dtlb_ways),
                btb: Btb::new(config.btb_entries, config.btb_ways),
                mob: MobAllocator::new(64),
            },
            now: 0,
            seq: 0,
            int_map,
            fp_map,
            int_ready,
            fp_ready,
            in_flight: vec![None; config.sched_entries],
            free: u64::MAX >> (64 - config.sched_entries),
            ready: [0; 5],
            issued: 0,
            seq_of: vec![0; config.sched_entries],
            finish_at: vec![u64::MAX; config.sched_entries],
            next_retire: u64::MAX,
            pending_release: VecDeque::new(),
            waiters_int: vec![Vec::new(); usize::from(config.int_rf.entries)],
            waiters_fp: vec![Vec::new(); usize::from(config.fp_rf.entries)],
            stall_until: 0,
            alu_rr: 0,
            agu_rr: 0,
            slot_rr: 0,
            uops_retired: 0,
            port_issues: [0; 5],
            adder_ops: [0; 5],
            config,
        })
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs a trace to completion (drains in-flight uops afterwards) and
    /// returns this run's statistics. May be called repeatedly; structures
    /// and the clock carry over, mimicking back-to-back trace execution.
    ///
    /// A run ends settled: the register files' and the scheduler's
    /// residency is flushed up to the last cycle, so their
    /// `residency`/`field_residency` reads are exact as soon as this
    /// returns.
    ///
    /// This is the event-driven core: cycles in which nothing can happen —
    /// front-end bubbles with the window waiting on long misses, structural
    /// stalls, drain tails — are skipped in one step, with hooks notified
    /// through [`Hooks::on_idle_span`]. Observable behavior (results, hook
    /// call sequence, residency accounting) is identical to
    /// [`Pipeline::run_cycle_accurate`].
    pub fn run<I, H>(&mut self, trace: I, hooks: &mut H) -> RunResult
    where
        I: IntoIterator<Item = Uop>,
        H: Hooks,
    {
        self.run_inner(trace, hooks, true)
    }

    /// Runs a chunked (structure-of-arrays) uop stream to completion: the
    /// generator side runs a block of uops at a time into parallel arrays
    /// (see [`tracegen::soa`]), and allocation decodes them sequentially.
    /// Yields exactly the results of [`Pipeline::run`] over the same uops —
    /// batching changes generation timing, never content or order.
    pub fn run_chunked<I, H>(&mut self, chunks: ChunkedUops<I>, hooks: &mut H) -> RunResult
    where
        I: Iterator<Item = Uop>,
        H: Hooks,
    {
        self.run_inner(chunks.into_uops(), hooks, true)
    }

    /// The cycle-by-cycle reference loop: identical to [`Pipeline::run`]
    /// but ticking every simulated cycle. Kept as the differential oracle
    /// the event-core tests compare [`Pipeline::run`] against.
    pub fn run_cycle_accurate<I, H>(&mut self, trace: I, hooks: &mut H) -> RunResult
    where
        I: IntoIterator<Item = Uop>,
        H: Hooks,
    {
        self.run_inner(trace, hooks, false)
    }

    fn run_inner<I, H>(&mut self, trace: I, hooks: &mut H, skip_ahead: bool) -> RunResult
    where
        I: IntoIterator<Item = Uop>,
        H: Hooks,
    {
        let start_cycles = self.now;
        let start_uops = self.uops_retired;
        let start_issues = self.port_issues;
        let start_adder = self.adder_ops;
        let mut trace = trace.into_iter().fuse();
        let mut pending: Option<Uop> = None;
        let mut trace_done = false;
        loop {
            self.now += 1;
            let now = self.now;
            self.retire(now, hooks);
            self.issue(now, hooks);
            // Allocate (unless the front-end is refilling after a
            // mispredict bubble). `blocked` records a structural stall: the
            // head uop found no slot/register/MOB id, which cannot resolve
            // before the next retire or release event.
            let mut allocated = 0;
            let mut blocked = false;
            while now >= self.stall_until && allocated < self.config.alloc_width {
                let uop = match pending.take() {
                    Some(u) => u,
                    None => match trace.next() {
                        Some(u) => u,
                        None => {
                            trace_done = true;
                            break;
                        }
                    },
                };
                match self.try_allocate(&uop, now, hooks) {
                    true => {
                        allocated += 1;
                        if uop.class == UopClass::Branch {
                            // Front-end redirect costs: a taken branch that
                            // missed the BTB pays a short bubble; a
                            // mispredict pays the full penalty.
                            let out = self.parts.btb.lookup(uop.pc, now);
                            hooks.btb_accessed(&mut self.parts.btb, &out, now);
                            if uop.mispredict {
                                self.stall_until = now + self.config.mispredict_penalty;
                                break;
                            }
                            if uop.taken && !out.hit {
                                self.stall_until = now + self.config.btb_miss_penalty;
                                break;
                            }
                        }
                    }
                    false => {
                        pending = Some(uop);
                        blocked = true;
                        break;
                    }
                }
            }
            hooks.cycle_end(&mut self.parts, now);
            let drained = self.free.count_ones() as usize == self.in_flight.len()
                && self.pending_release.is_empty();
            if pending.is_none() && drained {
                // Probe the iterator for more work.
                match trace.next() {
                    Some(u) => pending = Some(u),
                    None => break,
                }
            }
            if !skip_ahead {
                continue;
            }
            // Skip ahead: the next interesting cycle is the earliest of the
            // next retire, the next delayed register release, the next issue
            // (something is ready now), and the next allocation attempt
            // (immediately, unless the front end is bubbled or structurally
            // blocked). Anything strictly between is an idle span in which
            // no event fires and no state changes except hook maintenance.
            let mut next = self.next_retire;
            if let Some(&(t, _, _)) = self.pending_release.front() {
                next = next.min(t);
            }
            if self.ready.iter().any(|&m| m != 0) {
                next = next.min(now + 1);
            }
            if !blocked && (pending.is_some() || !trace_done) {
                next = next.min((now + 1).max(self.stall_until));
            }
            if next > now + 1 && next != u64::MAX {
                hooks.on_idle_span(&mut self.parts, now + 1, next - 1);
                self.now = next - 1;
            }
        }
        // Settle: residency is additive over adjacent spans, so flushing at
        // the run boundary changes no count, and readers need no `sync`.
        let now = self.now;
        self.parts.int_rf.sync(now);
        self.parts.fp_rf.sync(now);
        self.parts.sched.sync(now);
        let mut port_issues = [0u64; 5];
        let mut adder_ops = [0u64; 5];
        for i in 0..5 {
            port_issues[i] = self.port_issues[i] - start_issues[i];
            adder_ops[i] = self.adder_ops[i] - start_adder[i];
        }
        RunResult {
            cycles: self.now - start_cycles,
            uops: self.uops_retired - start_uops,
            port_issues,
            adder_ops,
        }
    }

    fn ready_flag(&self, fp: bool, preg: PhysReg) -> bool {
        if fp {
            self.fp_ready[usize::from(preg)]
        } else {
            self.int_ready[usize::from(preg)]
        }
    }

    fn retire<H: Hooks>(&mut self, now: u64, hooks: &mut H) {
        // Retire the due set in ascending slot order (the order the full
        // window scan retired in), and refold the next retire time over
        // the issued uops that stay. Retiring only frees slots and wakes
        // waiters; nothing issues here, so the set is fixed up front.
        if self.next_retire <= now {
            let mut due = 0u64;
            let mut next = u64::MAX;
            for slot in slots(self.issued) {
                let t = self.finish_at[slot];
                if t <= now {
                    due |= 1 << slot;
                } else {
                    next = next.min(t);
                }
            }
            self.issued &= !due;
            self.next_retire = next;
            for slot in slots(due) {
                let Some(fl) = self.in_flight[slot] else {
                    continue;
                };
                // Writeback.
                if let Some((dst, prev)) = fl.dst {
                    let class = if fl.fp { RegClass::Fp } else { RegClass::Int };
                    let rf = match class {
                        RegClass::Int => &mut self.parts.int_rf,
                        RegClass::Fp => &mut self.parts.fp_rf,
                    };
                    rf.write(dst, fl.result, now);
                    hooks.regfile_written(rf, class, dst, fl.result, now);
                    if fl.fp {
                        self.fp_ready[usize::from(dst)] = true;
                    } else {
                        self.int_ready[usize::from(dst)] = true;
                    }
                    if let Some(prev) = prev {
                        self.pending_release.push_back((
                            now + self.config.release_delay,
                            class,
                            prev,
                        ));
                    }
                    // Wake dependents: exactly the slots that registered on
                    // this physical register at allocation. Visit order may
                    // differ from the old window scan, but every update is a
                    // commutative flag/residency write and readiness is a
                    // set bit, so observable behavior is unchanged.
                    let waiters = if fl.fp {
                        &mut self.waiters_fp
                    } else {
                        &mut self.waiters_int
                    };
                    let mut list = std::mem::take(&mut waiters[usize::from(dst)]);
                    for &other_slot in &list {
                        let Some(o) = self.in_flight[other_slot].as_mut() else {
                            continue;
                        };
                        let was_ready = o.ready1 && o.ready2;
                        if !o.ready1 && o.src1 == Some(dst) {
                            o.ready1 = true;
                            self.parts
                                .sched
                                .write_field(other_slot, Field::Ready1, 1, now);
                        }
                        if !o.ready2 && o.src2 == Some(dst) {
                            o.ready2 = true;
                            self.parts
                                .sched
                                .write_field(other_slot, Field::Ready2, 1, now);
                        }
                        if !was_ready && o.ready1 && o.ready2 {
                            self.ready[usize::from(o.port)] |= 1 << other_slot;
                        }
                    }
                    list.clear();
                    let waiters = if fl.fp {
                        &mut self.waiters_fp
                    } else {
                        &mut self.waiters_int
                    };
                    waiters[usize::from(dst)] = list;
                }
                if let Some(mob) = fl.mob {
                    self.parts.mob.release(mob);
                }
                self.parts.sched.release(slot, now);
                hooks.scheduler_released(&mut self.parts.sched, slot, now);
                self.in_flight[slot] = None;
                self.free |= 1 << slot;
                self.uops_retired += 1;
            }
        }

        // Delayed physical-register releases (commit lag), after the
        // cycle's writebacks so the paper's "port available at release"
        // statistic sees real write-port pressure. The queue is sorted by
        // due time, so the due set is exactly the front run.
        while let Some(&(t, class, preg)) = self.pending_release.front() {
            if t > now {
                break;
            }
            self.pending_release.pop_front();
            let rf = match class {
                RegClass::Int => &mut self.parts.int_rf,
                RegClass::Fp => &mut self.parts.fp_rf,
            };
            rf.release(preg, now);
            hooks.regfile_released(rf, class, preg, now);
        }
    }

    fn issue<H: Hooks>(&mut self, now: u64, hooks: &mut H) {
        for port in 0u8..5 {
            // Oldest ready, unissued uop bound to this port: the lowest
            // allocation `seq` among the port's ready bits (a bit is set
            // exactly when a uop becomes ready and cleared here, so the
            // set never holds a stale slot).
            let ready = self.ready[usize::from(port)];
            let Some(slot) = slots(ready).min_by_key(|&s| self.seq_of[s]) else {
                continue;
            };
            self.ready[usize::from(port)] &= !(1 << slot);

            let mut extra = 0;
            if let Some(addr) = self.in_flight[slot].as_ref().and_then(|f| f.mem_addr) {
                let t_out = self.parts.dtlb.translate(addr, now);
                if !t_out.hit {
                    extra += self.config.dtlb_miss_penalty;
                }
                hooks.dtlb_accessed(&mut self.parts.dtlb, &t_out, now);
                let d_out = self.parts.dl0.access(addr, now);
                if !d_out.hit {
                    extra += self.config.dl0_miss_penalty;
                    if let Some(l2) = self.parts.l2.as_mut() {
                        let l2_out = l2.access(addr, now);
                        if !l2_out.hit {
                            extra += self.config.l2_miss_penalty;
                        }
                        hooks.l2_accessed(l2, &l2_out, now);
                    }
                }
                hooks.dl0_accessed(&mut self.parts.dl0, &d_out, now);
            }
            let Some(fl) = self.in_flight[slot].as_ref() else {
                continue;
            };
            let class = fl.class;
            let finish_at = now + u64::from(class.latency()) + extra;
            self.finish_at[slot] = finish_at;
            self.issued |= 1 << slot;
            self.next_retire = self.next_retire.min(finish_at);
            self.parts.sched.issue(slot, now);
            self.port_issues[usize::from(port)] += 1;
            if class == UopClass::IntAlu || class.is_memory() {
                self.adder_ops[usize::from(port)] += 1;
            }
        }
    }

    fn pick_port(&mut self, uop: &Uop) -> u8 {
        match uop.class {
            UopClass::IntAlu => match self.config.adder_policy {
                AdderPolicy::Uniform => {
                    self.alu_rr = (self.alu_rr + 1) % ALU_PORTS.len() as u8;
                    ALU_PORTS[usize::from(self.alu_rr)]
                }
                AdderPolicy::Prioritized => {
                    // Port 0 first, then 1, rarely 4 — a priority allocator
                    // under moderate pressure lands roughly at 60/30/10.
                    match self.seq % 10 {
                        0..=5 => 0,
                        6..=8 => 1,
                        _ => ALU_PORTS[2],
                    }
                }
            },
            // Two symmetric AGU ports (2 and 3) shared by loads and stores.
            UopClass::Load | UopClass::Store => {
                self.agu_rr = (self.agu_rr + 1) % 2;
                2 + self.agu_rr
            }
            _ => uop.port,
        }
    }

    fn try_allocate<H: Hooks>(&mut self, uop: &Uop, now: u64, hooks: &mut H) -> bool {
        // Preconditions: scheduler slot, destination register, MOB id.
        // Slots are claimed round-robin so freed slots are not immediately
        // reused (their contents keep aging realistically).
        let Some(slot) = self.free_slot() else {
            return false;
        };
        let fp = uop.class.is_fp();

        let dst = match uop.dst {
            Some(arch) => {
                let rf = if fp {
                    &mut self.parts.fp_rf
                } else {
                    &mut self.parts.int_rf
                };
                match rf.allocate(now) {
                    Some(preg) => Some((arch, preg)),
                    None => return false,
                }
            }
            None => None,
        };

        let mob = if uop.class.is_memory() {
            match self.parts.mob.allocate() {
                Some(id) => Some(id),
                None => {
                    // Roll back the register allocation.
                    if let Some((_, preg)) = dst {
                        let rf = if fp {
                            &mut self.parts.fp_rf
                        } else {
                            &mut self.parts.int_rf
                        };
                        rf.release(preg, now);
                    }
                    return false;
                }
            }
        } else {
            None
        };

        // Rename sources against the *current* mapping.
        let map_src = |arch: Option<u8>, map_int: &[PhysReg; 16], map_fp: &[PhysReg; 8]| {
            arch.map(|a| {
                if fp {
                    map_fp[usize::from(a) % 8]
                } else {
                    map_int[usize::from(a) % 16]
                }
            })
        };
        let src1 = map_src(uop.src1, &self.int_map, &self.fp_map);
        let src2 = map_src(uop.src2, &self.int_map, &self.fp_map);
        let ready1 = src1.is_none_or(|p| self.ready_flag(fp, p));
        let ready2 = src2.is_none_or(|p| self.ready_flag(fp, p));
        // Register on the producers' wakeup lists. A duplicate entry (both
        // sources on one register) is harmless: the second visit finds the
        // flags already set.
        {
            let waiters = if fp {
                &mut self.waiters_fp
            } else {
                &mut self.waiters_int
            };
            if let (false, Some(p)) = (ready1, src1) {
                waiters[usize::from(p)].push(slot);
            }
            if let (false, Some(p)) = (ready2, src2) {
                waiters[usize::from(p)].push(slot);
            }
        }

        // Update the rename map.
        let dst = dst.map(|(arch, preg)| {
            let prev = if fp {
                let slot = usize::from(arch) % 8;
                let prev = self.fp_map[slot];
                self.fp_map[slot] = preg;
                self.fp_ready[usize::from(preg)] = false;
                prev
            } else {
                let slot = usize::from(arch) % 16;
                let prev = self.int_map[slot];
                self.int_map[slot] = preg;
                self.int_ready[usize::from(preg)] = false;
                prev
            };
            (preg, Some(prev))
        });

        let port = self.pick_port(uop);
        let mut bound = *uop;
        bound.port = port;
        let values = EntryValues::from_uop(
            &bound,
            dst.map_or(0, |(p, _)| (p & 0x7F) as u8),
            src1.map_or(0, |p| (p & 0x7F) as u8),
            src2.map_or(0, |p| (p & 0x7F) as u8),
            mob.unwrap_or(0),
            ready1,
            ready2,
        );
        let usage = DataUsage {
            src1: uop.src1.is_some(),
            src2: uop.src2.is_some(),
            imm: uop.immediate.is_some(),
        };
        self.parts.sched.allocate_at(slot, &values, usage, now);
        hooks.scheduler_allocated(&mut self.parts.sched, slot, &values, now);

        self.slot_rr = (slot + 1) % self.in_flight.len();
        self.seq += 1;
        self.seq_of[slot] = self.seq;
        if ready1 && ready2 {
            self.ready[usize::from(port)] |= 1 << slot;
        }
        self.free &= !(1 << slot);
        self.in_flight[slot] = Some(InFlight {
            class: uop.class,
            fp,
            dst,
            result: uop.result.bits(),
            src1,
            src2,
            ready1,
            ready2,
            port,
            mem_addr: uop.mem_addr,
            mob,
        });
        true
    }

    /// The first free slot at or after `slot_rr`, wrapping around, that
    /// the scheduler also holds free.
    fn free_slot(&self) -> Option<SlotId> {
        let from_rr = u64::MAX << self.slot_rr;
        slots(self.free & from_rr)
            .chain(slots(self.free & !from_rr))
            .find(|&slot| !self.parts.sched.is_busy(slot))
    }
}

// The parallel sweep engine (`penelope::par`) constructs pipelines inside
// worker threads and moves their results and parts across the thread
// boundary at merge time. These assertions pin that contract: growing a
// non-`Send` member (an `Rc`, a raw pointer, a thread-bound cache handle)
// into any of these types must fail to compile here, not erupt as a trait
// error three crates up.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Pipeline>();
    assert_send::<Parts>();
    assert_send::<PipelineConfig>();
    assert_send::<RunResult>();
    assert_send::<NoHooks>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;

    fn run_trace(n: usize) -> (Pipeline, RunResult) {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let trace = TraceSpec::new(Suite::SpecInt2000, 0).generate(n);
        let result = pipe.run(trace, &mut NoHooks);
        (pipe, result)
    }

    #[test]
    fn retires_every_uop() {
        let (_, result) = run_trace(5_000);
        assert_eq!(result.uops, 5_000);
        assert!(result.cycles > 0);
    }

    #[test]
    fn cpi_is_plausible() {
        let (_, result) = run_trace(20_000);
        let cpi = result.cpi();
        assert!(
            (0.3..=3.0).contains(&cpi),
            "CPI {cpi} outside plausible range"
        );
    }

    #[test]
    fn smaller_cache_raises_cpi() {
        let big = PipelineConfig::default();
        let small = PipelineConfig {
            dl0: CacheConfig::dl0(8, 8),
            dtlb_entries: 32,
            ..PipelineConfig::default()
        };
        let trace = || TraceSpec::new(Suite::Server, 0).generate(30_000);
        let mut p_big = Pipeline::new(big);
        let mut p_small = Pipeline::new(small);
        let r_big = p_big.run(trace(), &mut NoHooks);
        let r_small = p_small.run(trace(), &mut NoHooks);
        assert!(
            r_small.cpi() > r_big.cpi(),
            "8KB/32ent ({}) must be slower than 32KB/128ent ({})",
            r_small.cpi(),
            r_big.cpi()
        );
    }

    #[test]
    fn uniform_policy_balances_alu_ports() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let trace = TraceSpec::new(Suite::Office, 0).generate(30_000);
        let result = pipe.run(trace, &mut NoHooks);
        let u = result.adder_utilization();
        // Port 1 also serves mul (rare in Office), so 0 vs 1 stay close.
        assert!((u[0] - u[1]).abs() < 0.07, "u0={} u1={}", u[0], u[1]);
        // §4.3 band: uniform distribution puts per-adder utilization in the
        // vicinity of 21%.
        assert!(
            (0.08..=0.40).contains(&u[0]),
            "ALU adder utilization {} outside band",
            u[0]
        );
    }

    #[test]
    fn prioritized_policy_skews_alu_ports() {
        let cfg = PipelineConfig {
            adder_policy: AdderPolicy::Prioritized,
            ..PipelineConfig::default()
        };
        let mut pipe = Pipeline::new(cfg);
        let trace = TraceSpec::new(Suite::Office, 0).generate(30_000);
        let result = pipe.run(trace, &mut NoHooks);
        let u = result.adder_utilization();
        assert!(u[0] > u[1] + 0.05, "u0={} u1={}", u[0], u[1]);
    }

    #[test]
    fn structures_report_occupancy_after_run() {
        let (pipe, _) = run_trace(20_000);
        let now = pipe.now();
        let sched_occ = pipe.parts.sched.occupancy(now);
        assert!(
            (0.2..=0.95).contains(&sched_occ),
            "scheduler occupancy {sched_occ}"
        );
        let int_free = pipe.parts.int_rf.free_fraction(now);
        assert!((0.2..=0.9).contains(&int_free), "int free {int_free}");
    }

    #[test]
    fn multiple_runs_accumulate() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let r1 = pipe.run(
            TraceSpec::new(Suite::Office, 0).generate(1_000),
            &mut NoHooks,
        );
        let r2 = pipe.run(
            TraceSpec::new(Suite::Office, 1).generate(1_000),
            &mut NoHooks,
        );
        assert_eq!(r1.uops, 1_000);
        assert_eq!(r2.uops, 1_000);
        let mut merged = r1.clone();
        merged.merge(&r2);
        assert_eq!(merged.uops, 2_000);
        assert_eq!(merged.cycles, r1.cycles + r2.cycles);
    }

    #[test]
    fn hooks_receive_events() {
        #[derive(Default)]
        struct Counter {
            releases: u64,
            sched_releases: u64,
            dl0: u64,
            cycles: u64,
        }
        impl Hooks for Counter {
            fn regfile_released(
                &mut self,
                _rf: &mut RegisterFile,
                _class: RegClass,
                _preg: PhysReg,
                _now: u64,
            ) {
                self.releases += 1;
            }
            fn scheduler_released(&mut self, _s: &mut Scheduler, _slot: SlotId, _now: u64) {
                self.sched_releases += 1;
            }
            fn dl0_accessed(&mut self, _c: &mut SetAssocCache, _o: &AccessOutcome, _now: u64) {
                self.dl0 += 1;
            }
            fn cycle_end(&mut self, _p: &mut Parts, _now: u64) {
                self.cycles += 1;
            }
        }
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = Counter::default();
        let result = pipe.run(
            TraceSpec::new(Suite::Multimedia, 0).generate(5_000),
            &mut hooks,
        );
        assert_eq!(hooks.sched_releases, 5_000);
        assert!(hooks.releases > 0);
        assert!(hooks.dl0 > 0);
        assert_eq!(hooks.cycles, result.cycles);
    }

    #[test]
    fn mob_ids_drain() {
        let (pipe, _) = run_trace(10_000);
        assert_eq!(pipe.parts.mob.in_use_count(), 0, "all MOB ids released");
    }
}
