//! Differential suite for the event-driven pipeline core.
//!
//! [`Pipeline::run`] (skip-ahead scheduling) must be observably identical
//! to [`Pipeline::run_cycle_accurate`] (the per-cycle reference loop):
//! same retired cycles and uops, same residency accounting down to the
//! bit, same telemetry report content. Randomized traces probe the
//! general case; the boundary tests pin the empty trace and a
//! maximally-stalled dependency chain where skip-ahead does all the work.
//! Both cores share allocation, issue and retire, so a pinned digest of
//! the hook stream across scheduler sizes and miss-heavy geometries
//! guards the order those stages produce. A timing-only pipeline
//! ([`Pipeline::try_untracked`]) must produce that same hook stream and
//! the same results as a tracked one under random configurations.

use penelope::sched_aware::SchedulerHooks;
use penelope_telemetry::{TelemetryHooks, TelemetryOutput};
use proptest::prelude::*;
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use tracegen::uop::{Uop, UopClass};
use uarch::btb::Btb;
use uarch::cache::{AccessOutcome, CacheConfig, SetAssocCache};
use uarch::pipeline::{
    AdderPolicy, Hooks, NoHooks, Parts, Pipeline, PipelineConfig, RegClass, RunResult,
};
use uarch::regfile::{PhysReg, RegFileConfig, RegisterFile};
use uarch::scheduler::{EntryValues, Field, Scheduler, SlotId};
use uarch::tlb::Dtlb;

/// Everything an outside observer can see of a finished run: retire
/// totals, per-structure residency integrals (bit-exact, not fractions)
/// and cache statistics.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    uops: u64,
    port_issues: [u64; 5],
    sched_fields: Vec<(u64, Vec<u64>)>,
    int_rf: (u64, Vec<u64>),
    fp_rf: (u64, Vec<u64>),
    dl0_stats: uarch::cache::CacheStats,
}

fn residency(r: &uarch::bitstats::BitResidency) -> (u64, Vec<u64>) {
    (
        r.total_time(),
        (0..r.width()).map(|b| r.zero_cycles(b)).collect(),
    )
}

fn observe<I: IntoIterator<Item = Uop>>(trace: I, event_driven: bool) -> Observed {
    let mut pipe = Pipeline::new(PipelineConfig::default());
    let result = if event_driven {
        pipe.run(trace, &mut NoHooks)
    } else {
        pipe.run_cycle_accurate(trace, &mut NoHooks)
    };
    Observed {
        cycles: result.cycles,
        uops: result.uops,
        port_issues: result.port_issues,
        sched_fields: Field::ALL
            .iter()
            .map(|&f| residency(pipe.parts.sched.field_residency(f)))
            .collect(),
        int_rf: residency(pipe.parts.int_rf.residency()),
        fp_rf: residency(pipe.parts.fp_rf.residency()),
        dl0_stats: pipe.parts.dl0.stats().clone(),
    }
}

/// Telemetry report content for a run (counters, series, histograms) —
/// the simulated-domain body of the JSON run report.
fn telemetry<I: IntoIterator<Item = Uop>>(trace: I, event_driven: bool) -> TelemetryOutput {
    let mut pipe = Pipeline::new(PipelineConfig::default());
    let mut hooks = TelemetryHooks::new(NoHooks, 64, 4096);
    if event_driven {
        pipe.run(trace, &mut hooks);
    } else {
        pipe.run_cycle_accurate(trace, &mut hooks);
    }
    hooks.into_parts().1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_traces_match_the_cycle_accurate_reference(
        suite in 0usize..Suite::ALL.len(),
        seed in 0usize..1024,
        len in 0usize..1500,
    ) {
        let suite = Suite::ALL[suite];
        let spec = TraceSpec::new(suite, seed % suite.trace_count());
        let event = observe(spec.generate(len), true);
        let cycle = observe(spec.generate(len), false);
        prop_assert_eq!(event, cycle);
    }

    #[test]
    fn random_traces_produce_identical_telemetry_reports(
        suite in 0usize..Suite::ALL.len(),
        seed in 0usize..1024,
        len in 1usize..800,
    ) {
        let suite = Suite::ALL[suite];
        let spec = TraceSpec::new(suite, seed % suite.trace_count());
        let event = telemetry(spec.generate(len), true);
        let cycle = telemetry(spec.generate(len), false);
        prop_assert_eq!(event, cycle);
    }
}

#[test]
fn zero_length_trace_is_a_fixed_point_of_both_cores() {
    let event = observe(Vec::new(), true);
    let cycle = observe(Vec::new(), false);
    assert_eq!(event.uops, 0);
    assert_eq!(event, cycle);
}

/// A serial dependency chain at the longest execution latency (FpMul, 6
/// cycles): every uop waits on the previous one's result, so most cycles
/// are idle spans the event core can skip in one step.
fn maximal_stall_chain(len: usize) -> Vec<Uop> {
    (0..len)
        .map(|i| {
            let mut u = Uop::int_alu(1, 1, 2);
            u.class = UopClass::FpMul;
            u.port = UopClass::FpMul.port();
            u.latency = UopClass::FpMul.latency();
            u.pc = i as u64 * 4;
            u
        })
        .collect()
}

#[test]
fn maximal_stall_chain_matches_and_actually_skips() {
    /// Counts how the run's cycles were delivered: ticked one at a time
    /// (`cycle_end`) or covered by a skip-ahead span (`on_idle_span`).
    #[derive(Default)]
    struct SpanCounter {
        ticked: u64,
        spanned: u64,
    }
    impl Hooks for SpanCounter {
        fn cycle_end(&mut self, _parts: &mut Parts, _now: u64) {
            self.ticked += 1;
        }
        fn on_idle_span(&mut self, _parts: &mut Parts, start: u64, end: u64) {
            self.spanned += end - start + 1;
        }
    }

    let trace = maximal_stall_chain(64);
    let event = observe(trace.clone(), true);
    let cycle = observe(trace.clone(), false);
    assert_eq!(event, cycle);

    let mut pipe = Pipeline::new(PipelineConfig::default());
    let mut counter = SpanCounter::default();
    let result = pipe.run(trace, &mut counter);
    assert_eq!(
        counter.ticked + counter.spanned,
        result.cycles,
        "every cycle is either ticked or covered by exactly one span"
    );
    assert!(
        counter.spanned > result.cycles / 2,
        "a serial max-latency chain must be dominated by skipped spans \
         ({} of {} cycles spanned)",
        counter.spanned,
        result.cycles
    );
}

/// FNV-1a 64-bit state fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}

/// Folds every hook call — its kind, the slot/register/way it names and
/// the cycle it fires in — into one digest, and forwards the scheduler
/// events to the paper's balancer, when one is given, so its writes land
/// in the residency pinned alongside. Idle spans are digested as
/// `(start, end)` without a per-cycle replay, so long-miss configurations
/// stay cheap.
struct StreamDigest {
    fnv: Fnv,
    balancer: Option<SchedulerHooks>,
}

impl Hooks for StreamDigest {
    fn regfile_released(
        &mut self,
        _rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        let class = u64::from(class == RegClass::Fp);
        self.fnv.words(&[1, class, u64::from(preg), now]);
    }

    fn regfile_written(
        &mut self,
        _rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        let class = u64::from(class == RegClass::Fp);
        self.fnv.words(&[
            2,
            class,
            u64::from(preg),
            value as u64,
            (value >> 64) as u64,
            now,
        ]);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.fnv.words(&[3, slot as u64, now]);
        if let Some(balancer) = &mut self.balancer {
            balancer.scheduler_released(sched, slot, now);
        }
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.fnv.words(&[4, slot as u64, now]);
        for f in Field::ALL {
            let v = values.get(f);
            self.fnv
                .words(&[u64::from(values.is_driven(f)), v as u64, (v >> 64) as u64]);
        }
        if let Some(balancer) = &mut self.balancer {
            balancer.scheduler_allocated(sched, slot, values, now);
        }
    }

    fn dl0_accessed(&mut self, _dl0: &mut SetAssocCache, out: &AccessOutcome, now: u64) {
        self.fnv
            .words(&[5, u64::from(out.hit), out.set as u64, out.way as u64, now]);
    }

    fn l2_accessed(&mut self, _l2: &mut SetAssocCache, out: &AccessOutcome, now: u64) {
        self.fnv
            .words(&[6, u64::from(out.hit), out.set as u64, out.way as u64, now]);
    }

    fn dtlb_accessed(&mut self, _dtlb: &mut Dtlb, out: &AccessOutcome, now: u64) {
        self.fnv
            .words(&[7, u64::from(out.hit), out.set as u64, out.way as u64, now]);
    }

    fn btb_accessed(&mut self, _btb: &mut Btb, out: &AccessOutcome, now: u64) {
        self.fnv
            .words(&[8, u64::from(out.hit), out.set as u64, out.way as u64, now]);
    }

    fn cycle_end(&mut self, _parts: &mut Parts, now: u64) {
        self.fnv.words(&[9, now]);
    }

    fn on_idle_span(&mut self, _parts: &mut Parts, start: u64, end: u64) {
        self.fnv.words(&[10, start, end]);
    }
}

/// Runs two traces back to back through one pipeline under `config` and
/// digests the hook stream, each trace's `RunResult`, and the final
/// per-field scheduler and register-file residency integers. Returns the
/// digest and the cycles simulated.
fn event_stream_digest(config: PipelineConfig) -> (u64, u64) {
    let mut pipe = Pipeline::try_new(config).expect("valid configuration");
    let mut hooks = StreamDigest {
        fnv: Fnv::new(),
        balancer: Some(SchedulerHooks::paper_default(64)),
    };
    for (suite, seed, len) in [(Suite::Server, 0, 3_000), (Suite::SpecInt2000, 1, 2_000)] {
        let r = pipe.run(TraceSpec::new(suite, seed).generate(len), &mut hooks);
        hooks.fnv.words(&[11, r.cycles, r.uops]);
        hooks.fnv.words(&r.port_issues);
        hooks.fnv.words(&r.adder_ops);
    }
    let now = pipe.now();
    let mut fnv = hooks.fnv;
    for f in Field::ALL {
        let (total, zeros) = residency(pipe.parts.sched.field_residency(f));
        fnv.word(total);
        fnv.words(&zeros);
    }
    for rf in [&pipe.parts.int_rf, &pipe.parts.fp_rf] {
        let (total, zeros) = residency(rf.residency());
        fnv.word(total);
        fnv.words(&zeros);
    }
    (fnv.0, now)
}

/// Pinned event-stream digests: the exact sequence of hook calls (kind,
/// slot/register/way, cycle) and per-trace results the event core
/// produces, across configurations that stress its scheduling queues —
/// small and odd scheduler sizes, miss-heavy geometries, and completion
/// delays far beyond any execution latency. The `run` vs
/// `run_cycle_accurate` differential cannot see a change both legs share
/// (allocation, issue and retire order); these pins can.
#[test]
fn event_stream_matches_pinned_digests() {
    let base = PipelineConfig::default;
    let cases: [(&str, PipelineConfig, u64); 9] = [
        ("default", base(), 0xed72_b257_f0ea_71dd),
        (
            "8KB DL0, 32-entry DTLB",
            PipelineConfig {
                dl0: CacheConfig::dl0(8, 8),
                dtlb_entries: 32,
                ..base()
            },
            0x76b4_6870_8dc8_51fc,
        ),
        (
            "L2, 100k-cycle L2 miss",
            PipelineConfig {
                dl0: CacheConfig::dl0(8, 8),
                l2: Some(CacheConfig {
                    size_bytes: 16 * 1024,
                    ways: 4,
                    line_bytes: 64,
                }),
                l2_miss_penalty: 100_000,
                ..base()
            },
            0x1502_bfee_9e3f_8772,
        ),
        (
            "prioritized adders",
            PipelineConfig {
                adder_policy: AdderPolicy::Prioritized,
                ..base()
            },
            0xfb09_c8f6_4878_93fb,
        ),
        (
            "1 entry",
            PipelineConfig {
                sched_entries: 1,
                ..base()
            },
            0x6f91_20c6_9e70_48a9,
        ),
        (
            "2 entries",
            PipelineConfig {
                sched_entries: 2,
                ..base()
            },
            0xcc3f_688d_36e6_a25c,
        ),
        (
            "31 entries",
            PipelineConfig {
                sched_entries: 31,
                ..base()
            },
            0x52ec_7222_a4d7_5ef7,
        ),
        (
            "33 entries",
            PipelineConfig {
                sched_entries: 33,
                ..base()
            },
            0x0441_a8d4_7a04_a80a,
        ),
        (
            "64 entries",
            PipelineConfig {
                sched_entries: 64,
                ..base()
            },
            0xcc6c_f70e_88f3_c4d2,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, config, pinned) in cases {
        let (got, cycles) = event_stream_digest(config);
        if config.l2_miss_penalty == 100_000 {
            assert!(
                cycles > 1_000_000,
                "{name}: only {cycles} cycles, so no long L2 miss was exercised"
            );
        }
        if got != pinned {
            mismatches.push(format!("{name}: got {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Runs `trace` through a tracked or a timing-only pipeline under
/// `config`, digesting every hook call, and returns the digest with the
/// run's result.
fn hook_stream(config: PipelineConfig, trace: &[Uop], tracked: bool) -> (u64, RunResult) {
    let mut pipe = if tracked {
        Pipeline::try_new(config)
    } else {
        Pipeline::try_untracked(config)
    }
    .expect("valid configuration");
    assert_eq!(pipe.parts.int_rf.is_tracked(), tracked);
    assert_eq!(pipe.parts.sched.is_tracked(), tracked);
    let mut hooks = StreamDigest {
        fnv: Fnv::new(),
        balancer: None,
    };
    let result = pipe.run(trace.iter().cloned(), &mut hooks);
    (hooks.fnv.0, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Leaving out the register-file and scheduler residency moves no
    /// cycle and no hook call, including on register files small enough
    /// to run out and schedulers that fill and stall allocation.
    #[test]
    fn untracked_pipelines_match_tracked_ones(
        suite in 0usize..Suite::ALL.len(),
        seed in 0usize..1024,
        len in 0usize..1200,
        alloc_width in 1u8..=4,
        sched_entries in 1usize..=40,
        sched_ports in 1u8..=4,
        int_entries in 17u16..=48,
        int_ports in 1u8..=4,
        fp_entries in 9u16..=24,
        fp_ports in 1u8..=2,
        dl0_kb in 0usize..3,
        dtlb_entries in 0usize..3,
        release_delay in 0u64..=32,
    ) {
        let config = PipelineConfig {
            alloc_width,
            sched_entries,
            sched_ports,
            int_rf: RegFileConfig { entries: int_entries, write_ports: int_ports, ..RegFileConfig::integer() },
            fp_rf: RegFileConfig { entries: fp_entries, write_ports: fp_ports, ..RegFileConfig::floating_point() },
            dl0: CacheConfig::dl0([8, 16, 32][dl0_kb], 8),
            dtlb_entries: [32, 64, 128][dtlb_entries],
            release_delay,
            ..PipelineConfig::default()
        };
        let suite = Suite::ALL[suite];
        let trace: Vec<Uop> = TraceSpec::new(suite, seed % suite.trace_count())
            .generate(len)
            .collect();
        let tracked = hook_stream(config, &trace, true);
        let untracked = hook_stream(config, &trace, false);
        prop_assert_eq!(tracked, untracked);
    }
}
