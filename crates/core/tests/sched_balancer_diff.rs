//! Differential test of the scheduler balancer's release path.
//!
//! `SchedulerBalancer::on_released` folds the policy into write-set
//! templates and makes one `Scheduler::write_driven` call per release. The
//! reference below is the straightforward per-field loop over the public
//! API: for every protected field, honor its ISV gate, build the value bit
//! by bit with `technique::balancing_value`, and write it with
//! `Scheduler::write_field`. Both drive identical schedulers through random
//! allocations, releases and times, and must leave identical slot contents,
//! identical per-field residency after `sync`, and identical update
//! success rates.

use penelope::journal::CellPayload;
use penelope::rinv::Rinv;
use penelope::sched_aware::{SchedulerBalancer, SchedulerPolicy};
use penelope::technique::{balancing_value, KCounter, Technique};
use penelope_telemetry::json::parse;
use proptest::prelude::*;
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};
use uarch::scheduler::{DataUsage, EntryValues, Field, Scheduler, SlotId};

const SAMPLE_PERIOD: u64 = 16;

/// The §3.2.2 timestamp gate, as the balancer keeps it.
#[derive(Debug, Clone, Copy, Default)]
struct Gate {
    inverted: bool,
    since: u64,
    time_inverted: u64,
    time_normal: u64,
}

impl Gate {
    fn flip(&mut self, inverted: bool, now: u64) {
        let elapsed = now.saturating_sub(self.since);
        if self.inverted {
            self.time_inverted += elapsed;
        } else {
            self.time_normal += elapsed;
        }
        self.inverted = inverted;
        self.since = now;
    }

    fn should_invert(&self, now: u64) -> bool {
        let open = now.saturating_sub(self.since);
        let (inv, norm) = if self.inverted {
            (self.time_inverted + open, self.time_normal)
        } else {
            (self.time_inverted, self.time_normal + open)
        };
        norm >= inv
    }
}

/// The per-field release loop: one `write_field` per protected field.
struct Reference {
    policy: SchedulerPolicy,
    counters: Vec<Vec<KCounter>>,
    /// SRC1 data, SRC2 data, immediate.
    rinvs: [Rinv; 3],
    /// SRC data gate, immediate gate.
    gates: [Gate; 2],
    attempts: u64,
    successes: u64,
}

impl Reference {
    fn new(policy: SchedulerPolicy) -> Self {
        let counters = Field::ALL
            .iter()
            .map(|&field| {
                (0..field.width())
                    .map(|bit| match policy.technique(field, bit) {
                        Technique::All1K(k) | Technique::All0K(k) => KCounter::new(k),
                        _ => KCounter::new(1.0),
                    })
                    .collect()
            })
            .collect();
        Reference {
            policy,
            counters,
            rinvs: [
                Rinv::new(32, SAMPLE_PERIOD),
                Rinv::new(32, SAMPLE_PERIOD),
                Rinv::new(16, SAMPLE_PERIOD),
            ],
            gates: [Gate::default(); 2],
            attempts: 0,
            successes: 0,
        }
    }

    fn on_allocated(&mut self, slot: SlotId, values: &EntryValues, now: u64) {
        for (rinv, field) in
            self.rinvs
                .iter_mut()
                .zip([Field::Src1Data, Field::Src2Data, Field::Immediate])
        {
            if values.is_driven(field) {
                rinv.offer(values.get(field), now);
            }
        }
        if slot == 0 {
            if values.is_driven(Field::Src1Data) || values.is_driven(Field::Src2Data) {
                self.gates[0].flip(false, now);
            }
            if values.is_driven(Field::Immediate) {
                self.gates[1].flip(false, now);
            }
        }
    }

    fn on_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.attempts += 1;
        if sched.is_busy(slot) || !sched.consume_port(now) {
            return;
        }
        self.successes += 1;
        for field in Field::ALL {
            if !self.policy.protects(field) {
                continue;
            }
            let gated =
                (0..field.width()).any(|b| self.policy.technique(field, b) == Technique::Isv);
            let g = usize::from(field == Field::Immediate);
            if gated && !self.gates[g].should_invert(now) {
                continue;
            }
            let rinv = match field {
                Field::Src2Data => &self.rinvs[1],
                Field::Immediate => &self.rinvs[2],
                _ => &self.rinvs[0],
            };
            let mut value = 0u128;
            for bit in 0..field.width() {
                let technique = self.policy.technique(field, bit);
                let counter = &mut self.counters[field.index()][bit];
                if let Some(v) = balancing_value(technique, 128, rinv, counter) {
                    value |= v & (1 << bit);
                }
            }
            sched.write_field(slot, field, value, now);
            if gated && slot == 0 {
                self.gates[g].flip(true, now);
            }
        }
    }

    fn update_success_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

/// SplitMix64: the random slot contents and times of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random slot contents: every field random, each driven with
/// probability 3/4.
fn random_entry(rng: &mut Rng) -> EntryValues {
    let mut entry = EntryValues::default();
    for field in Field::ALL {
        let value = (u128::from(rng.next()) << 64) | u128::from(rng.next());
        if rng.below(4) != 0 {
            entry.set(field, value);
        }
    }
    entry
}

fn assert_same_slots(a: &Scheduler, b: &Scheduler, step: usize) {
    for slot in 0..a.len() {
        for field in Field::ALL {
            assert_eq!(
                a.field_value(slot, field),
                b.field_value(slot, field),
                "step {step}: slot {slot} field {field}"
            );
        }
    }
}

/// Drives the balancer and the reference through the same random
/// allocate/release stream and compares everything they leave behind.
fn check_policy(policy: &SchedulerPolicy, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let entries = 1 + rng.below(8) as usize;
    let ports = 1 + rng.below(3) as u8;
    let mut fast = Scheduler::new(entries, ports);
    let mut slow = Scheduler::new(entries, ports);
    let mut balancer = SchedulerBalancer::new(policy.clone(), SAMPLE_PERIOD);
    let mut reference = Reference::new(policy.clone());
    let mut now = 0u64;
    for step in 0..steps {
        // Same-cycle events share (and exhaust) the ports.
        now += [0, 0, 1, 2, 7, 40][rng.below(6) as usize];
        let slot = rng.below(entries as u64) as usize;
        if fast.is_busy(slot) {
            fast.release(slot, now);
            slow.release(slot, now);
            balancer.on_released(&mut fast, slot, now);
            reference.on_released(&mut slow, slot, now);
        } else {
            let entry = random_entry(&mut rng);
            let usage = DataUsage {
                src1: entry.is_driven(Field::Src1Data),
                src2: entry.is_driven(Field::Src2Data),
                imm: entry.is_driven(Field::Immediate),
            };
            fast.allocate_at(slot, &entry, usage, now);
            slow.allocate_at(slot, &entry, usage, now);
            balancer.on_allocated(slot, &entry, now);
            reference.on_allocated(slot, &entry, now);
        }
        assert_same_slots(&fast, &slow, step);
    }
    now += 3;
    fast.sync(now);
    slow.sync(now);
    for field in Field::ALL {
        assert_eq!(
            fast.field_residency(field),
            slow.field_residency(field),
            "residency of {field}"
        );
    }
    assert_eq!(
        balancer.update_success_rate(),
        reference.update_success_rate()
    );
}

/// A policy from its journal payload, one entry per bit.
fn hand_built(fields: &[(Field, &str)]) -> SchedulerPolicy {
    let mut per_field: Vec<String> = Field::ALL
        .iter()
        .map(|f| format!("[{}]", vec!["\"none\""; f.width()].join(",")))
        .collect();
    for &(field, bits) in fields {
        per_field[field.index()] = bits.to_string();
    }
    let json = parse(&format!("[{}]", per_field.join(","))).expect("valid JSON");
    SchedulerPolicy::from_payload(&json).expect("well-formed policy")
}

/// ISV on control fields (behind the SRC data gate), `ALL0-K%`, and `None`
/// bits inside protected fields, next to gated data fields that mix ISV
/// with constant and K bits.
fn mixed_policy() -> SchedulerPolicy {
    hand_built(&[
        (
            Field::Latency,
            r#"["isv", "none", ["all0k", 0.3], "all1", "all0"]"#,
        ),
        (
            Field::Port,
            r#"[["all0k", 0.6], "none", "all1", "none", "all0"]"#,
        ),
        (
            Field::Flags,
            r#"["isv", "isv", "none", "all1", "isv", "none"]"#,
        ),
        (Field::Tos, r#"["none", ["all0k", 0.5], "none"]"#),
        (Field::Valid, r#"[["all0k", 0.25]]"#),
        (Field::Ready1, r#"["isv"]"#),
        (Field::Ready2, r#"[["all1k", 0.4]]"#),
        (
            Field::Immediate,
            r#"["isv", "all1", ["all1k", 0.7], "none", "isv", "isv", "isv", "isv",
               "isv", "isv", "isv", "isv", "all0", "isv", "isv", "isv"]"#,
        ),
        (
            Field::Opcode,
            r#"["isv", "isv", "isv", "isv", "isv", "isv",
                            "none", "none", "all1", ["all0k", 0.1], "isv", "isv"]"#,
        ),
        (
            Field::DstTag,
            r#"["none", "none", "none", "none", "none", "none", "all1"]"#,
        ),
    ])
}

/// Every protected field is `ALL0-K%` (no gates at all).
fn all0k_policy() -> SchedulerPolicy {
    let fields: Vec<(Field, String)> = Field::ALL
        .iter()
        .map(|&f| {
            let k = 0.1 + 0.05 * f.index() as f64;
            (
                f,
                format!(
                    "[{}]",
                    vec![format!("[\"all0k\", {k}]"); f.width()].join(",")
                ),
            )
        })
        .collect();
    let refs: Vec<(Field, &str)> = fields.iter().map(|(f, s)| (*f, s.as_str())).collect();
    hand_built(&refs)
}

fn profiled_policy() -> SchedulerPolicy {
    let mut pipe = Pipeline::new(PipelineConfig::default());
    pipe.run(
        TraceSpec::new(Suite::Office, 1).generate(6_000),
        &mut NoHooks,
    );
    SchedulerPolicy::from_scheduler(&pipe.parts.sched, pipe.now())
        .expect("profiled biases are in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paper_default_matches_the_per_field_loop(seed in any::<u64>()) {
        check_policy(&SchedulerPolicy::paper_default(), seed, 400);
    }

    #[test]
    fn hand_built_policies_match_the_per_field_loop(seed in any::<u64>()) {
        check_policy(&mixed_policy(), seed, 400);
        check_policy(&all0k_policy(), seed, 400);
    }
}

#[test]
fn profiled_policy_matches_the_per_field_loop() {
    let policy = profiled_policy();
    for seed in 0..16 {
        check_policy(&policy, seed, 400);
    }
}

#[test]
fn the_hand_built_policies_say_what_they_test() {
    let mixed = mixed_policy();
    assert_eq!(mixed.technique(Field::Flags, 0), Technique::Isv);
    assert_eq!(mixed.technique(Field::Flags, 2), Technique::None);
    assert!(matches!(
        mixed.technique(Field::Port, 0),
        Technique::All0K(_)
    ));
    assert!(mixed.protects(Field::Valid));
    assert!(!mixed.protects(Field::Src1Data));
    let all0k = all0k_policy();
    assert!(Field::ALL
        .iter()
        .all(|&f| matches!(all0k.technique(f, 0), Technique::All0K(_))));
}
