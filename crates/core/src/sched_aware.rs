//! The NBTI-aware scheduler (§4.5): per-field balancing techniques.
//!
//! Each field of a released slot is rewritten with balancing contents
//! through a spare allocation port. The technique per field (in the paper's
//! default, per *bit* for the latency field) follows the Figure 3 casuistic:
//!
//! - `ALL1`: latency bits 4–5, port, flags, shift1, shift2;
//! - `ALL1-K%`: latency bits 1–3 (K = 95/75/95%), taken (50%), tos (50%),
//!   ready1/ready2 (60%);
//! - `ISV`: SRC1 data, SRC2 data, immediate (sampled from register
//!   reads/bypasses and from the instruction);
//! - nothing: register tags and MOB id (self-balanced), the valid bit
//!   (always live), and the opcode (balanced by smart encoding).
//!
//! K values may also be *profiled*: [`SchedulerPolicy::from_scheduler`]
//! derives per-bit techniques from a measurement run, the way the paper
//! derives its Ks from 100 profiling traces.

use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::BlockCost;
use penelope_telemetry::Json;
use uarch::pipeline::Hooks;
use uarch::scheduler::{EntryValues, Field, Scheduler, SlotId};

use crate::journal::CellPayload;
use crate::rinv::{IsvGate, Rinv};
use crate::technique::{choose_technique, KCounter, Technique, TechniqueError};

/// Per-bit technique assignment for every scheduler field.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerPolicy {
    bits: [Vec<Technique>; 18],
}

impl SchedulerPolicy {
    /// The paper's classification (§4.5).
    pub fn paper_default() -> Self {
        let mut bits: [Vec<Technique>; 18] =
            std::array::from_fn(|i| vec![Technique::None; Field::ALL[i].width()]);
        let set = |bits: &mut [Vec<Technique>; 18], f: Field, t: Technique| {
            bits[f.index()] = vec![t; f.width()];
        };
        // ALL1 fields.
        set(&mut bits, Field::Port, Technique::All1);
        set(&mut bits, Field::Flags, Technique::All1);
        set(&mut bits, Field::Shift1, Technique::All1);
        set(&mut bits, Field::Shift2, Technique::All1);
        // Latency: bits 1–3 are ALL1-K%, bits 4–5 ALL1 (paper numbering is
        // 1-based).
        bits[Field::Latency.index()] = vec![
            Technique::All1K(0.95),
            Technique::All1K(0.75),
            Technique::All1K(0.95),
            Technique::All1,
            Technique::All1,
        ];
        set(&mut bits, Field::Taken, Technique::All1K(0.50));
        set(&mut bits, Field::Tos, Technique::All1K(0.50));
        set(&mut bits, Field::Ready1, Technique::All1K(0.60));
        set(&mut bits, Field::Ready2, Technique::All1K(0.60));
        // ISV fields.
        set(&mut bits, Field::Src1Data, Technique::Isv);
        set(&mut bits, Field::Src2Data, Technique::Isv);
        set(&mut bits, Field::Immediate, Technique::Isv);
        // Tags, MOB id: self-balanced. Valid: unprotectable. Opcode:
        // balanced by encoding. All remain Technique::None.
        SchedulerPolicy { bits }
    }

    /// Derives a policy from a profiling run: for each bit, applies the
    /// Figure 3 casuistic to its measured occupancy and bias (the paper
    /// computes its K values from 100 random traces the same way).
    ///
    /// Self-balanced fields, the valid bit and the opcode keep
    /// [`Technique::None`]; fields free most of the time get ISV.
    ///
    /// # Errors
    ///
    /// Returns a [`TechniqueError`] if a measured occupancy or bias is
    /// outside `[0, 1]` (a corrupted measurement chain).
    pub fn from_scheduler(sched: &Scheduler, now: u64) -> Result<Self, TechniqueError> {
        let occupancy = sched.occupancy(now);
        let data_occupancy = sched.data_occupancy(now);
        let mut bits: [Vec<Technique>; 18] =
            std::array::from_fn(|i| vec![Technique::None; Field::ALL[i].width()]);
        for field in Field::ALL {
            if field.is_self_balanced() || field == Field::Valid || field == Field::Opcode {
                continue;
            }
            let occ = if field.is_data() {
                data_occupancy
            } else {
                occupancy
            };
            let residency = sched.field_residency(field);
            for (bit, slot) in bits[field.index()].iter_mut().enumerate() {
                // Total-time bias approximates busy-time bias because idle
                // cells keep their last (busy-distribution) contents.
                let b0 = residency.bias(bit).fraction();
                *slot = choose_technique(occ, b0, 1.0 - b0)?;
            }
        }
        Ok(SchedulerPolicy { bits })
    }

    /// The technique protecting one bit of a field.
    pub fn technique(&self, field: Field, bit: usize) -> Technique {
        self.bits[field.index()][bit]
    }

    /// Checks every K fraction in the policy against its `[0, 1]` budget.
    /// `ALL1-K%`/`ALL0-K%` entries are constructed in range by the
    /// casuistic, but policies can also be assembled by hand.
    pub fn validate_k_budgets(&self) -> Result<(), TechniqueError> {
        for field_bits in &self.bits {
            for t in field_bits {
                if let Technique::All1K(k) | Technique::All0K(k) = t {
                    if !(0.0..=1.0).contains(k) {
                        return Err(TechniqueError::BiasOutOfRange(*k));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether any bit of the field receives balancing writes.
    pub fn protects(&self, field: Field) -> bool {
        self.bits[field.index()]
            .iter()
            .any(|t| !matches!(t, Technique::None))
    }
}

/// A technique's journal payload: `"all1"`, `"all0"`, `"isv"`, `"none"`,
/// or `["all1k", k]` / `["all0k", k]`.
impl CellPayload for Technique {
    fn to_payload(&self) -> Json {
        let tag = |name: &str| Json::Str(name.into());
        match *self {
            Technique::All1 => tag("all1"),
            Technique::All0 => tag("all0"),
            Technique::Isv => tag("isv"),
            Technique::None => tag("none"),
            Technique::All1K(k) => Json::Array(vec![tag("all1k"), k.to_payload()]),
            Technique::All0K(k) => Json::Array(vec![tag("all0k"), k.to_payload()]),
        }
    }

    fn from_payload(json: &Json) -> Result<Self, String> {
        if let Some(name) = json.as_str() {
            return match name {
                "all1" => Ok(Technique::All1),
                "all0" => Ok(Technique::All0),
                "isv" => Ok(Technique::Isv),
                "none" => Ok(Technique::None),
                other => Err(format!("unknown technique {other:?}")),
            };
        }
        let (tag, k) = <(String, f64)>::from_payload(json)
            .map_err(|e| format!("technique must be a tag or a [tag, k] pair: {e}"))?;
        match tag.as_str() {
            "all1k" => Ok(Technique::All1K(k)),
            "all0k" => Ok(Technique::All0K(k)),
            other => Err(format!("unknown K-technique {other:?}")),
        }
    }
}

/// The policy's journal payload: one array per field in [`Field::ALL`]
/// order, one technique per bit. Decode refuses any other field count and
/// any field whose array does not hold exactly one technique per bit.
impl CellPayload for SchedulerPolicy {
    fn to_payload(&self) -> Json {
        Json::Array(self.bits.iter().map(CellPayload::to_payload).collect())
    }

    fn from_payload(json: &Json) -> Result<Self, String> {
        let fields = json
            .as_array()
            .ok_or("scheduler policy must be an array of per-field arrays")?;
        if fields.len() != Field::ALL.len() {
            return Err(format!(
                "scheduler policy has {} fields, expected {}",
                fields.len(),
                Field::ALL.len()
            ));
        }
        let mut bits: [Vec<Technique>; 18] = std::array::from_fn(|_| Vec::new());
        for (field, field_bits) in Field::ALL.into_iter().zip(fields) {
            let techniques = Vec::<Technique>::from_payload(field_bits)
                .map_err(|e| format!("policy field {field}: {e}"))?;
            if techniques.len() != field.width() {
                return Err(format!(
                    "policy field {field} has {} techniques, expected one per bit ({})",
                    techniques.len(),
                    field.width()
                ));
            }
            bits[field.index()] = techniques;
        }
        Ok(SchedulerPolicy { bits })
    }
}

/// A field with ISV bits: written only while its timestamp gate is open,
/// so its K-counter bits advance on their own schedule (one tick per
/// write that passes the gate) and cannot fold into the shared templates.
/// The template supplies the field's constant bits; these are ORed on top.
#[derive(Debug, Clone)]
struct GatedField {
    field: Field,
    isv: u128,
    /// The field's K-counter bits written at each phase of its counters
    /// (all zero when it has none).
    k_phases: [u128; KCounter::PERIOD],
    phase: usize,
}

/// Which ISV timestamp gate a field with ISV bits honors: the immediate
/// has its own, every other field shares the SRC-data gate.
fn gate_of(field: Field) -> usize {
    usize::from(field == Field::Immediate)
}

/// The K-counter bits of one field at each phase: bit `b` is set at phase
/// `p` when bit `b`'s counter writes a 1 on its `p`-th tick (`ALL1-K%`
/// writes 1 on majority ticks, `ALL0-K%` on the others).
fn k_phases(techniques: &[Technique]) -> [u128; KCounter::PERIOD] {
    let mut phases = [0u128; KCounter::PERIOD];
    for (bit, t) in techniques.iter().enumerate() {
        let (k, majority_one) = match *t {
            Technique::All1K(k) => (k, true),
            Technique::All0K(k) => (k, false),
            _ => continue,
        };
        let pattern = KCounter::new(k).pattern();
        for (phase, bits) in phases.iter_mut().enumerate() {
            if ((pattern >> phase) & 1 == 1) == majority_one {
                *bits |= 1 << bit;
            }
        }
    }
    phases
}

/// The balancing mechanism: slot-release rewrites driven by a policy.
#[derive(Debug, Clone)]
pub struct SchedulerBalancer {
    policy: SchedulerPolicy,
    /// Write sets of every protected bit but the ISV ones, folded from the
    /// policy once and indexed by (open gates, K phase). Each protected
    /// field is driven whole (its `ALL0`/`None` bits as 0) with its `ALL1`
    /// bits set. A field with ISV bits is written only while its gate is
    /// open, so it appears only in the templates where it is (bit `g` of
    /// the first index for gate `g`). Every other field's K-counters tick
    /// once per successful release, so their bits depend only on the
    /// success count modulo [`KCounter::PERIOD`] — the second index.
    templates: Box<[[EntryValues; KCounter::PERIOD]; 4]>,
    /// Fields with ISV bits, merged on top of the template.
    gated: Vec<GatedField>,
    /// RINV images for the ISV fields.
    rinv_src1: Rinv,
    rinv_src2: Rinv,
    rinv_imm: Rinv,
    /// ISV timestamp gates (data, immediate), sampled on slot 0.
    gates: [IsvGate; 2],
    attempts: u64,
    successes: u64,
}

/// The slot whose residency the ISV gates sample (fixed, like the paper's
/// fixed sampled entry).
const SAMPLED_SLOT: SlotId = 0;

impl SchedulerBalancer {
    /// Creates the mechanism with the given policy; ISV fields sample every
    /// `sample_period` cycles.
    pub fn new(policy: SchedulerPolicy, sample_period: u64) -> Self {
        let mut templates = Box::new([[EntryValues::default(); KCounter::PERIOD]; 4]);
        let mut gated = Vec::new();
        for field in Field::ALL {
            let techniques = &policy.bits[field.index()];
            let mut constant = 0u128;
            let mut isv = 0u128;
            for (bit, t) in techniques.iter().enumerate() {
                match t {
                    Technique::All1 => constant |= 1 << bit,
                    Technique::Isv => isv |= 1 << bit,
                    _ => {}
                }
            }
            if techniques.iter().all(|t| matches!(t, Technique::None)) {
                continue;
            }
            let k_phases = k_phases(techniques);
            // Ungated fields go into every template with their K bits at
            // the template's phase; gated ones into the templates where
            // their gate is open, with their K bits left to `gated`.
            let (open, folded) = if isv != 0 {
                (1 << gate_of(field), [0; KCounter::PERIOD])
            } else {
                (0, k_phases)
            };
            for (index, by_phase) in templates.iter_mut().enumerate() {
                if index & open != open {
                    continue;
                }
                for (template, k_bits) in by_phase.iter_mut().zip(folded) {
                    template.set(field, constant | k_bits);
                }
            }
            if isv != 0 {
                gated.push(GatedField {
                    field,
                    isv,
                    k_phases,
                    phase: 0,
                });
            }
        }
        SchedulerBalancer {
            policy,
            templates,
            gated,
            rinv_src1: Rinv::new(32, sample_period),
            rinv_src2: Rinv::new(32, sample_period),
            rinv_imm: Rinv::new(16, sample_period),
            gates: [IsvGate::default(); 2],
            attempts: 0,
            successes: 0,
        }
    }

    /// With the paper's default classification.
    pub fn paper_default(sample_period: u64) -> Self {
        SchedulerBalancer::new(SchedulerPolicy::paper_default(), sample_period)
    }

    /// The policy in use.
    pub fn policy(&self) -> &SchedulerPolicy {
        &self.policy
    }

    /// Samples the ISV RINVs from a newly captured slot (values come from
    /// the register file read/bypass network and the instruction itself),
    /// and updates the sampled-slot gates.
    pub fn on_allocated(&mut self, slot: SlotId, values: &EntryValues, now: u64) {
        if values.is_driven(Field::Src1Data) {
            self.rinv_src1.offer(values.get(Field::Src1Data), now);
        }
        if values.is_driven(Field::Src2Data) {
            self.rinv_src2.offer(values.get(Field::Src2Data), now);
        }
        if values.is_driven(Field::Immediate) {
            self.rinv_imm.offer(values.get(Field::Immediate), now);
        }
        if slot == SAMPLED_SLOT {
            if values.is_driven(Field::Src1Data) || values.is_driven(Field::Src2Data) {
                self.gates[gate_of(Field::Src1Data)].flip(false, now);
            }
            if values.is_driven(Field::Immediate) {
                self.gates[gate_of(Field::Immediate)].flip(false, now);
            }
        }
    }

    /// Handles a slot release: rewrites the slot's protectable fields with
    /// balancing contents through a spare allocation port (one port per
    /// slot rewrite; updates that find no port are dropped).
    pub fn on_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.attempts += 1;
        if sched.is_busy(slot) || !sched.consume_port(now) {
            return;
        }
        // Ungated K-counters have ticked once per earlier success.
        let phase = (self.successes % KCounter::PERIOD as u64) as usize;
        self.successes += 1;
        // ISV-protected fields honor their timestamp gate: writing inverted
        // samples into every released slot forever would swing the bias
        // past 50% the other way. A gate's decision at `now` does not
        // change when it flips at `now`, so each gate is read once. (A gate
        // no field honors is read and flipped too; nothing reads its state.)
        let mut open = 0;
        for (g, gate) in self.gates.iter().enumerate() {
            if gate.should_invert(now) {
                open |= 1 << g;
            }
        }
        let mut write = self.templates[open][phase];
        for gated in &mut self.gated {
            let field = gated.field;
            if open & (1 << gate_of(field)) == 0 {
                continue;
            }
            let rinv = match field {
                Field::Src2Data => &self.rinv_src2,
                Field::Immediate => &self.rinv_imm,
                // ISV on a non-data field samples the same image as src1
                // (profiled policies may assign it).
                _ => &self.rinv_src1,
            };
            write.or_bits(
                field,
                (rinv.value() & gated.isv) | gated.k_phases[gated.phase],
            );
            gated.phase = (gated.phase + 1) % KCounter::PERIOD;
        }
        sched.write_driven(slot, &write, now);
        if slot == SAMPLED_SLOT {
            for (g, gate) in self.gates.iter_mut().enumerate() {
                if open & (1 << g) != 0 {
                    gate.flip(true, now);
                }
            }
        }
    }

    /// XORs a mask into all three ISV RINV images (fault injection).
    pub fn corrupt_rinv(&mut self, mask: u128) {
        self.rinv_src1.corrupt(mask);
        self.rinv_src2.corrupt(mask);
        self.rinv_imm.corrupt(mask);
    }

    /// Worst staleness over the ISV RINV images at `now`, with the sampling
    /// period (for freshness checks).
    pub fn rinv_staleness(&self, now: u64) -> (u64, u64) {
        let worst = self
            .rinv_src1
            .staleness(now)
            .max(self.rinv_src2.staleness(now))
            .max(self.rinv_imm.staleness(now));
        (worst, self.rinv_src1.period())
    }

    /// Fraction of releases whose balancing write went through (the paper
    /// finds ports available 77% of the time).
    pub fn update_success_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// The §4.5 cost record: ~2% TDP (RINV + counters + timestamps), no
    /// delay impact, guardband from the worst residual bias.
    pub fn block_cost(worst_bias: Duty, model: &GuardbandModel) -> BlockCost {
        let gb = model.cell_guardband(worst_bias);
        BlockCost::new(1.0, 1.02, gb.fraction())
    }
}

/// Hook adapter for the scheduler balancer.
#[derive(Debug, Clone)]
pub struct SchedulerHooks {
    /// The wrapped mechanism.
    pub balancer: SchedulerBalancer,
}

impl SchedulerHooks {
    /// With the paper's default policy.
    pub fn paper_default(sample_period: u64) -> Self {
        SchedulerHooks {
            balancer: SchedulerBalancer::paper_default(sample_period),
        }
    }
}

impl Hooks for SchedulerHooks {
    fn scheduler_allocated(
        &mut self,
        _sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.balancer.on_allocated(slot, values, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.balancer.on_released(sched, slot, now);
    }
}

/// Worst cell duty over the protectable bits of Figure 8 (every field but
/// the opcode; the paper plots exactly that set).
pub fn worst_figure8_bias(sched: &Scheduler) -> Duty {
    Field::ALL
        .iter()
        .filter(|f| **f != Field::Opcode)
        .map(|f| sched.field_residency(*f).worst_cell_duty())
        .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

    #[test]
    fn policy_json_roundtrip_is_exact() {
        // A profiled policy carries measured K values, which must come back
        // bit for bit from the journal text.
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.run(
            TraceSpec::new(Suite::Spec2006, 0).generate(5_000),
            &mut NoHooks,
        );
        let profiled = SchedulerPolicy::from_scheduler(&pipe.parts.sched, pipe.now())
            .expect("profiled biases are in range");
        let k_bits = |policy: &SchedulerPolicy| -> Vec<u64> {
            policy
                .bits
                .iter()
                .flatten()
                .filter_map(|t| match t {
                    Technique::All1K(k) | Technique::All0K(k) => Some(k.to_bits()),
                    _ => None,
                })
                .collect()
        };
        assert!(
            !k_bits(&profiled).is_empty(),
            "the profile picks K techniques"
        );
        for policy in [SchedulerPolicy::paper_default(), profiled] {
            let text = policy.to_payload().encode();
            let parsed = penelope_telemetry::json::parse(&text).expect("parses");
            let restored = SchedulerPolicy::from_payload(&parsed).expect("decodes");
            assert_eq!(restored, policy);
            assert_eq!(k_bits(&restored), k_bits(&policy));
        }
        for (broken, why) in [
            ("[]", "wrong field count"),
            (r#"[["bogus"]]"#, "unknown technique"),
        ] {
            let parsed = penelope_telemetry::json::parse(broken).expect("parses");
            assert!(
                SchedulerPolicy::from_payload(&parsed).is_err(),
                "expected decode error: {why}"
            );
        }
    }

    /// The paper policy's encoding with one field's array resized to
    /// `bits` entries.
    fn resized(field: Field, bits: usize) -> Json {
        let mut json = SchedulerPolicy::paper_default().to_payload();
        if let Json::Array(fields) = &mut json {
            fields[field.index()] = Json::Array(vec![Json::Str("all1".into()); bits]);
        }
        json
    }

    #[test]
    fn policy_decode_rejects_arrays_of_the_wrong_width() {
        // Longer than the 128-bit word, one bit short, one bit long, and
        // empty: each is an error naming the field and both counts, never
        // a panic.
        for (field, bits) in [
            (Field::Src1Data, 129),
            (Field::Latency, 4),
            (Field::Immediate, 17),
            (Field::Valid, 0),
        ] {
            let message = SchedulerPolicy::from_payload(&resized(field, bits))
                .expect_err("a wrong width is refused");
            let expected = format!(
                "policy field {field} has {bits} techniques, expected one per bit ({})",
                field.width()
            );
            assert_eq!(message, expected, "{field} with {bits} bits");
        }
        let exact =
            SchedulerPolicy::from_payload(&resized(Field::Latency, 5)).expect("exact width");
        assert_eq!(exact.technique(Field::Latency, 4), Technique::All1);
    }

    #[test]
    fn paper_policy_classification() {
        let p = SchedulerPolicy::paper_default();
        assert_eq!(p.technique(Field::Flags, 0), Technique::All1);
        assert_eq!(p.technique(Field::Latency, 4), Technique::All1);
        assert!(matches!(
            p.technique(Field::Latency, 1),
            Technique::All1K(k) if (k - 0.75).abs() < 1e-9
        ));
        assert_eq!(p.technique(Field::Src1Data, 13), Technique::Isv);
        assert_eq!(p.technique(Field::DstTag, 0), Technique::None);
        assert_eq!(p.technique(Field::Valid, 0), Technique::None);
        assert!(!p.protects(Field::MobId));
        assert!(p.protects(Field::Taken));
    }

    #[test]
    fn balancer_reduces_scheduler_bias() {
        let trace = || TraceSpec::new(Suite::Office, 2).generate(40_000);

        let mut base = Pipeline::new(PipelineConfig::default());
        base.run(trace(), &mut NoHooks);
        let base_worst = worst_figure8_bias(&base.parts.sched);

        // K values are profiled, exactly as the paper derives them from
        // 100 profiling traces (§4.5).
        let policy = SchedulerPolicy::from_scheduler(&base.parts.sched, base.now())
            .expect("profiled biases are in range");
        let mut aware = Pipeline::new(PipelineConfig::default());
        let mut hooks = SchedulerHooks {
            balancer: SchedulerBalancer::new(policy, 256),
        };
        aware.run(trace(), &mut hooks);
        let aware_worst = worst_figure8_bias(&aware.parts.sched);

        // Paper: worst bias falls from ~100% to 63.2% (their occupancy is
        // 63%; ours is ~70%, and the floor is set by the valid bit, which
        // cannot be protected).
        assert!(base_worst.fraction() > 0.95, "baseline worst {base_worst}");
        assert!(
            aware_worst.fraction() < 0.85,
            "aware {aware_worst} vs baseline {base_worst}"
        );
        assert!(aware_worst.fraction() < base_worst.fraction() - 0.1);
    }

    #[test]
    fn profiled_policy_matches_casuistic_expectations() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.run(
            TraceSpec::new(Suite::SpecInt2000, 0).generate(30_000),
            &mut NoHooks,
        );
        let now = pipe.now();
        let occupancy = pipe.parts.sched.occupancy(now);
        let policy = SchedulerPolicy::from_scheduler(&pipe.parts.sched, now)
            .expect("profiled biases are in range");
        // Flags bits are ~always 0 while busy: above 50% occupancy the
        // casuistic picks an ALL1 variant, below it falls back to ISV.
        if occupancy > 0.5 {
            assert!(matches!(
                policy.technique(Field::Flags, 5),
                Technique::All1 | Technique::All1K(_)
            ));
        } else {
            assert_eq!(policy.technique(Field::Flags, 5), Technique::Isv);
        }
        // Data fields are free most of the time → ISV.
        assert_eq!(policy.technique(Field::Src1Data, 0), Technique::Isv);
        // Self-balanced fields are untouched.
        assert_eq!(policy.technique(Field::MobId, 0), Technique::None);
    }

    #[test]
    fn update_success_rate_reported() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = SchedulerHooks::paper_default(256);
        pipe.run(
            TraceSpec::new(Suite::Kernels, 0).generate(20_000),
            &mut hooks,
        );
        let rate = hooks.balancer.update_success_rate();
        assert!(rate > 0.3, "success rate {rate}");
        assert!(hooks.balancer.attempts > 0);
    }
}
