//! The netlist pass pipeline: dead-cone elimination, instance mapping
//! onto the PMOS stress model, and a seeded deterministic partitioner.
//!
//! [`compile`] runs the pipeline described by a [`PassConfig`] and yields
//! a [`Compiled`] artifact: the (possibly pruned) netlist, its
//! [`PmosTable`], and a gate [`Partition`]. Partitions are *hermetic*: a
//! per-partition stress accumulation ([`accumulate_packed`]) touches
//! only that partition's transistors, and [`MergedStress::merge`] reassembles
//! the exact per-transistor integer counters a single global
//! [`StressTracker`](crate::stress::StressTracker) would have produced —
//! so partitioned aging is byte-identical to unpartitioned aging at any
//! partition count, seed, or job count.

use crate::error::Error;
use crate::gate::GateId;
use crate::netlist::{Netlist, NetlistBuilder};
use crate::pmos::PmosTable;
use crate::stress::{self, PackedCampaign};
use nbti_model::duty::Duty;
use nbti_model::variation::mix64;

/// Default seed of the partitioner's placement scramble.
pub const DEFAULT_PARTITION_SEED: u64 = 0x5EED_B11F;

/// What the pipeline should do. Parsed from a `--passes` spec by
/// [`PassConfig::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Run dead-cone elimination before mapping.
    pub dce: bool,
    /// Fanout threshold of the instance-mapping pass (gates driving at
    /// least this many loads get wide PMOS).
    pub fanout_threshold: u32,
    /// Number of stress partitions (≥ 1).
    pub partitions: usize,
    /// Seed of the partitioner's placement scramble.
    pub seed: u64,
}

impl Default for PassConfig {
    /// The full pipeline: DCE on, paper-calibrated fanout threshold,
    /// four partitions.
    fn default() -> Self {
        PassConfig {
            dce: true,
            fanout_threshold: PmosTable::DEFAULT_WIDE_FANOUT,
            partitions: 4,
            seed: DEFAULT_PARTITION_SEED,
        }
    }
}

impl PassConfig {
    /// Parses a comma-separated pass spec: `dce`, `map:<threshold>`,
    /// `partition:<parts>`. Instance mapping always runs (a netlist
    /// without a PMOS table cannot age); `map:<n>` overrides its fanout
    /// threshold. An empty spec disables DCE and partitioning
    /// (`partitions = 1`).
    pub fn parse(spec: &str) -> Result<Self, Error> {
        let mut config = PassConfig {
            dce: false,
            fanout_threshold: PmosTable::DEFAULT_WIDE_FANOUT,
            partitions: 1,
            seed: DEFAULT_PARTITION_SEED,
        };
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (name, arg) = match item.split_once(':') {
                Some((n, a)) => (n, Some(a)),
                None => (item, None),
            };
            match (name, arg) {
                ("dce", None) => config.dce = true,
                ("map", Some(a)) => {
                    config.fanout_threshold = a.parse().map_err(|_| {
                        Error::pass(format!("`map:{a}`: threshold must be an integer"))
                    })?;
                }
                ("map", None) => {}
                ("partition", Some(a)) => {
                    config.partitions = a.parse().map_err(|_| {
                        Error::pass(format!("`partition:{a}`: count must be an integer"))
                    })?;
                }
                ("partition", None) => config.partitions = 4,
                _ => {
                    return Err(Error::pass(format!(
                        "unknown pass `{item}` (expected dce, map[:threshold], \
                         partition[:parts])"
                    )));
                }
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Rejects degenerate settings.
    pub fn validate(&self) -> Result<(), Error> {
        if self.partitions == 0 {
            return Err(Error::pass("partition count must be at least 1"));
        }
        if self.fanout_threshold == 0 {
            return Err(Error::pass("map fanout threshold must be at least 1"));
        }
        Ok(())
    }
}

/// What dead-cone elimination did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DceStats {
    /// Gates outside the transitive fanin of any primary output.
    pub removed_gates: usize,
    /// Gates kept.
    pub kept_gates: usize,
}

/// Removes every gate outside the transitive fanin of the primary
/// outputs and rebuilds the netlist with canonical ids (all primary
/// inputs first — none are removed, so input arity is stable — then the
/// surviving gates in their original order).
pub fn dead_cone_eliminate(netlist: &Netlist) -> (Netlist, DceStats) {
    let mut driver: Vec<Option<usize>> = vec![None; netlist.net_count()];
    for (gi, gate) in netlist.gates().iter().enumerate() {
        driver[gate.output().index()] = Some(gi);
    }
    let mut live_gate = vec![false; netlist.gates().len()];
    let mut stack: Vec<usize> = netlist.outputs().iter().map(|n| n.index()).collect();
    while let Some(net) = stack.pop() {
        if let Some(gi) = driver[net] {
            if !live_gate[gi] {
                live_gate[gi] = true;
                stack.extend(netlist.gates()[gi].inputs().iter().map(|n| n.index()));
            }
        }
    }

    let mut builder = NetlistBuilder::new();
    // Sentinel-initialized remap: a stale entry would point at a
    // nonexistent net and trip the builder's topological check.
    let mut remap: Vec<crate::gate::NetId> =
        vec![crate::gate::NetId(u32::MAX); netlist.net_count()];
    for &input in netlist.inputs() {
        remap[input.index()] = builder.input();
    }
    let mut kept = 0usize;
    for (gi, gate) in netlist.gates().iter().enumerate() {
        if !live_gate[gi] {
            continue;
        }
        kept += 1;
        let inputs: Vec<crate::gate::NetId> =
            gate.inputs().iter().map(|n| remap[n.index()]).collect();
        builder.set_sizing_wide(netlist.is_explicitly_wide(GateId(gi as u32)));
        let out = builder.add_gate(gate.kind(), inputs);
        remap[gate.output().index()] = out;
    }
    builder.set_sizing_wide(false);
    for &output in netlist.outputs() {
        builder.mark_output(remap[output.index()]);
    }
    let stats = DceStats {
        removed_gates: netlist.gates().len() - kept,
        kept_gates: kept,
    };
    (builder.finish(), stats)
}

/// A seeded deterministic assignment of gates to partitions.
///
/// Gates are visited in a `mix64`-scrambled order and each goes to the
/// currently lightest partition (weight = gate arity = PMOS count, ties
/// to the lowest partition index), so partitions are balanced and the
/// assignment is a pure function of `(netlist, count, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    parts: Vec<u32>,
    count: usize,
    seed: u64,
}

impl Partition {
    /// Partitions `netlist` into `count` parts.
    pub fn build(netlist: &Netlist, count: usize, seed: u64) -> Result<Self, Error> {
        if count == 0 {
            return Err(Error::pass("partition count must be at least 1"));
        }
        let n = netlist.gates().len();
        let mut visit: Vec<usize> = (0..n).collect();
        visit.sort_by_key(|&gi| (mix64(seed ^ (gi as u64).wrapping_mul(0x9E37)), gi));
        let mut load = vec![0u64; count];
        let mut parts = vec![0u32; n];
        for gi in visit {
            let lightest = load
                .iter()
                .enumerate()
                .min_by_key(|&(i, &w)| (w, i))
                .map(|(i, _)| i)
                .unwrap_or(0);
            parts[gi] = lightest as u32;
            load[lightest] += netlist.gates()[gi].inputs().len() as u64;
        }
        Ok(Partition { parts, count, seed })
    }

    /// Number of partitions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The placement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The partition owning a gate.
    pub fn part_of(&self, gate: GateId) -> usize {
        self.parts[gate.index()] as usize
    }

    /// Gate ids of one partition, ascending.
    pub fn gates_in(&self, part: usize) -> impl Iterator<Item = GateId> + '_ {
        self.parts
            .iter()
            .enumerate()
            .filter(move |&(_, &p)| p as usize == part)
            .map(|(gi, _)| GateId(gi as u32))
    }
}

/// The fully compiled artifact of the pass pipeline.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The netlist after (optional) dead-cone elimination.
    pub netlist: Netlist,
    /// Instance mapping: every PMOS with its width class.
    pub table: PmosTable,
    /// The stress partition.
    pub partition: Partition,
    /// Dead-cone elimination statistics (zeros when DCE was off).
    pub dce: DceStats,
}

/// Runs the pass pipeline over a netlist.
pub fn compile(netlist: Netlist, config: &PassConfig) -> Result<Compiled, Error> {
    config.validate()?;
    let (netlist, dce) = if config.dce {
        dead_cone_eliminate(&netlist)
    } else {
        let kept = netlist.gates().len();
        (
            netlist,
            DceStats {
                removed_gates: 0,
                kept_gates: kept,
            },
        )
    };
    let table = PmosTable::build(&netlist, config.fanout_threshold);
    let partition = Partition::build(&netlist, config.partitions, config.seed)?;
    Ok(Compiled {
        netlist,
        table,
        partition,
        dce,
    })
}

/// Integer stress counters for the transistors one partition owns
/// (ascending flat index into the [`PmosTable`]). Exactly mergeable:
/// same integers a global tracker would hold for those transistors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStress {
    /// Which partition this is.
    pub part: usize,
    /// Zero-signal time per owned transistor, ascending flat index.
    pub zero_time: Vec<u64>,
    /// Total observed time (identical across partitions of one run).
    pub total_time: u64,
}

/// Accumulates NBTI stress for the transistors of one partition across a
/// vector campaign (`vectors` = `(assignment, duration)` pairs): packs the
/// campaign and runs [`accumulate_packed`]. Assignment arity is
/// validated, surfacing a typed error instead of misapplied stimulus.
pub fn accumulate_partition(
    netlist: &Netlist,
    table: &PmosTable,
    partition: &Partition,
    part: usize,
    vectors: &[(Vec<bool>, u64)],
) -> Result<PartitionStress, Error> {
    let campaign = PackedCampaign::pack(netlist.inputs().len(), vectors)?;
    accumulate_packed(netlist, table, partition, part, &campaign)
}

/// Accumulates NBTI stress for the transistors of one partition across a
/// packed campaign, 64 vectors per netlist evaluation. Hermetic: reads
/// the shared netlist/table/partition/campaign, writes only its own
/// counters, so every partition cell can share one immutable campaign.
pub fn accumulate_packed(
    netlist: &Netlist,
    table: &PmosTable,
    partition: &Partition,
    part: usize,
    campaign: &PackedCampaign,
) -> Result<PartitionStress, Error> {
    let owned = table
        .transistors()
        .iter()
        .filter(|t| partition.part_of(t.gate) == part);
    let mut zero_time = vec![0u64; owned.clone().count()];
    stress::charge(
        netlist,
        campaign,
        owned.map(|t| t.driven_by),
        &mut zero_time,
    )?;
    Ok(PartitionStress {
        part,
        zero_time,
        total_time: campaign.total_time(),
    })
}

/// Global per-transistor stress counters reassembled from partition
/// cells (merged in ascending partition order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedStress {
    zero_time: Vec<u64>,
    total_time: u64,
}

impl MergedStress {
    /// Merges per-partition counters back into the global flat order.
    /// `cells` must hold every partition exactly once, all observed over
    /// the same total time.
    pub fn merge(
        table: &PmosTable,
        partition: &Partition,
        cells: &[PartitionStress],
    ) -> Result<Self, Error> {
        let mut seen = vec![false; partition.count()];
        let mut zero_time = vec![0u64; table.len()];
        let total_time = cells.first().map_or(0, |c| c.total_time);
        for cell in cells {
            if cell.part >= partition.count() || seen[cell.part] {
                return Err(Error::pass(format!(
                    "merge received partition {} twice or out of range",
                    cell.part
                )));
            }
            seen[cell.part] = true;
            let owned: Vec<usize> = table
                .transistors()
                .iter()
                .enumerate()
                .filter(|(_, t)| partition.part_of(t.gate) == cell.part)
                .map(|(i, _)| i)
                .collect();
            if owned.len() != cell.zero_time.len() {
                return Err(Error::pass(format!(
                    "partition {} cell has {} counters, expected {}",
                    cell.part,
                    cell.zero_time.len(),
                    owned.len()
                )));
            }
            if cell.total_time != total_time {
                return Err(Error::pass(format!(
                    "partition {} cell observed {} cycles, partition {} observed {total_time}",
                    cell.part, cell.total_time, cells[0].part
                )));
            }
            for (slot, &flat) in owned.iter().enumerate() {
                zero_time[flat] = cell.zero_time[slot];
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(Error::pass("merge is missing a partition cell"));
        }
        Ok(MergedStress {
            zero_time,
            total_time,
        })
    }

    /// Total observed time.
    pub fn observed_time(&self) -> u64 {
        self.total_time
    }

    /// Duty of one transistor (flat index) — the same arithmetic as
    /// `StressTracker::duty_of`, so merged partitioned campaigns land on
    /// bit-identical duties.
    pub fn duty_of(&self, flat: usize) -> Duty {
        stress::duty(self.zero_time[flat], self.total_time)
    }

    /// Duties of all transistors, flat order.
    pub fn duties(&self) -> impl Iterator<Item = Duty> + '_ {
        (0..self.zero_time.len()).map(|i| self.duty_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::LadnerFischerAdder;
    use crate::netlist::NetlistBuilder;
    use crate::stress::StressTracker;

    fn toy_with_dead_cone() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let live = b.nand2(a, c);
        let dead1 = b.nor2(a, c);
        let _dead2 = b.inv(dead1);
        b.mark_output(live);
        b.finish()
    }

    #[test]
    fn dce_removes_exactly_the_dead_cone() {
        let n = toy_with_dead_cone();
        let (pruned, stats) = dead_cone_eliminate(&n);
        assert_eq!(stats.removed_gates, 2);
        assert_eq!(stats.kept_gates, 1);
        assert_eq!(pruned.inputs().len(), 2, "primary inputs survive DCE");
        assert_eq!(pruned.gates().len(), 1);
        for x in 0..4u8 {
            let bits = [x & 1 == 1, x & 2 == 2];
            assert_eq!(
                n.evaluate(&bits).get(n.outputs()[0]),
                pruned.evaluate(&bits).get(pruned.outputs()[0]),
            );
        }
    }

    #[test]
    fn dce_is_the_identity_on_a_fully_live_netlist() {
        let adder = LadnerFischerAdder::new(8);
        let n = adder.netlist();
        let (pruned, stats) = dead_cone_eliminate(n);
        assert_eq!(stats.removed_gates, 0);
        assert_eq!(pruned.gates().len(), n.gates().len());
        for (gi, (a, b)) in n.gates().iter().zip(pruned.gates()).enumerate() {
            assert_eq!(a.kind().name(), b.kind().name(), "gate {gi}");
            assert_eq!(a.inputs(), b.inputs(), "gate {gi}");
            assert_eq!(a.output(), b.output(), "gate {gi}");
            let id = GateId(gi as u32);
            assert_eq!(
                n.is_explicitly_wide(id),
                pruned.is_explicitly_wide(id),
                "gate {gi}"
            );
        }
    }

    #[test]
    fn pass_specs_parse() {
        let full = PassConfig::parse("dce,map:3,partition:8").expect("parses");
        assert!(full.dce);
        assert_eq!(full.fanout_threshold, 3);
        assert_eq!(full.partitions, 8);

        let empty = PassConfig::parse("").expect("parses");
        assert!(!empty.dce);
        assert_eq!(empty.partitions, 1);

        assert!(PassConfig::parse("frobnicate").is_err());
        assert!(PassConfig::parse("partition:0").is_err());
        assert!(PassConfig::parse("map:x").is_err());
    }

    #[test]
    fn partitions_are_deterministic_and_cover_every_gate() {
        let adder = LadnerFischerAdder::new(16);
        let n = adder.netlist();
        let p1 = Partition::build(n, 4, 42).expect("builds");
        let p2 = Partition::build(n, 4, 42).expect("builds");
        assert_eq!(p1, p2, "same seed, same placement");
        let p3 = Partition::build(n, 4, 43).expect("builds");
        assert_ne!(p1, p3, "different seed scrambles placement");
        let total: usize = (0..4).map(|p| p1.gates_in(p).count()).sum();
        assert_eq!(total, n.gates().len());
        // Balanced to within one gate's arity.
        let loads: Vec<usize> = (0..4)
            .map(|p| {
                p1.gates_in(p)
                    .map(|g| n.gate(g).inputs().len())
                    .sum::<usize>()
            })
            .collect();
        let (min, max) = (loads.iter().min().copied(), loads.iter().max().copied());
        assert!(max.unwrap() - min.unwrap() <= 3, "loads {loads:?}");
    }

    /// The determinism contract: merged partitioned stress equals a
    /// global tracker bit-for-bit, at any partition count and seed.
    #[test]
    fn partitioned_stress_merges_to_the_global_tracker() {
        let adder = LadnerFischerAdder::new(8);
        let n = adder.netlist();
        let table = PmosTable::with_default_threshold(n);
        let vectors: Vec<(Vec<bool>, u64)> = (0..12u64)
            .map(|i| {
                let a = mix64(i) & 0xFF;
                let b = mix64(i ^ 0xABCD) & 0xFF;
                (adder.input_assignment(a, b, i % 3 == 0), 1 + (i % 5))
            })
            .collect();

        let mut tracker = StressTracker::new(n);
        for (assignment, duration) in &vectors {
            tracker.apply(n, assignment, *duration);
        }

        for (count, seed) in [(1usize, 0u64), (2, 7), (5, 7), (5, 8), (16, 1)] {
            let partition = Partition::build(n, count, seed).expect("builds");
            let cells: Vec<PartitionStress> = (0..count)
                .map(|p| {
                    accumulate_partition(n, &table, &partition, p, &vectors).expect("arity matches")
                })
                .collect();
            let merged = MergedStress::merge(&table, &partition, &cells).expect("complete cells");
            assert_eq!(merged.observed_time(), tracker.observed_time());
            for flat in 0..table.len() {
                assert_eq!(
                    merged.duty_of(flat).fraction().to_bits(),
                    tracker.duty_of(flat).fraction().to_bits(),
                    "transistor {flat} (count={count}, seed={seed})"
                );
            }
        }
    }

    #[test]
    fn accumulate_validates_stimulus_arity() {
        let adder = LadnerFischerAdder::new(8);
        let n = adder.netlist();
        let table = PmosTable::with_default_threshold(n);
        let partition = Partition::build(n, 2, 0).expect("builds");
        let bad = vec![(vec![true; 3], 1u64)];
        let err = accumulate_partition(n, &table, &partition, 0, &bad)
            .expect_err("short vector is rejected");
        assert!(
            matches!(
                err,
                Error::InputArity {
                    expected: 17,
                    got: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn merge_rejects_incomplete_or_duplicate_cells() {
        let adder = LadnerFischerAdder::new(4);
        let n = adder.netlist();
        let table = PmosTable::with_default_threshold(n);
        let partition = Partition::build(n, 2, 0).expect("builds");
        let cell0 = accumulate_partition(n, &table, &partition, 0, &[]).expect("ok");
        assert!(MergedStress::merge(&table, &partition, std::slice::from_ref(&cell0)).is_err());
        assert!(MergedStress::merge(&table, &partition, &[cell0.clone(), cell0]).is_err());
    }

    #[test]
    fn merge_rejects_cells_observed_over_different_times() {
        let adder = LadnerFischerAdder::new(4);
        let n = adder.netlist();
        let table = PmosTable::with_default_threshold(n);
        let partition = Partition::build(n, 2, 0).expect("builds");
        let short = vec![(vec![false; 9], 3u64)];
        let long = vec![(vec![false; 9], 3u64), (vec![true; 9], 2)];
        let cell0 = accumulate_partition(n, &table, &partition, 0, &short).expect("ok");
        let cell1 = accumulate_partition(n, &table, &partition, 1, &long).expect("ok");
        let err = MergedStress::merge(&table, &partition, &[cell0.clone(), cell1])
            .expect_err("mixed campaigns are rejected");
        assert!(err.to_string().contains("observed"), "{err}");
        let cell1 = accumulate_partition(n, &table, &partition, 1, &short).expect("ok");
        let merged = MergedStress::merge(&table, &partition, &[cell0, cell1]).expect("consistent");
        assert_eq!(merged.observed_time(), 3);
    }

    #[test]
    fn compile_runs_the_full_pipeline() {
        let n = toy_with_dead_cone();
        let compiled = compile(n, &PassConfig::default()).expect("compiles");
        assert_eq!(compiled.dce.removed_gates, 2);
        assert_eq!(compiled.table.len(), compiled.netlist.pmos_count());
        assert_eq!(compiled.partition.count(), 4);
    }
}
