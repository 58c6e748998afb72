//! Property-based tests: adder correctness over the full operand space and
//! stress-tracking invariants, plus the differential suite of the
//! word-parallel stress engine against a per-transistor scalar oracle.

use gatesim::adder::{LadnerFischerAdder, RippleCarryAdder};
use gatesim::error::Error;
use gatesim::netlist::{Netlist, NetlistBuilder};
use gatesim::passes::{accumulate_packed, Partition};
use gatesim::pmos::PmosTable;
use gatesim::stress::{PackedCampaign, StressTracker};
use gatesim::vectors::{evaluate_pair, SyntheticVector, VectorPair};
use nbti_model::duty::DutyAccumulator;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ladner_fischer_32_matches_u32_addition(a in any::<u32>(), b in any::<u32>(), cin in any::<bool>()) {
        let adder = LadnerFischerAdder::new(32);
        let (sum, cout) = adder.add(u64::from(a), u64::from(b), cin);
        let wide = u64::from(a) + u64::from(b) + u64::from(cin);
        prop_assert_eq!(sum, wide & 0xFFFF_FFFF);
        prop_assert_eq!(cout, wide >> 32 != 0);
    }

    #[test]
    fn ladner_fischer_64_matches_u64_addition(a in any::<u64>(), b in any::<u64>(), cin in any::<bool>()) {
        let adder = LadnerFischerAdder::new(64);
        let (sum, cout) = adder.add(a, b, cin);
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(u64::from(cin));
        prop_assert_eq!(sum, s2);
        prop_assert_eq!(cout, c1 || c2);
    }

    #[test]
    fn both_adders_agree(width in 1usize..=16, a in any::<u64>(), b in any::<u64>(), cin in any::<bool>()) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let lf = LadnerFischerAdder::new(width);
        let rca = RippleCarryAdder::new(width);
        prop_assert_eq!(lf.add(a, b, cin), rca.add(a, b, cin));
    }

    #[test]
    fn netlist_evaluation_is_pure(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        let mut builder = NetlistBuilder::new();
        let x = builder.input();
        let y = builder.input();
        let z = builder.input();
        let g1 = builder.aoi21(x, y, z);
        let g2 = builder.xor2(g1, x);
        builder.mark_output(g2);
        let netlist = builder.finish();
        let v1 = netlist.evaluate(&[a, b, c]);
        let v2 = netlist.evaluate(&[a, b, c]);
        prop_assert_eq!(v1.get(g2), v2.get(g2));
        // And it matches the boolean formula.
        let expected = !((a && b) || c) ^ a;
        prop_assert_eq!(v1.get(g2), expected);
    }

    #[test]
    fn pair_stress_duties_are_quantized(i in 0usize..8, j in 0usize..8) {
        prop_assume!(i < j);
        let adder = LadnerFischerAdder::new(8);
        let pair = VectorPair {
            first: SyntheticVector::ALL[i],
            second: SyntheticVector::ALL[j],
        };
        let stress = evaluate_pair(&adder, pair);
        // Alternating two vectors can only give 0, 1/2 or 1.
        let f = stress.worst_narrow_duty.fraction();
        prop_assert!(
            (f - 0.0).abs() < 1e-12 || (f - 0.5).abs() < 1e-12 || (f - 1.0).abs() < 1e-12
        );
        prop_assert!((0.0..=1.0).contains(&stress.narrow_fully_stressed));
    }

    #[test]
    fn stress_tracker_observes_all_time(durations in prop::collection::vec(1u64..50, 1..20)) {
        let adder = LadnerFischerAdder::new(4);
        let mut tracker = StressTracker::new(adder.netlist());
        let mut total = 0;
        for (i, d) in durations.iter().enumerate() {
            let v = SyntheticVector::ALL[i % 8];
            let (a, b, cin) = v.operands(4);
            tracker.apply(adder.netlist(), &adder.input_assignment(a, b, cin), *d);
            total += d;
        }
        prop_assert_eq!(tracker.observed_time(), total);
        for (_, duty) in tracker.duties() {
            prop_assert!((0.0..=1.0).contains(&duty.fraction()));
        }
    }
}

// ------------------------------------------- word-parallel stress engine

/// Splitmix-style finalizer, the seed source of the differential cases.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random netlist whose gate kinds cycle through all seven
/// primitives, with operands drawn from every earlier net and a third of
/// the gates upsized.
fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    let mut nets = b.input_bus(inputs);
    for g in 0..gates {
        let r = mix64(seed ^ (g as u64) << 20);
        let pick = |shift: u32| nets[(r >> shift) as usize % nets.len()];
        let (x, y, z) = (pick(0), pick(16), pick(32));
        b.set_sizing_wide(r >> 62 == 0);
        let out = match g % 7 {
            0 => b.inv(x),
            1 => b.nand2(x, y),
            2 => b.nand3(x, y, z),
            3 => b.nor2(x, y),
            4 => b.nor3(x, y, z),
            5 => b.aoi21(x, y, z),
            _ => b.oai21(x, y, z),
        };
        nets.push(out);
    }
    b.set_sizing_wide(false);
    b.mark_output(*nets.last().expect("at least one net"));
    b.finish()
}

/// Seeded durations mixing 0, the driver's 1..=7 and values up to 2^40,
/// so blocks need anywhere from 0 to 41 duration planes.
fn duration(seed: u64, j: usize) -> u64 {
    let r = mix64(seed ^ 0xD0 ^ (j as u64) << 24);
    match r % 4 {
        0 => 0,
        1 | 2 => 1 + (r >> 8) % 7,
        _ => (r >> 8) % ((1u64 << 40) + 1),
    }
}

fn campaign(seed: u64, inputs: usize, len: usize) -> Vec<(Vec<bool>, u64)> {
    (0..len)
        .map(|j| {
            let r = mix64(seed ^ 0xA5 ^ (j as u64) << 32);
            let assignment = (0..inputs).map(|i| (r >> (i % 64)) & 1 == 1).collect();
            (assignment, duration(seed, j))
        })
        .collect()
}

/// The scalar oracle: one `DutyAccumulator` update per transistor per
/// vector, over `Netlist::evaluate`.
fn oracle(
    netlist: &Netlist,
    table: &PmosTable,
    vectors: &[(Vec<bool>, u64)],
) -> Vec<DutyAccumulator> {
    let mut acc = vec![DutyAccumulator::new(); table.len()];
    for (assignment, duration) in vectors {
        let values = netlist.evaluate(assignment);
        for (pmos, a) in table.transistors().iter().zip(&mut acc) {
            a.record(values.get(pmos.driven_by), *duration);
        }
    }
    acc
}

/// Campaign lengths around the 64-lane block boundary.
const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 200];

#[test]
fn packed_partition_counters_match_the_scalar_oracle() {
    for seed in 0..6u64 {
        let inputs = 1 + (seed as usize * 5) % 11;
        let netlist = random_netlist(seed, inputs, 40 + 13 * seed as usize);
        let table = PmosTable::with_default_threshold(&netlist);
        for len in LENGTHS {
            let vectors = campaign(seed, inputs, len);
            let expected = oracle(&netlist, &table, &vectors);
            let total: u64 = vectors.iter().map(|(_, d)| d).sum();
            let packed = PackedCampaign::pack(inputs, &vectors).expect("arity matches");
            assert_eq!(packed.len(), len);
            assert_eq!(packed.blocks().len(), len.div_ceil(64));
            for parts in [1usize, 3] {
                let partition = Partition::build(&netlist, parts, seed).expect("builds");
                for part in 0..parts {
                    let cell =
                        accumulate_packed(&netlist, &table, &partition, part, &packed).expect("ok");
                    assert_eq!(cell.total_time, total, "seed {seed} len {len}");
                    let owned = table
                        .transistors()
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| partition.part_of(t.gate) == part)
                        .map(|(flat, _)| expected[flat].zero_time());
                    assert!(
                        owned.eq(cell.zero_time.iter().copied()),
                        "seed {seed} len {len} partition {part}/{parts}"
                    );
                }
            }
        }
    }
}

#[test]
fn packed_tracker_counters_match_the_scalar_oracle() {
    for seed in 10..16u64 {
        let inputs = 2 + (seed as usize * 3) % 9;
        let netlist = random_netlist(seed, inputs, 60);
        let table = PmosTable::with_default_threshold(&netlist);
        for len in LENGTHS {
            let vectors = campaign(seed, inputs, len);
            let expected = oracle(&netlist, &table, &vectors);
            // Two packed halves applied in turn land on the same counters
            // as one campaign: the tracker accumulates across calls.
            let (head, tail) = vectors.split_at(len / 3);
            let mut tracker = StressTracker::new(&netlist);
            for half in [head, tail] {
                let packed = PackedCampaign::pack(inputs, half).expect("arity matches");
                tracker
                    .apply_packed(&netlist, &packed)
                    .expect("arity matches");
            }
            let zero: Vec<u64> = expected.iter().map(DutyAccumulator::zero_time).collect();
            assert_eq!(
                tracker.zero_times(),
                zero.as_slice(),
                "seed {seed} len {len}"
            );
            let total = expected.first().map_or(0, DutyAccumulator::total_time);
            assert_eq!(tracker.observed_time(), total, "seed {seed} len {len}");
            for (i, acc) in expected.iter().enumerate() {
                assert_eq!(
                    tracker.duty_of(i),
                    acc.duty(),
                    "seed {seed} len {len} pmos {i}"
                );
            }
        }
    }
}

#[test]
fn packing_rejects_wrong_arity_and_sizes_planes_per_block() {
    let err = PackedCampaign::pack(3, &[(vec![true; 3], 1), (vec![true; 2], 1)])
        .expect_err("short vector");
    assert!(
        matches!(
            err,
            Error::InputArity {
                expected: 3,
                got: 2
            }
        ),
        "{err}"
    );
    let netlist = random_netlist(1, 4, 10);
    let packed = PackedCampaign::pack(3, &[]).expect("empty");
    assert!(StressTracker::new(&netlist)
        .apply_packed(&netlist, &packed)
        .is_err());

    // 65 vectors: a full block whose longest hold is 2^40 (41 planes) and
    // a one-lane block held 5 cycles (3 planes).
    let mut vectors: Vec<(Vec<bool>, u64)> = (0..64).map(|j| (vec![j % 2 == 0], 1)).collect();
    vectors[17].1 = 1 << 40;
    vectors.push((vec![true], 5));
    let packed = PackedCampaign::pack(1, &vectors).expect("arity matches");
    assert_eq!(packed.blocks().len(), 2);
    assert_eq!(packed.blocks()[0].planes().len(), 41);
    assert_eq!(packed.blocks()[1].planes(), &[1, 0, 1]);
    assert_eq!(packed.blocks()[1].words(), &[1]);
    assert_eq!(packed.total_time(), 63 + (1 << 40) + 5);
}
