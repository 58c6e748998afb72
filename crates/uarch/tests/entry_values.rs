//! `EntryValues` stores a slot write set as two packed group words, their
//! driven masks and the three 1-bit fields. These tests pin its public
//! view field by field: `set` round-trips through `get`/`is_driven` for
//! every field without disturbing the others (as does `or_bits`, which
//! unions into the field instead), and `from_uop` agrees with a
//! per-field reference of Table 2's capture rules.

use proptest::prelude::*;
use tracegen::uop::{Uop, UopClass};
use uarch::scheduler::{EntryValues, Field};

fn mask(field: Field) -> u128 {
    (1u128 << field.width()) - 1
}

/// What allocation captures for each field, and whether it drives it: the
/// per-field form of the capture rules (one value and one write enable per
/// Table 2 field).
fn reference(uop: &Uop, tags: (u8, u8, u8), mob_id: u8, ready: (bool, bool)) -> [(u128, bool); 18] {
    Field::ALL.map(|field| {
        let (value, driven) = match field {
            Field::Valid => (1, true),
            Field::Latency => (u128::from(uop.latency), true),
            Field::Port => (1 << (uop.port % 5), true),
            Field::Taken => (u128::from(uop.taken), uop.class == UopClass::Branch),
            Field::MobId => (u128::from(mob_id), uop.class.is_memory()),
            Field::Tos => (u128::from(uop.tos), uop.class.is_fp()),
            Field::Flags => (u128::from(uop.flags), true),
            Field::Shift1 => (u128::from(uop.shift1), true),
            Field::Shift2 => (u128::from(uop.shift2), true),
            Field::DstTag => (u128::from(tags.0), uop.dst.is_some()),
            Field::Src1Tag => (u128::from(tags.1), uop.src1.is_some()),
            Field::Src2Tag => (u128::from(tags.2), uop.src2.is_some()),
            Field::Ready1 => (u128::from(ready.0), true),
            Field::Ready2 => (u128::from(ready.1), true),
            Field::Src1Data => (u128::from(uop.src1_val), uop.src1.is_some()),
            Field::Src2Data => (u128::from(uop.src2_val), uop.src2.is_some()),
            Field::Immediate => (
                u128::from(uop.immediate.unwrap_or(0)),
                uop.immediate.is_some(),
            ),
            Field::Opcode => (u128::from(uop.opcode), true),
        };
        (value & mask(field), driven)
    })
}

fn any_uop() -> impl Strategy<Value = Uop> {
    (
        (0usize..UopClass::ALL.len(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<u16>()),
    )
        .prop_map(|((class, a, b), (src1_val, src2_val, imm))| {
            let mut uop = Uop::int_alu(a as u8, (a >> 8) as u8, (a >> 16) as u8);
            uop.class = UopClass::ALL[class];
            uop.dst = (a >> 24 & 1 == 1).then_some(uop.dst.unwrap_or(0));
            uop.src1 = (a >> 25 & 1 == 1).then_some(uop.src1.unwrap_or(0));
            uop.src2 = (a >> 26 & 1 == 1).then_some(uop.src2.unwrap_or(0));
            uop.immediate = (a >> 27 & 1 == 1).then_some(imm);
            uop.src1_val = src1_val;
            uop.src2_val = src2_val;
            uop.latency = (b >> 8) as u8;
            uop.port = (b >> 16) as u8;
            uop.flags = (b >> 24) as u8;
            uop.taken = b >> 32 & 1 == 1;
            uop.tos = (b >> 40) as u8;
            uop.shift1 = b >> 48 & 1 == 1;
            uop.shift2 = b >> 49 & 1 == 1;
            uop.opcode = (b >> 50) as u16 | (a >> 32) as u16;
            uop
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_uop_matches_the_per_field_reference(
        uop in any_uop(),
        tags in (any::<u8>(), any::<u8>(), any::<u8>()),
        mob_id in any::<u8>(),
        ready in (any::<bool>(), any::<bool>()),
    ) {
        let entry = EntryValues::from_uop(&uop, tags.0, tags.1, tags.2, mob_id, ready.0, ready.1);
        let expected = reference(&uop, tags, mob_id, ready);
        for (field, (value, driven)) in Field::ALL.into_iter().zip(expected) {
            prop_assert_eq!(entry.get(field), value, "value of {}", field);
            prop_assert_eq!(entry.is_driven(field), driven, "drive of {}", field);
        }
    }

    #[test]
    fn set_round_trips_every_field_in_isolation(
        start in any_uop(),
        field_index in 0usize..18,
        halves in (any::<u64>(), any::<u64>()),
    ) {
        let value = (u128::from(halves.0) << 64) | u128::from(halves.1);
        let base = EntryValues::from_uop(&start, 1, 2, 3, 4, false, true);
        let field = Field::ALL[field_index];
        let mut entry = base;
        entry.set(field, value);
        prop_assert_eq!(entry.get(field), value & mask(field));
        prop_assert!(entry.is_driven(field));
        for other in Field::ALL.into_iter().filter(|&f| f != field) {
            prop_assert_eq!(entry.get(other), base.get(other), "{} disturbed", other);
            prop_assert_eq!(entry.is_driven(other), base.is_driven(other), "{} drive disturbed", other);
        }
    }

    #[test]
    fn or_bits_unions_one_field_and_leaves_the_rest(
        start in any_uop(),
        field_index in 0usize..18,
        halves in (any::<u64>(), any::<u64>()),
    ) {
        let value = (u128::from(halves.0) << 64) | u128::from(halves.1);
        let base = EntryValues::from_uop(&start, 1, 2, 3, 4, false, true);
        let field = Field::ALL[field_index];
        let mut entry = base;
        entry.or_bits(field, value);
        prop_assert_eq!(entry.get(field), (base.get(field) | value) & mask(field));
        prop_assert!(entry.is_driven(field));
        for other in Field::ALL.into_iter().filter(|&f| f != field) {
            prop_assert_eq!(entry.get(other), base.get(other), "{} disturbed", other);
            prop_assert_eq!(entry.is_driven(other), base.is_driven(other), "{} drive disturbed", other);
        }
    }
}

#[test]
fn the_default_write_set_drives_nothing_until_set() {
    let mut entry = EntryValues::default();
    for field in Field::ALL {
        assert!(!entry.is_driven(field), "{field}");
        assert_eq!(entry.get(field), 0, "{field}");
    }
    // Fill every field with all-ones, then clear each again: each set
    // touches its own bits only, in both the grouped words and the singles.
    for field in Field::ALL {
        entry.set(field, u128::MAX);
    }
    for field in Field::ALL {
        assert_eq!(entry.get(field), mask(field), "{field}");
        assert!(entry.is_driven(field), "{field}");
    }
    for (i, field) in Field::ALL.into_iter().enumerate() {
        entry.set(field, 0);
        for (j, other) in Field::ALL.into_iter().enumerate() {
            let expected = if j <= i { 0 } else { mask(other) };
            assert_eq!(entry.get(other), expected, "{other} after clearing {field}");
        }
    }
}
