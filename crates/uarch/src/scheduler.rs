//! The data-capture scheduler (reservation stations).
//!
//! An explicitly managed block with *short* idle time (§4.5): occupancy is
//! around 63%, and different fields show wildly different bias — some flag,
//! shift and latency bits are "0" (or "1") almost 100% of the time. The slot
//! layout follows Table 2 exactly (144 bits; Figure 8 plots all fields but
//! the opcode).
//!
//! The scheduler is modeled as a storage structure: allocation captures the
//! field values of a uop, release frees the slot but *keeps the contents*
//! (bit cells do not forget), and `write_field` allows ready-bit updates
//! while busy. Allocation and an NBTI-balancing rewrite of a free slot are
//! each one [`EntryValues`] write set merged by
//! [`Scheduler::write_driven`].

use crate::bitstats::{BitResidency, OccupancyTracker, TrackedWord};
use tracegen::uop::{Uop, UopClass};

/// One field of a scheduler slot (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// Slot is valid (1 bit). Cannot be protected: its contents are always
    /// live.
    Valid,
    /// Latency of the uop (5 bits).
    Latency,
    /// Issue port, one-hot (5 bits).
    Port,
    /// Branch taken (1 bit).
    Taken,
    /// Memory Order Buffer identifier (6 bits). Self-balanced.
    MobId,
    /// FP top-of-stack position (3 bits).
    Tos,
    /// Condition flags (6 bits).
    Flags,
    /// Source 1 needs an AH/BH/CH/DH shift (1 bit).
    Shift1,
    /// Source 2 needs an AH/BH/CH/DH shift (1 bit).
    Shift2,
    /// Destination register tag (7 bits). Self-balanced.
    DstTag,
    /// Source 1 register tag (7 bits). Self-balanced.
    Src1Tag,
    /// Source 2 register tag (7 bits). Self-balanced.
    Src2Tag,
    /// Source 1 ready (1 bit).
    Ready1,
    /// Source 2 ready (1 bit).
    Ready2,
    /// Captured source 1 data (32 bits).
    Src1Data,
    /// Captured source 2 data (32 bits).
    Src2Data,
    /// Immediate (16 bits).
    Immediate,
    /// Uop opcode (12 bits). Excluded from Figure 8.
    Opcode,
}

impl Field {
    /// All fields in Table 2 order.
    pub const ALL: [Field; 18] = [
        Field::Valid,
        Field::Latency,
        Field::Port,
        Field::Taken,
        Field::MobId,
        Field::Tos,
        Field::Flags,
        Field::Shift1,
        Field::Shift2,
        Field::DstTag,
        Field::Src1Tag,
        Field::Src2Tag,
        Field::Ready1,
        Field::Ready2,
        Field::Src1Data,
        Field::Src2Data,
        Field::Immediate,
        Field::Opcode,
    ];

    /// Width of the field in bits (Table 2).
    pub fn width(self) -> usize {
        match self {
            Field::Valid | Field::Taken | Field::Shift1 | Field::Shift2 => 1,
            Field::Ready1 | Field::Ready2 => 1,
            Field::Tos => 3,
            Field::Latency | Field::Port => 5,
            Field::MobId | Field::Flags => 6,
            Field::DstTag | Field::Src1Tag | Field::Src2Tag => 7,
            Field::Opcode => 12,
            Field::Immediate => 16,
            Field::Src1Data | Field::Src2Data => 32,
        }
    }

    /// Short name as in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Field::Valid => "Valid",
            Field::Latency => "Latency",
            Field::Port => "Port",
            Field::Taken => "Taken",
            Field::MobId => "MOB id",
            Field::Tos => "tos",
            Field::Flags => "Flags",
            Field::Shift1 => "shift1",
            Field::Shift2 => "shift2",
            Field::DstTag => "DST tag",
            Field::Src1Tag => "SRC1 tag",
            Field::Src2Tag => "SRC2 tag",
            Field::Ready1 => "ready1",
            Field::Ready2 => "ready2",
            Field::Src1Data => "SRC1 data",
            Field::Src2Data => "SRC2 data",
            Field::Immediate => "Immediate",
            Field::Opcode => "Opcode",
        }
    }

    /// Index into [`Field::ALL`]. The variants are declared in Table 2
    /// order, so the discriminant *is* the index (pinned by a test).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the field is a *data* field, which is no longer needed once
    /// the uop issues (paper: "SRC1 data, SRC2 data and immediate ... are
    /// available 70-75% of the time").
    pub fn is_data(self) -> bool {
        matches!(self, Field::Src1Data | Field::Src2Data | Field::Immediate)
    }

    /// Whether the field's activity is self-balanced (register tags and MOB
    /// id; entries/slots are used evenly).
    pub fn is_self_balanced(self) -> bool {
        matches!(
            self,
            Field::DstTag | Field::Src1Tag | Field::Src2Tag | Field::MobId
        )
    }
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Total bits per slot (144 with the 12-bit opcode).
pub fn slot_bits() -> usize {
    Field::ALL.iter().map(|f| f.width()).sum()
}

/// Which data fields a uop actually uses; unused fields count as available
/// for balancing from the moment of allocation ("they ... are not used at
/// all for some instructions", §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataUsage {
    /// `SRC1 data` is captured.
    pub src1: bool,
    /// `SRC2 data` is captured.
    pub src2: bool,
    /// `Immediate` is present.
    pub imm: bool,
}

impl DataUsage {
    fn count(self) -> u64 {
        u64::from(self.src1) + u64::from(self.src2) + u64::from(self.imm)
    }
}

/// A write set for one slot: the values of the fields a write drives, and
/// which fields those are.
///
/// Allocation captures a uop this way, and a balancing rewrite of a free
/// slot is one write set too; [`Scheduler::write_driven`] merges either in
/// one step. Fields that a uop does not use (the MOB id of a non-memory
/// uop, the destination tag of a store, ...) are *not driven*: allocation
/// leaves the old cell contents in place, exactly as hardware whose write
/// enables stay low. This is what makes the tag/MOB-id fields
/// self-balanced (§4.5).
///
/// The storage mirrors the slot's: the fifteen grouped fields as two
/// concatenated words with their driven masks, and the three 1-bit fields
/// (`Valid`, `Ready1`, `Ready2`) as bits of one byte. An undriven field
/// still reports the value it was built with through
/// [`get`](Self::get); the merge ignores it. The default drives nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryValues {
    group_val: [u128; 2],
    group_driven: [u128; 2],
    /// Bit `k` holds the field `SINGLE_FIELDS[k]`.
    single_val: u8,
    single_driven: u8,
}

/// Bits of a grouped field within its group word.
fn field_bits(field: Field) -> u128 {
    let i = field.index();
    FIELD_MASKS[i] << FIELD_OFFSETS[i]
}

/// A grouped field's value, masked to its width and placed at its offset.
fn place(field: Field, value: u128) -> u128 {
    let i = field.index();
    (value & FIELD_MASKS[i]) << FIELD_OFFSETS[i]
}

/// The bits of a grouped field if `cond` holds, else none.
fn bits_if(field: Field, cond: bool) -> u128 {
    if cond {
        field_bits(field)
    } else {
        0
    }
}

impl EntryValues {
    /// Builds slot contents from a uop and rename information.
    pub fn from_uop(
        uop: &Uop,
        dst_tag: u8,
        src1_tag: u8,
        src2_tag: u8,
        mob_id: u8,
        ready1: bool,
        ready2: bool,
    ) -> Self {
        let control = place(Field::Latency, uop.latency.into())
            | place(Field::Port, 1u128 << (uop.port % 5))
            | place(Field::Taken, uop.taken.into())
            | place(Field::MobId, mob_id.into())
            | place(Field::Tos, uop.tos.into())
            | place(Field::Flags, uop.flags.into())
            | place(Field::Shift1, uop.shift1.into())
            | place(Field::Shift2, uop.shift2.into())
            | place(Field::DstTag, dst_tag.into())
            | place(Field::Src1Tag, src1_tag.into())
            | place(Field::Src2Tag, src2_tag.into());
        let control_undriven = bits_if(Field::Taken, uop.class != UopClass::Branch)
            | bits_if(Field::MobId, !uop.class.is_memory())
            | bits_if(Field::Tos, !uop.class.is_fp())
            | bits_if(Field::DstTag, uop.dst.is_none())
            | bits_if(Field::Src1Tag, uop.src1.is_none())
            | bits_if(Field::Src2Tag, uop.src2.is_none());
        let data = place(Field::Src1Data, uop.src1_val.into())
            | place(Field::Src2Data, uop.src2_val.into())
            | place(Field::Immediate, uop.immediate.unwrap_or(0).into())
            | place(Field::Opcode, uop.opcode.into());
        let data_driven = bits_if(Field::Src1Data, uop.src1.is_some())
            | bits_if(Field::Src2Data, uop.src2.is_some())
            | bits_if(Field::Immediate, uop.immediate.is_some())
            | field_bits(Field::Opcode);
        EntryValues {
            group_val: [control, data],
            group_driven: [GROUP_MASKS[0] & !control_undriven, data_driven],
            // Valid, Ready1, Ready2: always driven.
            single_val: 1 | (u8::from(ready1) << 1) | (u8::from(ready2) << 2),
            single_driven: 0b111,
        }
    }

    /// The value of one field.
    pub fn get(&self, field: Field) -> u128 {
        let i = field.index();
        match single_slot(i) {
            Some(k) => u128::from((self.single_val >> k) & 1),
            None => (self.group_val[GROUP_OF[i] as usize] >> FIELD_OFFSETS[i]) & FIELD_MASKS[i],
        }
    }

    /// Whether the write drives the field.
    pub fn is_driven(&self, field: Field) -> bool {
        let i = field.index();
        match single_slot(i) {
            Some(k) => (self.single_driven >> k) & 1 == 1,
            None => self.group_driven[GROUP_OF[i] as usize] & field_bits(field) != 0,
        }
    }

    /// ORs `value` (masked to the field's width) into one field and marks
    /// it driven: bits already set stay set. Merging a field's dynamic bits
    /// over a precomputed write set that drives it is one call.
    pub fn or_bits(&mut self, field: Field, value: u128) {
        let i = field.index();
        match single_slot(i) {
            Some(k) => {
                self.single_val |= u8::from(value & 1 == 1) << k;
                self.single_driven |= 1 << k;
            }
            None => {
                let g = GROUP_OF[i] as usize;
                self.group_val[g] |= place(field, value);
                self.group_driven[g] |= field_bits(field);
            }
        }
    }

    /// Overwrites one field (masked to its width) and marks it driven.
    pub fn set(&mut self, field: Field, value: u128) {
        let i = field.index();
        match single_slot(i) {
            Some(k) => {
                let bit = 1u8 << k;
                self.single_val = (self.single_val & !bit) | (u8::from(value & 1 == 1) << k);
                self.single_driven |= bit;
            }
            None => {
                let g = GROUP_OF[i] as usize;
                self.group_val[g] = (self.group_val[g] & !field_bits(field)) | place(field, value);
                self.group_driven[g] |= field_bits(field);
            }
        }
    }
}

/// Field widths in Table 2 order (pinned to [`Field::width`] by a test);
/// spelled as a const so the concatenation layout below is computable at
/// compile time.
const FIELD_WIDTHS: [u32; 18] = [1, 5, 5, 1, 6, 3, 6, 1, 1, 7, 7, 7, 1, 1, 32, 32, 16, 12];

/// Storage layout of a slot: the three 1-bit fields that are written on
/// their own schedule (`Valid` at release, `Ready1`/`Ready2` at wakeup)
/// stay individually tracked words, and the remaining fifteen — which only
/// change together, at allocation or under balancing — are packed into two
/// concatenated words so one residency charge covers all of them.
///
/// `SINGLE_FIELDS` lists the individually tracked field indices; every
/// other field maps through `GROUP_OF`/`FIELD_OFFSETS` into group 0
/// (control fields, 49 bits) or group 1 (data fields, 92 bits).
const SINGLE_FIELDS: [usize; 3] = [0, 12, 13];

/// Group of each field (`NO_GROUP` for the singles).
const NO_GROUP: u8 = u8::MAX;
const fn group_of() -> [u8; 18] {
    let mut g = [NO_GROUP; 18];
    let mut i = 1;
    while i < 12 {
        g[i] = 0;
        i += 1;
    }
    let mut i = 14;
    while i < 18 {
        g[i] = 1;
        i += 1;
    }
    g
}
const GROUP_OF: [u8; 18] = group_of();

const fn group_widths() -> [usize; 2] {
    let mut w = [0usize; 2];
    let mut i = 0;
    while i < 18 {
        if GROUP_OF[i] != NO_GROUP {
            w[GROUP_OF[i] as usize] += FIELD_WIDTHS[i] as usize;
        }
        i += 1;
    }
    w
}

/// Widths of the two concatenation groups (49 control + 92 data bits;
/// with the three singles that is the slot's 144 bits).
const GROUP_WIDTHS: [usize; 2] = group_widths();

/// Low-bits masks of the two group words.
const GROUP_MASKS: [u128; 2] = [
    (1u128 << GROUP_WIDTHS[0]) - 1,
    (1u128 << GROUP_WIDTHS[1]) - 1,
];

const fn field_offsets() -> [u32; 18] {
    let mut off = [0u32; 18];
    let mut acc = [0u32; 2];
    let mut i = 0;
    while i < 18 {
        if GROUP_OF[i] != NO_GROUP {
            off[i] = acc[GROUP_OF[i] as usize];
            acc[GROUP_OF[i] as usize] += FIELD_WIDTHS[i];
        }
        i += 1;
    }
    off
}

/// Offset of each grouped field within its group's concatenated word.
const FIELD_OFFSETS: [u32; 18] = field_offsets();

const fn field_masks() -> [u128; 18] {
    let mut m = [0u128; 18];
    let mut i = 0;
    while i < 18 {
        m[i] = (1u128 << FIELD_WIDTHS[i]) - 1;
        i += 1;
    }
    m
}

/// Low-bits mask of each field.
const FIELD_MASKS: [u128; 18] = field_masks();

/// Member fields of each group, in offset order (for draining the group
/// accumulators back into per-field residency).
const GROUP_MEMBERS: [&[usize]; 2] = [&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], &[14, 15, 16, 17]];

/// Index into `Slot::singles` for an individually tracked field.
const fn single_slot(i: usize) -> Option<usize> {
    match i {
        0 => Some(0),
        12 => Some(1),
        13 => Some(2),
        _ => None,
    }
}

/// One slot. The fifteen grouped fields live as two concatenated words
/// (`group_val`) with the time each word was last changed (`group_since`);
/// Valid/Ready1/Ready2 are individually tracked.
#[derive(Debug, Clone)]
struct Slot {
    group_val: [u128; 2],
    group_since: [u64; 2],
    singles: [TrackedWord; 3],
    busy: bool,
    issued: bool,
    data_held: u64,
}

/// Identifier of a scheduler slot.
pub type SlotId = usize;

/// The 32-entry scheduler.
///
/// A scheduler is built *tracked* ([`Scheduler::new`]) or *untracked*
/// ([`Scheduler::untracked`]), once, for its whole life. An untracked
/// scheduler keeps everything timing depends on — busy and issued flags,
/// the ports and both occupancy trackers — and skips the bit-residency
/// work: it stores no field contents (every [`field_value`](Self::field_value)
/// reads 0), charges nothing, and its
/// [`field_residency`](Self::field_residency) stays empty.
#[derive(Debug, Clone)]
pub struct Scheduler {
    tracked: bool,
    slots: Vec<Slot>,
    residency: [BitResidency; 18],
    /// Staging accumulators for the grouped charges: when a group word
    /// changes (allocation, balancing write) or is flushed (sync), the whole
    /// word pays one zero-mask lane charge covering every member field's
    /// elapsed span. Drained back into the per-field `residency` at
    /// [`Scheduler::sync`]; the integers are identical to per-field charging
    /// (zero-time is additive over disjoint bit ranges and adjacent spans).
    group_charge: [BitResidency; 2],
    occupancy: OccupancyTracker,
    /// Occupancy of the data fields (freed at issue, not at release).
    data_occupancy: OccupancyTracker,
    alloc_ports: u8,
    port_state_cycle: u64,
    ports_used: u8,
    releases: u64,
    releases_with_port: u64,
}

impl Scheduler {
    /// Scheduler size used throughout the paper.
    pub const PAPER_ENTRIES: usize = 32;

    /// Creates a tracked scheduler with `entries` slots and `alloc_ports`
    /// write ports shared by allocation and balancing writes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `alloc_ports` is zero.
    pub fn new(entries: usize, alloc_ports: u8) -> Self {
        Scheduler::build(entries, alloc_ports, true)
    }

    /// Creates an untracked scheduler: the same timing as
    /// [`Scheduler::new`], no field contents and no residency accounting.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `alloc_ports` is zero.
    pub fn untracked(entries: usize, alloc_ports: u8) -> Self {
        Scheduler::build(entries, alloc_ports, false)
    }

    fn build(entries: usize, alloc_ports: u8, tracked: bool) -> Self {
        assert!(entries > 0, "need at least one slot");
        assert!(alloc_ports > 0, "need at least one allocation port");
        Scheduler {
            tracked,
            slots: vec![
                Slot {
                    group_val: [0; 2],
                    group_since: [0; 2],
                    singles: [TrackedWord::default(); 3],
                    busy: false,
                    issued: false,
                    data_held: 0,
                };
                entries
            ],
            residency: std::array::from_fn(|i| BitResidency::new(Field::ALL[i].width())),
            group_charge: [
                BitResidency::new(GROUP_WIDTHS[0]),
                BitResidency::new(GROUP_WIDTHS[1]),
            ],
            occupancy: OccupancyTracker::new(entries as u64, 0),
            // Three data fields per slot (SRC1/SRC2 data, Immediate).
            data_occupancy: OccupancyTracker::new(entries as u64 * 3, 0),
            alloc_ports,
            port_state_cycle: 0,
            ports_used: 0,
            releases: 0,
            releases_with_port: 0,
        }
    }

    /// A paper-configured scheduler: 32 entries, 4 allocation ports.
    pub fn paper_default() -> Self {
        Scheduler::new(Self::PAPER_ENTRIES, 4)
    }

    /// Whether the scheduler charges bit residency.
    pub fn is_tracked(&self) -> bool {
        self.tracked
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the scheduler has no slots (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn roll_cycle(&mut self, now: u64) {
        if self.port_state_cycle != now {
            self.port_state_cycle = now;
            self.ports_used = 0;
        }
    }

    /// Whether an allocation/balancing port is still free in cycle `now`.
    /// The paper observes "on average 77% of the ports from allocate are
    /// available".
    pub fn port_available(&mut self, now: u64) -> bool {
        self.roll_cycle(now);
        self.ports_used < self.alloc_ports
    }

    /// Allocates a free slot and captures `values`, consuming a port.
    /// Returns `None` when the scheduler is full. `usage` says which data
    /// fields the uop actually occupies.
    pub fn allocate(&mut self, values: &EntryValues, usage: DataUsage, now: u64) -> Option<SlotId> {
        let id = self.slots.iter().position(|s| !s.busy)?;
        self.allocate_at(id, values, usage, now);
        Some(id)
    }

    /// Allocates a specific free slot (callers that pick slots round-robin
    /// use this so freed slots are not immediately reused).
    ///
    /// # Panics
    ///
    /// Panics if the slot is busy.
    pub fn allocate_at(&mut self, id: SlotId, values: &EntryValues, usage: DataUsage, now: u64) {
        self.roll_cycle(now);
        self.ports_used = self.ports_used.saturating_add(1);
        let slot = &mut self.slots[id];
        assert!(!slot.busy, "allocating busy slot {id}");
        slot.busy = true;
        slot.issued = false;
        slot.data_held = usage.count();
        if self.tracked {
            // Valid always drives to 1, whatever the entry holds.
            let mut entry = *values;
            entry.set(Field::Valid, 1);
            self.write_driven(id, &entry, now);
        }
        self.occupancy.acquire(now);
        self.data_occupancy.acquire_n(usage.count(), now);
    }

    /// Marks the slot as issued: its data fields (`SRC data`, `Immediate`)
    /// are no longer needed and count as available from here on.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not busy or already issued.
    pub fn issue(&mut self, slot: SlotId, now: u64) {
        let s = &mut self.slots[slot];
        assert!(s.busy && !s.issued, "issuing slot {slot} in a bad state");
        s.issued = true;
        let held = s.data_held;
        s.data_held = 0;
        self.data_occupancy.release_n(held, now);
    }

    /// Whether the slot has issued.
    pub fn is_issued(&self, slot: SlotId) -> bool {
        self.slots[slot].issued
    }

    /// Releases the slot (uop completed); contents remain. Returns whether
    /// a spare port was available this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not busy.
    pub fn release(&mut self, slot: SlotId, now: u64) -> bool {
        {
            let s = &mut self.slots[slot];
            assert!(s.busy, "releasing free slot {slot}");
            let held = s.data_held;
            s.data_held = 0;
            self.data_occupancy.release_n(held, now);
            s.busy = false;
            s.issued = false;
        }
        // The valid bit drops to 0 the moment the entry frees — that write
        // is architectural, not a balancing write.
        if self.tracked {
            let vi = Field::Valid.index();
            self.slots[slot].singles[0].write(0, now, &mut self.residency[vi]);
        }
        self.occupancy.release(now);
        self.releases += 1;
        let port_free = self.port_available(now);
        if port_free {
            self.releases_with_port += 1;
        }
        port_free
    }

    /// Writes one field of a slot (ready-bit updates while busy; balancing
    /// writes while free). Does not consume a port — pair with
    /// [`Scheduler::consume_port`] for opportunistic writes.
    ///
    /// The individually tracked 1-bit fields (`Valid`, `Ready1`, `Ready2`)
    /// write their word directly — the same charge a one-field
    /// [`Scheduler::write_driven`] makes, without the merge. Does nothing
    /// on an untracked scheduler.
    pub fn write_field(&mut self, slot: SlotId, field: Field, value: u128, now: u64) {
        if !self.tracked {
            return;
        }
        let i = field.index();
        if let Some(k) = single_slot(i) {
            let single = &mut self.slots[slot].singles[k];
            let want = value & 1;
            if single.value() != want {
                single.write(want, now, &mut self.residency[i]);
            }
            return;
        }
        let mut write = EntryValues::default();
        write.set(field, value);
        self.write_driven(slot, &write, now);
    }

    /// Merges a write set into a slot: each driven bit takes the write
    /// set's value, every other bit keeps its contents. Allocation and a
    /// balancing rewrite of a released slot are one call each. Does not
    /// consume a port.
    ///
    /// A word that changes settles its elapsed span with one lane charge
    /// covering all its member fields — exact for the unchanged members
    /// too, since closing their span and reopening it at `now` with the
    /// same value charges the same integers as leaving it open. Rewriting
    /// the value a word already holds charges nothing: the open span keeps
    /// accruing from the original write and settles at the next real
    /// change or [`Scheduler::sync`] (residency is additive over adjacent
    /// spans). Balancing writes mostly re-assert the stored pattern, so
    /// the hot path reduces to comparisons. Does nothing on an untracked
    /// scheduler.
    pub fn write_driven(&mut self, slot: SlotId, values: &EntryValues, now: u64) {
        if !self.tracked {
            return;
        }
        let Scheduler {
            slots,
            residency,
            group_charge,
            ..
        } = self;
        let s = &mut slots[slot];
        for (k, (single, field)) in s.singles.iter_mut().zip(SINGLE_FIELDS).enumerate() {
            let want = u128::from((values.single_val >> k) & 1);
            if (values.single_driven >> k) & 1 == 1 && single.value() != want {
                single.write(want, now, &mut residency[field]);
            }
        }
        for (g, mask) in GROUP_MASKS.iter().enumerate() {
            let old = s.group_val[g];
            let driven = values.group_driven[g];
            let merged = (old & !driven) | (values.group_val[g] & driven);
            if merged != old {
                let since = s.group_since[g];
                if since != now {
                    let d = now - since;
                    group_charge[g].record_zeros(!old & mask, d);
                    group_charge[g].credit_total_time(d);
                }
                s.group_val[g] = merged;
                s.group_since[g] = now;
            }
        }
    }

    /// Consumes one port in cycle `now` (for opportunistic balancing
    /// writes). Returns false (and consumes nothing) if none is free.
    pub fn consume_port(&mut self, now: u64) -> bool {
        if self.port_available(now) {
            self.ports_used += 1;
            true
        } else {
            false
        }
    }

    /// Current value of a field.
    pub fn field_value(&self, slot: SlotId, field: Field) -> u128 {
        let i = field.index();
        let s = &self.slots[slot];
        match single_slot(i) {
            Some(k) => s.singles[k].value(),
            None => (s.group_val[GROUP_OF[i] as usize] >> FIELD_OFFSETS[i]) & FIELD_MASKS[i],
        }
    }

    /// Whether a slot is busy.
    pub fn is_busy(&self, slot: SlotId) -> bool {
        self.slots[slot].busy
    }

    /// Slots currently free (candidates for balancing writes).
    pub fn free_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.busy)
            .map(|(i, _)| i)
    }

    /// Flushes all residency accounting up to `now`, including the grouped
    /// allocation charges staged in the concatenation accumulators.
    /// [`Pipeline::run`](crate::pipeline::Pipeline::run) calls it when a
    /// run ends; only a reader sampling in the middle of a run (or a test
    /// driving a bare scheduler) calls it itself. Does nothing on an
    /// untracked scheduler.
    pub fn sync(&mut self, now: u64) {
        if !self.tracked {
            return;
        }
        let Scheduler {
            slots,
            residency,
            group_charge,
            ..
        } = self;
        for slot in slots.iter_mut() {
            for (k, &i) in SINGLE_FIELDS.iter().enumerate() {
                slot.singles[k].flush(now, &mut residency[i]);
            }
            for g in 0..2 {
                let since = slot.group_since[g];
                if since != now {
                    let d = now - since;
                    group_charge[g].record_zeros(!slot.group_val[g] & GROUP_MASKS[g], d);
                    group_charge[g].credit_total_time(d);
                    slot.group_since[g] = now;
                }
            }
        }
        self.drain_group_charge();
    }

    /// Moves the grouped-charge integers back into the per-field
    /// accumulators: the zero-counts split by bit offset, and the group's
    /// accumulated span time credits to *every* member field (a group
    /// charge covers all of them).
    fn drain_group_charge(&mut self) {
        let Scheduler {
            residency,
            group_charge,
            ..
        } = self;
        for (g, gc) in group_charge.iter_mut().enumerate() {
            let members = GROUP_MEMBERS[g];
            let total = gc.take_total_time();
            if total > 0 {
                for &i in members {
                    residency[i].credit_total_time(total);
                }
            }
            gc.drain_zero_counts(|bit, count| {
                let mut mi = 0;
                while mi + 1 < members.len() && FIELD_OFFSETS[members[mi + 1]] as usize <= bit {
                    mi += 1;
                }
                let i = members[mi];
                residency[i].credit_zero_cycles(bit - FIELD_OFFSETS[i] as usize, count);
            });
        }
    }

    /// Residency of one field (aggregated over slots), accurate up to the
    /// last [`Scheduler::sync`]: after a pipeline run, up to the run's last
    /// cycle. Empty on an untracked scheduler.
    pub fn field_residency(&self, field: Field) -> &BitResidency {
        &self.residency[field.index()]
    }

    /// Average slot occupancy up to `now` (the paper's 63%). A read only,
    /// so telemetry may sample it mid-run.
    pub fn occupancy(&self, now: u64) -> f64 {
        self.occupancy.occupancy(now).fraction()
    }

    /// Average *data-field* occupancy up to `now` (the paper's 25–30%,
    /// i.e. SRC data/immediate fields available 70–75% of the time):
    /// a data field is busy from allocation to issue, and only when the uop
    /// actually uses it.
    pub fn data_occupancy(&self, now: u64) -> f64 {
        self.data_occupancy.occupancy(now).fraction()
    }

    /// Fraction of releases that found a spare port.
    pub fn release_port_availability(&self) -> f64 {
        if self.releases == 0 {
            return 1.0;
        }
        self.releases_with_port as f64 / self.releases as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::uop::Uop;

    fn entry() -> EntryValues {
        let mut uop = Uop::int_alu(1, 2, 3);
        uop.latency = 3;
        uop.flags = 0b10;
        EntryValues::from_uop(&uop, 10, 20, 30, 5, true, false)
    }

    #[test]
    fn slot_layout_is_table_2() {
        assert_eq!(slot_bits(), 144);
        assert_eq!(Field::Src1Data.width(), 32);
        assert_eq!(Field::Opcode.width(), 12);
        assert_eq!(Field::ALL.len(), 18);
    }

    #[test]
    fn grouped_charge_layout_matches_field_widths() {
        for (i, f) in Field::ALL.iter().enumerate() {
            assert_eq!(FIELD_WIDTHS[i] as usize, f.width(), "width of {f}");
            assert_eq!(FIELD_MASKS[i], (1u128 << f.width()) - 1, "mask of {f}");
        }
        // Singles + the two groups partition the 18 fields and 144 bits.
        let singles_bits: usize = SINGLE_FIELDS.iter().map(|&i| Field::ALL[i].width()).sum();
        assert_eq!(
            GROUP_WIDTHS[0] + GROUP_WIDTHS[1] + singles_bits,
            slot_bits()
        );
        for &i in &SINGLE_FIELDS {
            assert_eq!(GROUP_OF[i], NO_GROUP);
            assert!(single_slot(i).is_some());
        }
        let n_members: usize = GROUP_MEMBERS.iter().map(|m| m.len()).sum();
        assert_eq!(n_members + SINGLE_FIELDS.len(), 18);
        // Offsets tile each group's word exactly, in member order.
        for (g, members) in GROUP_MEMBERS.iter().enumerate() {
            let mut acc = 0u32;
            for &i in *members {
                assert_eq!(GROUP_OF[i] as usize, g);
                assert_eq!(single_slot(i), None);
                assert_eq!(FIELD_OFFSETS[i], acc);
                acc += FIELD_WIDTHS[i];
            }
            assert_eq!(acc as usize, GROUP_WIDTHS[g]);
        }
    }

    #[test]
    fn grouped_charge_matches_per_field_record() {
        // Drive a 1-slot scheduler through allocate/issue/release twice and
        // check the post-sync integers against a hand computation — i.e.
        // that the grouped concatenated charge drains into exactly what
        // direct per-field `record` calls would have produced.
        let mut s = Scheduler::new(1, 4);
        let usage = DataUsage {
            src1: true,
            src2: true,
            imm: true,
        };
        let slot = s.allocate(&entry(), usage, 5).unwrap();
        s.issue(slot, 8);
        s.release(slot, 12);
        let slot2 = s.allocate(&entry(), usage, 20).unwrap();
        assert_eq!(slot, slot2);
        s.release(slot2, 30);
        s.sync(40);
        // Valid holds 0 over [0,5), [12,20) and [30,40) (release writes 0),
        // 1 elsewhere: zero-time 5 + 8 + 10 = 23 of 40.
        let v = s.field_residency(Field::Valid);
        assert_eq!(v.zero_cycles(0), 23);
        assert_eq!(v.total_time(), 40);
        // Latency (value 3 = 0b00011) is written at t=5; the second
        // allocation re-drives the same value (no charge, span stays open).
        // Bit 0 is zero only over [0,5); bit 4 over the whole run.
        let l = s.field_residency(Field::Latency);
        assert_eq!(l.zero_cycles(0), 5);
        assert_eq!(l.zero_cycles(4), 40);
        assert_eq!(l.total_time(), 40);
    }

    #[test]
    fn entry_values_capture_uop_fields() {
        let e = entry();
        assert_eq!(e.get(Field::Valid), 1);
        assert_eq!(e.get(Field::Latency), 3);
        assert_eq!(e.get(Field::Port), 1); // port 0 one-hot
        assert_eq!(e.get(Field::DstTag), 10);
        assert_eq!(e.get(Field::Ready1), 1);
        assert_eq!(e.get(Field::Ready2), 0);
        assert_eq!(e.get(Field::Flags), 0b10);
    }

    #[test]
    fn allocate_issue_release_lifecycle() {
        let mut s = Scheduler::new(4, 2);
        let slot = s
            .allocate(
                &entry(),
                DataUsage {
                    src1: true,
                    src2: true,
                    imm: false,
                },
                0,
            )
            .unwrap();
        assert!(s.is_busy(slot));
        assert!(!s.is_issued(slot));
        s.issue(slot, 5);
        assert!(s.is_issued(slot));
        s.release(slot, 8);
        assert!(!s.is_busy(slot));
        // Contents remain after release (bit cells do not forget).
        assert_eq!(s.field_value(slot, Field::Latency), 3);
        // But the valid bit dropped.
        assert_eq!(s.field_value(slot, Field::Valid), 0);
    }

    #[test]
    fn full_scheduler_rejects_allocation() {
        let mut s = Scheduler::new(2, 4);
        let all = DataUsage {
            src1: true,
            src2: true,
            imm: true,
        };
        assert!(s.allocate(&entry(), all, 0).is_some());
        assert!(s.allocate(&entry(), all, 0).is_some());
        assert!(s.allocate(&entry(), all, 0).is_none());
    }

    #[test]
    fn occupancy_and_data_occupancy_diverge_after_issue() {
        let mut s = Scheduler::new(2, 4);
        let usage = DataUsage {
            src1: true,
            src2: false,
            imm: false,
        };
        let slot = s.allocate(&entry(), usage, 0).unwrap();
        s.issue(slot, 10);
        s.release(slot, 20);
        // Slot busy for 20 of 40 entry-cycles → occupancy 50%.
        assert!((s.occupancy(20) - 0.5).abs() < 1e-12);
        // One of six data-field units busy for 10 of 20 cycles → 1/12.
        assert!((s.data_occupancy(20) - 10.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn untracked_scheduler_keeps_timing_state_but_stores_and_charges_nothing() {
        let mut s = Scheduler::untracked(2, 1);
        assert!(!s.is_tracked() && Scheduler::new(2, 1).is_tracked());
        let usage = DataUsage {
            src1: true,
            src2: false,
            imm: false,
        };
        let slot = s.allocate(&entry(), usage, 0).unwrap();
        assert!(s.is_busy(slot));
        assert!(!s.port_available(0), "allocation took the one port");
        s.write_field(slot, Field::Ready2, 1, 5);
        s.issue(slot, 10);
        assert!(s.is_issued(slot));
        s.release(slot, 20);
        assert!(!s.is_busy(slot));
        assert!((s.occupancy(20) - 0.5).abs() < 1e-12);
        assert!((s.data_occupancy(20) - 10.0 / 120.0).abs() < 1e-12);
        s.sync(30);
        for field in Field::ALL {
            assert_eq!(s.field_value(slot, field), 0, "{field}");
            assert_eq!(s.field_residency(field).total_time(), 0, "{field}");
        }
    }

    #[test]
    fn ports_shared_between_alloc_and_balancing() {
        let mut s = Scheduler::new(8, 2);
        let _ = s.allocate(&entry(), DataUsage::default(), 0).unwrap();
        assert!(s.consume_port(0));
        assert!(!s.consume_port(0), "both ports used");
        assert!(s.consume_port(1), "budget resets next cycle");
    }

    #[test]
    fn write_field_masks_to_width() {
        let mut s = Scheduler::new(1, 1);
        s.write_field(0, Field::Tos, 0xFF, 0);
        assert_eq!(s.field_value(0, Field::Tos), 0x7);
    }

    #[test]
    fn residency_accounts_field_contents() {
        let mut s = Scheduler::new(1, 1);
        let slot = s.allocate(&entry(), DataUsage::default(), 0).unwrap();
        s.release(slot, 10);
        s.sync(20);
        // Valid held 1 over [0,10) and 0 over [10,20): bias 0.5.
        let bias = s.field_residency(Field::Valid).bias(0).fraction();
        assert!((bias - 0.5).abs() < 1e-12);
    }

    #[test]
    fn free_slots_enumerates() {
        let mut s = Scheduler::new(3, 4);
        let a = s.allocate(&entry(), DataUsage::default(), 0).unwrap();
        let free: Vec<_> = s.free_slots().collect();
        assert_eq!(free.len(), 2);
        assert!(!free.contains(&a));
    }

    #[test]
    #[should_panic(expected = "releasing free slot")]
    fn double_release_panics() {
        let mut s = Scheduler::new(1, 1);
        let slot = s.allocate(&entry(), DataUsage::default(), 0).unwrap();
        s.release(slot, 1);
        s.release(slot, 2);
    }

    #[test]
    fn field_index_is_declaration_order() {
        for (i, f) in Field::ALL.iter().enumerate() {
            assert_eq!(f.index(), i, "{f} out of Table 2 order");
        }
    }

    #[test]
    fn same_value_writes_defer_residency_exactly() {
        let mut a = Scheduler::new(1, 1);
        let mut b = Scheduler::new(1, 1);
        let slot_a = a.allocate(&entry(), DataUsage::default(), 0).unwrap();
        let slot_b = b.allocate(&entry(), DataUsage::default(), 0).unwrap();
        // Same value re-driven repeatedly on `a`; written once on `b`.
        for t in 1..50 {
            a.write_field(slot_a, Field::Flags, 0b10, t);
        }
        a.write_field(slot_a, Field::Flags, 0b01, 50);
        b.write_field(slot_b, Field::Flags, 0b01, 50);
        a.sync(80);
        b.sync(80);
        assert_eq!(
            a.field_residency(Field::Flags),
            b.field_residency(Field::Flags)
        );
    }

    #[test]
    fn single_bit_write_field_charges_as_a_one_field_write_set() {
        // The direct word write of Valid/Ready1/Ready2 must leave the
        // values and residency integers a one-field `write_driven` does,
        // including repeated values and values wider than the field.
        let mut direct = Scheduler::new(2, 1);
        let mut merged = Scheduler::new(2, 1);
        let writes = [
            (3, Field::Ready1, 1),
            (5, Field::Ready2, 1),
            (5, Field::Ready1, 1),
            (9, Field::Valid, 3),
            (12, Field::Ready1, 2),
            (12, Field::Ready2, 0),
            (20, Field::Valid, 0),
            (27, Field::Ready2, 1),
        ];
        for (now, field, value) in writes {
            direct.write_field(1, field, value, now);
            let mut set = EntryValues::default();
            set.set(field, value);
            merged.write_driven(1, &set, now);
        }
        direct.sync(40);
        merged.sync(40);
        for field in Field::ALL {
            assert_eq!(direct.field_value(1, field), merged.field_value(1, field));
            assert_eq!(
                direct.field_residency(field),
                merged.field_residency(field),
                "{field}"
            );
        }
        assert_eq!(
            direct.field_residency(Field::Ready1).zero_cycles(0),
            40 + 3 + 28
        );
    }

    #[test]
    fn field_metadata() {
        assert!(Field::Src1Data.is_data());
        assert!(!Field::Flags.is_data());
        assert!(Field::MobId.is_self_balanced());
        assert!(!Field::Valid.is_self_balanced());
        assert_eq!(Field::MobId.to_string(), "MOB id");
    }
}
