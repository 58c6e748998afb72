//! Chunked structure-of-arrays uop batching.
//!
//! Trace generation interleaved with simulation costs more than the sum of
//! its parts: every allocated uop drags the generator's RNG state, profile
//! tables and opcode map back through the cache while the pipeline's own
//! working set (scheduler arrays, residency lanes, issue queues) is hot.
//! [`UopChunk`] decouples the two: the generator runs a block of uops at a
//! time into parallel arrays (one per field, in field order), and the
//! consumer decodes them sequentially from those arrays.
//!
//! Batching changes *when* uops are generated, never *what*: the RNG draw
//! order inside the generator is untouched, so a chunked stream yields
//! byte-identical uops to the plain iterator (pinned by a test below).

use crate::trace::TraceIter;
use crate::uop::{Uop, UopClass, Value80};

/// Default uops per chunk: large enough to amortize the working-set swap,
/// small enough that a chunk of every array stays cache-resident.
pub const DEFAULT_CHUNK: usize = 1024;

// Bit assignments in `UopChunk::packed` (option validity + booleans).
const P_DST: u16 = 1 << 0;
const P_SRC1: u16 = 1 << 1;
const P_SRC2: u16 = 1 << 2;
const P_IMM: u16 = 1 << 3;
const P_MEM: u16 = 1 << 4;
const P_TAKEN: u16 = 1 << 5;
const P_MISPREDICT: u16 = 1 << 6;
const P_SHIFT1: u16 = 1 << 7;
const P_SHIFT2: u16 = 1 << 8;
const P_CARRY_IN: u16 = 1 << 9;

/// A batch of uops in structure-of-arrays layout: one parallel array per
/// field, with option validity and the boolean fields packed into a single
/// per-uop bitmask.
#[derive(Debug, Clone, Default)]
pub struct UopChunk {
    pc: Vec<u64>,
    class: Vec<UopClass>,
    dst: Vec<u8>,
    src1: Vec<u8>,
    src2: Vec<u8>,
    result: Vec<u128>,
    src1_val: Vec<u32>,
    src2_val: Vec<u32>,
    immediate: Vec<u16>,
    latency: Vec<u8>,
    port: Vec<u8>,
    flags: Vec<u8>,
    tos: Vec<u8>,
    opcode: Vec<u16>,
    mem_addr: Vec<u64>,
    packed: Vec<u16>,
}

impl UopChunk {
    /// An empty chunk with room for `capacity` uops in every array.
    pub fn with_capacity(capacity: usize) -> Self {
        UopChunk {
            pc: Vec::with_capacity(capacity),
            class: Vec::with_capacity(capacity),
            dst: Vec::with_capacity(capacity),
            src1: Vec::with_capacity(capacity),
            src2: Vec::with_capacity(capacity),
            result: Vec::with_capacity(capacity),
            src1_val: Vec::with_capacity(capacity),
            src2_val: Vec::with_capacity(capacity),
            immediate: Vec::with_capacity(capacity),
            latency: Vec::with_capacity(capacity),
            port: Vec::with_capacity(capacity),
            flags: Vec::with_capacity(capacity),
            tos: Vec::with_capacity(capacity),
            opcode: Vec::with_capacity(capacity),
            mem_addr: Vec::with_capacity(capacity),
            packed: Vec::with_capacity(capacity),
        }
    }

    /// Number of uops in the chunk.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the chunk holds no uops.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Empties the chunk, keeping every array's capacity.
    pub fn clear(&mut self) {
        self.pc.clear();
        self.class.clear();
        self.dst.clear();
        self.src1.clear();
        self.src2.clear();
        self.result.clear();
        self.src1_val.clear();
        self.src2_val.clear();
        self.immediate.clear();
        self.latency.clear();
        self.port.clear();
        self.flags.clear();
        self.tos.clear();
        self.opcode.clear();
        self.mem_addr.clear();
        self.packed.clear();
    }

    /// Appends one uop, splitting it across the field arrays.
    pub fn push(&mut self, u: &Uop) {
        let mut packed = 0u16;
        packed |= u16::from(u.dst.is_some()) * P_DST;
        packed |= u16::from(u.src1.is_some()) * P_SRC1;
        packed |= u16::from(u.src2.is_some()) * P_SRC2;
        packed |= u16::from(u.immediate.is_some()) * P_IMM;
        packed |= u16::from(u.mem_addr.is_some()) * P_MEM;
        packed |= u16::from(u.taken) * P_TAKEN;
        packed |= u16::from(u.mispredict) * P_MISPREDICT;
        packed |= u16::from(u.shift1) * P_SHIFT1;
        packed |= u16::from(u.shift2) * P_SHIFT2;
        packed |= u16::from(u.carry_in) * P_CARRY_IN;
        self.pc.push(u.pc);
        self.class.push(u.class);
        self.dst.push(u.dst.unwrap_or(0));
        self.src1.push(u.src1.unwrap_or(0));
        self.src2.push(u.src2.unwrap_or(0));
        self.result.push(u.result.bits());
        self.src1_val.push(u.src1_val);
        self.src2_val.push(u.src2_val);
        self.immediate.push(u.immediate.unwrap_or(0));
        self.latency.push(u.latency);
        self.port.push(u.port);
        self.flags.push(u.flags);
        self.tos.push(u.tos);
        self.opcode.push(u.opcode);
        self.mem_addr.push(u.mem_addr.unwrap_or(0));
        self.packed.push(packed);
    }

    /// Decodes uop `i` back out of the field arrays.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Uop {
        let packed = self.packed[i];
        let opt = |bit: u16| packed & bit != 0;
        Uop {
            pc: self.pc[i],
            class: self.class[i],
            dst: opt(P_DST).then(|| self.dst[i]),
            src1: opt(P_SRC1).then(|| self.src1[i]),
            src2: opt(P_SRC2).then(|| self.src2[i]),
            result: Value80::from_bits(self.result[i]),
            src1_val: self.src1_val[i],
            src2_val: self.src2_val[i],
            immediate: opt(P_IMM).then(|| self.immediate[i]),
            latency: self.latency[i],
            port: self.port[i],
            flags: self.flags[i],
            taken: opt(P_TAKEN),
            mispredict: opt(P_MISPREDICT),
            tos: self.tos[i],
            shift1: opt(P_SHIFT1),
            shift2: opt(P_SHIFT2),
            opcode: self.opcode[i],
            mem_addr: opt(P_MEM).then(|| self.mem_addr[i]),
            carry_in: opt(P_CARRY_IN),
        }
    }
}

/// A uop source batched through one reusable [`UopChunk`]: each
/// [`refill`](ChunkedUops::refill) runs the underlying generator for up to
/// `capacity` uops in one tight block.
#[derive(Debug, Clone)]
pub struct ChunkedUops<I> {
    source: I,
    chunk: UopChunk,
    capacity: usize,
}

impl<I: Iterator<Item = Uop>> ChunkedUops<I> {
    /// Batches `source` into chunks of up to `capacity` uops.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(source: I, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be nonzero");
        ChunkedUops {
            source,
            chunk: UopChunk::with_capacity(capacity),
            capacity,
        }
    }

    /// Generates the next chunk, returning `None` once the source is
    /// exhausted. The previous chunk's contents are overwritten.
    pub fn refill(&mut self) -> Option<&UopChunk> {
        self.chunk.clear();
        for _ in 0..self.capacity {
            match self.source.next() {
                Some(u) => self.chunk.push(&u),
                None => break,
            }
        }
        if self.chunk.is_empty() {
            None
        } else {
            Some(&self.chunk)
        }
    }

    /// A per-uop cursor over the chunked stream (generation stays batched;
    /// consumers that want one uop at a time decode from the current
    /// chunk's arrays).
    pub fn into_uops(self) -> ChunkedUopIter<I> {
        ChunkedUopIter {
            inner: self,
            pos: 0,
        }
    }
}

/// Sequential decoder over a [`ChunkedUops`] stream.
#[derive(Debug, Clone)]
pub struct ChunkedUopIter<I> {
    inner: ChunkedUops<I>,
    pos: usize,
}

impl<I: Iterator<Item = Uop>> Iterator for ChunkedUopIter<I> {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        if self.pos >= self.inner.chunk.len() {
            self.inner.refill()?;
            self.pos = 0;
        }
        let u = self.inner.chunk.get(self.pos);
        self.pos += 1;
        Some(u)
    }
}

/// Chunked generation for one trace (see [`crate::trace::TraceSpec::generate_chunks`]).
pub type ChunkedTrace = ChunkedUops<TraceIter>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;
    use crate::trace::TraceSpec;

    #[test]
    fn chunked_stream_matches_plain_iterator() {
        let spec = TraceSpec::new(Suite::SpecInt2000, 3);
        let plain: Vec<Uop> = spec.generate(5_000).collect();
        let chunked: Vec<Uop> = spec.generate_chunks(5_000, 256).into_uops().collect();
        assert_eq!(plain, chunked);
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let spec = TraceSpec::new(Suite::SpecFp2000, 1);
        let mut chunk = UopChunk::with_capacity(64);
        let uops: Vec<Uop> = spec.generate(64).collect();
        for u in &uops {
            chunk.push(u);
        }
        assert_eq!(chunk.len(), 64);
        for (i, u) in uops.iter().enumerate() {
            assert_eq!(&chunk.get(i), u, "uop {i} mangled by SoA roundtrip");
        }
    }

    #[test]
    fn refill_yields_full_then_partial_chunks() {
        let spec = TraceSpec::new(Suite::Office, 0);
        let mut chunks = spec.generate_chunks(2_500, 1_000);
        assert_eq!(chunks.refill().map(UopChunk::len), Some(1_000));
        assert_eq!(chunks.refill().map(UopChunk::len), Some(1_000));
        assert_eq!(chunks.refill().map(UopChunk::len), Some(500));
        assert!(chunks.refill().is_none());
    }

    #[test]
    fn empty_source_yields_no_chunk() {
        let mut chunks = ChunkedUops::new(std::iter::empty(), 16);
        assert!(chunks.refill().is_none());
        let mut iter = ChunkedUops::new(std::iter::empty(), 16).into_uops();
        assert_eq!(iter.next(), None);
    }
}
