//! Memory address streams with tunable locality.
//!
//! Table 3 of the paper sweeps cache capacity (8/16/32KB) and DTLB reach
//! (32/64/128 entries); the performance cost of keeping half of a cache
//! inverted depends entirely on how much of the capacity the program
//! actually uses. This generator produces a mixture of:
//!
//! - hot stack/scalar accesses (a small, heavily reused region);
//! - working-set array accesses (reuse within a configurable footprint);
//! - streaming accesses (sequential, large footprint, little reuse).

use crate::rng::TraceRng;

/// Address-stream parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemProfile {
    /// Bytes of the heavily reused hot region (stack, globals).
    pub hot_bytes: u64,
    /// Bytes of the main working set.
    pub working_set_bytes: u64,
    /// Probability an access hits the hot region.
    pub p_hot: f64,
    /// Probability an access is streaming (sequential, beyond the working
    /// set).
    pub p_stream: f64,
    /// Stream stride in bytes.
    pub stream_stride: u64,
}

impl MemProfile {
    /// A cache-friendly profile (small working set): typical of office-type
    /// codes.
    pub fn resident(working_set_bytes: u64) -> Self {
        MemProfile {
            hot_bytes: 4 * 1024,
            working_set_bytes,
            p_hot: 0.62,
            p_stream: 0.015,
            stream_stride: 64,
        }
    }

    /// A streaming-heavy profile: typical of kernels/encoders.
    pub fn streaming(working_set_bytes: u64) -> Self {
        MemProfile {
            hot_bytes: 2 * 1024,
            working_set_bytes,
            p_hot: 0.45,
            p_stream: 0.06,
            stream_stride: 64,
        }
    }
}

/// Stateful address generator.
///
/// Working-set accesses *walk* sequentially (8-byte steps), occasionally
/// jumping to a new position — strong spatial locality, as real array code
/// has, so most accesses hit the MRU line of their set (the paper reports
/// 90% of DL0 hits at the MRU position).
#[derive(Debug, Clone)]
pub struct AddressStream {
    profile: MemProfile,
    stream_pos: u64,
    /// Current sequential position within the working set.
    ws_pos: u64,
    /// Base of the synthetic address space; keeps regions disjoint.
    hot_base: u64,
    ws_base: u64,
    stream_base: u64,
}

/// Probability a working-set access jumps instead of continuing its walk.
const WS_JUMP_PROB: f64 = 0.02;

impl AddressStream {
    /// Creates a stream for the given profile.
    pub fn new(profile: MemProfile) -> Self {
        AddressStream {
            profile,
            stream_pos: 0,
            ws_pos: 0,
            hot_base: 0x7FFF_0000_0000,
            ws_base: 0x0000_0804_0000,
            stream_base: 0x0000_2000_0000,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &MemProfile {
        &self.profile
    }

    /// Draws the next effective address.
    pub fn next_address(&mut self, rng: &mut TraceRng) -> u64 {
        let roll = rng.unit();
        if roll < self.profile.p_hot {
            // Hot region (stack/globals), 8-byte aligned.
            let off = rng.range(0, self.profile.hot_bytes.max(8) / 8) * 8;
            self.hot_base + off
        } else if roll < self.profile.p_hot + self.profile.p_stream {
            self.stream_pos += self.profile.stream_stride;
            // Wrap the stream within 16MB to bound the page footprint.
            self.stream_base + (self.stream_pos % (16 << 20))
        } else {
            // Working set: sequential walk with occasional jumps.
            let ws = self.profile.working_set_bytes.max(64);
            if rng.unit() < WS_JUMP_PROB {
                self.ws_pos = rng.range(0, ws) & !7;
            } else {
                self.ws_pos = (self.ws_pos + 8) % ws;
            }
            self.ws_base + self.ws_pos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn distinct_lines(profile: MemProfile, n: usize) -> usize {
        let mut rng = TraceRng::new(7);
        let mut stream = AddressStream::new(profile);
        let mut lines = HashSet::new();
        for _ in 0..n {
            lines.insert(stream.next_address(&mut rng) / 64);
        }
        lines.len()
    }

    #[test]
    fn resident_profile_has_small_footprint() {
        let small = distinct_lines(MemProfile::resident(8 * 1024), 20_000);
        let large = distinct_lines(MemProfile::resident(256 * 1024), 20_000);
        assert!(small < large, "footprint must grow with the working set");
        // 8KB working set + 2KB hot region is ~160 lines of reuse; the 3%
        // streaming component adds up to ~600 touched-once lines.
        assert!(small <= 1000, "got {small} lines");
    }

    #[test]
    fn streaming_profile_touches_many_lines() {
        let resident = distinct_lines(MemProfile::resident(8 * 1024), 20_000);
        let streaming = distinct_lines(MemProfile::streaming(8 * 1024), 20_000);
        assert!(streaming > resident * 2);
    }

    #[test]
    fn addresses_are_reproducible() {
        let mut a = AddressStream::new(MemProfile::resident(4096));
        let mut b = AddressStream::new(MemProfile::resident(4096));
        let mut ra = TraceRng::new(9);
        let mut rb = TraceRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_address(&mut ra), b.next_address(&mut rb));
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut rng = TraceRng::new(3);
        let mut stream = AddressStream::new(MemProfile::streaming(64 * 1024));
        for _ in 0..10_000 {
            let addr = stream.next_address(&mut rng);
            let in_hot = (0x7FFF_0000_0000..0x7FFF_0001_0000).contains(&addr);
            let in_ws = (0x0000_0804_0000..0x0000_0814_0000).contains(&addr);
            let in_stream = (0x0000_2000_0000..0x0000_2100_0000).contains(&addr);
            assert!(in_hot || in_ws || in_stream, "stray address {addr:#x}");
        }
    }
}
