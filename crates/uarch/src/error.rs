//! Typed configuration errors for the pipeline and its structures.
//!
//! [`crate::pipeline::Pipeline::try_new`] validates a
//! [`crate::pipeline::PipelineConfig`] before any structure is built, so a
//! degenerate geometry (zero-capacity cache, register file smaller than
//! the architectural state, portless scheduler) surfaces as a
//! [`PipelineError`] instead of a panic or a hang deep inside a run.

use crate::cache::CacheConfig;
use crate::regfile::RegFileConfig;

/// Why a pipeline configuration cannot be instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// `alloc_width` is zero: the front-end could never make progress.
    ZeroAllocWidth,
    /// The scheduler has no entries.
    NoSchedulerEntries,
    /// The scheduler has more entries than the event core's one-word slot
    /// sets can hold.
    TooManySchedulerEntries {
        /// Configured entries.
        entries: usize,
        /// The supported maximum.
        max: usize,
    },
    /// The scheduler has no allocation ports.
    NoSchedulerPorts,
    /// A register file cannot hold the pre-mapped architectural registers
    /// (16 integer, 8 FP) plus at least one renaming register.
    RegFileTooSmall {
        /// "integer" or "FP".
        class: &'static str,
        /// Configured physical entries.
        entries: u16,
        /// Minimum required entries.
        required: u16,
    },
    /// A register file parameter is degenerate (width or ports).
    BadRegFile {
        /// "integer" or "FP".
        class: &'static str,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A cache-like structure has an unusable geometry.
    BadCacheGeometry {
        /// Which structure ("DL0", "L2", "DTLB", "BTB").
        structure: &'static str,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::ZeroAllocWidth => {
                write!(f, "alloc_width is zero: the pipeline cannot make progress")
            }
            PipelineError::NoSchedulerEntries => write!(f, "scheduler has no entries"),
            PipelineError::TooManySchedulerEntries { entries, max } => {
                write!(
                    f,
                    "scheduler has {entries} entries; at most {max} are supported"
                )
            }
            PipelineError::NoSchedulerPorts => write!(f, "scheduler has no allocation ports"),
            PipelineError::RegFileTooSmall {
                class,
                entries,
                required,
            } => write!(
                f,
                "{class} register file has {entries} entries but needs at least {required} \
                 (architectural state plus one renaming register)"
            ),
            PipelineError::BadRegFile { class, reason } => {
                write!(f, "{class} register file: {reason}")
            }
            PipelineError::BadCacheGeometry { structure, reason } => {
                write!(f, "{structure}: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Validates one cache geometry.
pub fn validate_cache(structure: &'static str, config: &CacheConfig) -> Result<(), PipelineError> {
    let fail = |reason| Err(PipelineError::BadCacheGeometry { structure, reason });
    if config.line_bytes == 0 {
        return fail("zero line size");
    }
    if config.size_bytes == 0 {
        return fail("zero capacity");
    }
    if config.ways == 0 {
        return fail("zero associativity");
    }
    let lines = config.size_bytes / u64::from(config.line_bytes);
    if lines == 0 {
        return fail("capacity smaller than one line");
    }
    if !lines.is_multiple_of(u64::from(config.ways)) {
        return fail("lines do not divide evenly into ways");
    }
    Ok(())
}

/// Validates a register file configuration against the architectural
/// registers the pipeline pre-maps into it.
pub fn validate_regfile(
    class: &'static str,
    config: &RegFileConfig,
    arch_regs: u16,
) -> Result<(), PipelineError> {
    if config.width == 0 || config.width > 128 {
        return Err(PipelineError::BadRegFile {
            class,
            reason: "width must be in 1..=128",
        });
    }
    if config.write_ports == 0 {
        return Err(PipelineError::BadRegFile {
            class,
            reason: "needs at least one write port",
        });
    }
    let required = arch_regs + 1;
    if config.entries < required {
        return Err(PipelineError::RegFileTooSmall {
            class,
            entries: config.entries,
            required,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_geometries_pass() {
        assert_eq!(validate_cache("DL0", &CacheConfig::dl0(32, 8)), Ok(()));
        assert_eq!(validate_cache("DTLB", &CacheConfig::dtlb(128, 8)), Ok(()));
        assert_eq!(
            validate_regfile("integer", &RegFileConfig::integer(), 16),
            Ok(())
        );
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let mut c = CacheConfig::dl0(32, 8);
        c.size_bytes = 0;
        assert!(matches!(
            validate_cache("DL0", &c),
            Err(PipelineError::BadCacheGeometry {
                structure: "DL0",
                ..
            })
        ));
    }

    #[test]
    fn non_dividing_ways_are_rejected() {
        let c = CacheConfig {
            size_bytes: 64 * 3,
            ways: 2,
            line_bytes: 64,
        };
        assert!(validate_cache("L2", &c).is_err());
    }

    #[test]
    fn undersized_regfile_is_rejected() {
        let c = RegFileConfig {
            entries: 16,
            width: 32,
            write_ports: 2,
        };
        let err = validate_regfile("integer", &c, 16).unwrap_err();
        assert!(err.to_string().contains("16 entries"));
    }

    #[test]
    fn errors_render_usable_messages() {
        let msgs = [
            PipelineError::ZeroAllocWidth.to_string(),
            PipelineError::NoSchedulerEntries.to_string(),
            PipelineError::NoSchedulerPorts.to_string(),
            PipelineError::BadCacheGeometry {
                structure: "BTB",
                reason: "zero capacity",
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
