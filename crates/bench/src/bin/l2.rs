//! Regenerates the L2 study extension: periodic inversion vs Penelope on a
//! slow second-level cache.
use std::process::ExitCode;

use penelope::l2_study::{l2_study, render_l2_study};

fn main() -> ExitCode {
    penelope_bench::run_main("l2", "L2 study", "extension of §3 / Table 4", |scale| {
        let rows = l2_study(&scale.workload(), scale.uops_per_trace)?;
        Ok(render_l2_study(&rows))
    })
}
