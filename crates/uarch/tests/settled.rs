//! A pipeline run ends settled: `Pipeline::run` (and the chunked and
//! cycle-accurate loops that share its body) flushes the register files'
//! and the scheduler's residency up to the run's last cycle, so callers
//! read exact statistics without a `sync` of their own.

use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};
use uarch::scheduler::Field;

/// Syncing a clone of each residency-keeping structure at the run's end
/// must change no count: the run already flushed everything.
fn assert_settled(pipe: &Pipeline, context: &str) {
    let now = pipe.now();
    for (name, rf) in [("int_rf", &pipe.parts.int_rf), ("fp_rf", &pipe.parts.fp_rf)] {
        let mut synced = rf.clone();
        synced.sync(now);
        assert_eq!(
            synced.residency(),
            rf.residency(),
            "{context}: {name} residency moved on sync"
        );
    }
    let mut synced = pipe.parts.sched.clone();
    synced.sync(now);
    for field in Field::ALL {
        assert_eq!(
            synced.field_residency(field),
            pipe.parts.sched.field_residency(field),
            "{context}: scheduler {field} residency moved on sync"
        );
    }
}

#[test]
fn every_run_loop_ends_with_settled_residency() {
    let spec = TraceSpec::new(Suite::Office, 0);

    let mut event = Pipeline::new(PipelineConfig::default());
    event.run(spec.generate(4_000), &mut NoHooks);
    assert_settled(&event, "run");
    // Back-to-back runs settle at each run's own end.
    event.run(
        TraceSpec::new(Suite::Server, 1).generate(2_000),
        &mut NoHooks,
    );
    assert_settled(&event, "second run");

    let mut chunked = Pipeline::new(PipelineConfig::default());
    chunked.run_chunked(spec.generate_chunks(4_000, 256), &mut NoHooks);
    assert_settled(&chunked, "run_chunked");

    let mut reference = Pipeline::new(PipelineConfig::default());
    reference.run_cycle_accurate(spec.generate(4_000), &mut NoHooks);
    assert_settled(&reference, "run_cycle_accurate");
}

/// §4.5: register tags and the MOB id need no protection because entries
/// are used evenly. Read straight after a run, with no `sync`, every bit
/// of those scheduler fields sits near a 50% bias on every suite.
#[test]
fn self_balanced_scheduler_fields_read_balanced_after_a_run() {
    for suite in Suite::ALL {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.run(TraceSpec::new(suite, 0).generate(30_000), &mut NoHooks);
        for field in Field::ALL.into_iter().filter(|f| f.is_self_balanced()) {
            let biases = pipe.parts.sched.field_residency(field).biases();
            for (bit, bias) in biases.iter().enumerate() {
                let b = bias.fraction();
                assert!(
                    (0.45..=0.55).contains(&b),
                    "{suite} {field} bit {bit}: bias {b}"
                );
            }
        }
    }
}
