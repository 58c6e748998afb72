//! Observability glue: how the Penelope hook chain reports into the
//! telemetry layer.
//!
//! The `penelope-telemetry` crate defines [`EventSource`], the upward
//! channel its [`TelemetryHooks`] wrapper uses to sample fault counts,
//! invariant violations and RINV freshness from whatever hook chain it
//! wraps. This module implements it for every hook type this crate
//! composes — mechanism hooks, [`FaultHooks`] and [`CheckedHooks`] — and
//! provides [`with_recording_each`] (and its one-hook form
//! [`with_recording`]), the one place experiment loops consult the
//! thread-local recorder. It also encodes [`Scale`] and [`PenelopeConfig`]
//! as JSON for the run manifest.
//!
//! When no recorder is installed, [`with_recording_each`] runs the body
//! with the hooks untouched: no wrapper and no sampling — the
//! zero-cost-when-disabled contract.

use penelope_telemetry::{recorder, EventSource, Json, TelemetryHooks};
use uarch::pipeline::Hooks;

use crate::checked::CheckedHooks;
use crate::experiments::Scale;
use crate::fault::FaultHooks;
use crate::processor::{CacheSchemes, PenelopeConfig, PenelopeHooks};
use crate::regfile_aware::RegfileIsvHooks;
use crate::sched_aware::SchedulerHooks;

impl EventSource for PenelopeHooks {
    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        [
            self.regfiles.int.rinv_staleness(now),
            self.regfiles.fp.rinv_staleness(now),
            self.sched.balancer.rinv_staleness(now),
        ]
        .into_iter()
        .max_by_key(|(age, _)| *age)
    }
}

/// The cache schemes carry no RINV and no fault or checker state.
impl EventSource for CacheSchemes {}

impl EventSource for RegfileIsvHooks {
    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        [self.int.rinv_staleness(now), self.fp.rinv_staleness(now)]
            .into_iter()
            .max_by_key(|(age, _)| *age)
    }
}

impl EventSource for SchedulerHooks {
    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        Some(self.balancer.rinv_staleness(now))
    }
}

impl<H: EventSource> EventSource for FaultHooks<H> {
    fn fault_events(&self) -> u64 {
        self.landed() + self.inner().fault_events()
    }

    fn invariant_events(&self) -> u64 {
        self.inner().invariant_events()
    }

    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        self.inner().rinv_age(now)
    }
}

impl<H: EventSource> EventSource for CheckedHooks<H> {
    fn fault_events(&self) -> u64 {
        self.inner().fault_events()
    }

    fn invariant_events(&self) -> u64 {
        self.violation_count() + self.inner().invariant_events()
    }

    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        self.inner().rinv_age(now)
    }
}

/// Runs `body` with telemetry wrapped around `hooks` when a recorder is
/// installed on this thread, and with the bare hooks otherwise: the
/// one-hook form of [`with_recording_each`].
///
/// The body receives the hook chain as `&mut dyn Hooks` so the same loop
/// serves both paths; pass it to `Pipeline::run` by reference
/// (`pipe.run(trace, &mut h)`).
pub fn with_recording<T>(
    hooks: &mut (impl Hooks + EventSource),
    body: impl FnOnce(&mut dyn Hooks) -> T,
) -> T {
    with_recording_each(std::slice::from_mut(hooks), |chains| body(&mut *chains[0]))
}

/// Runs `body` with one telemetry wrapper around each of `hooks` when a
/// recorder is installed on this thread, and with the bare hooks
/// otherwise.
///
/// The body receives one `&mut dyn Hooks` per element of `hooks`, in the
/// same order. Each wrapper lives for the whole body, so a hook set that
/// runs several traces keeps one sampling clock across them. When the
/// body returns, the wrappers' telemetry is absorbed into the recorder in
/// slice order — exactly what one [`with_recording`] call per hook set,
/// made in that order, would absorb. That also happens when the body
/// unwinds, so a panic caught by the bench supervisor still reports
/// whatever the run collected up to the point of failure instead of a
/// blank stream.
pub fn with_recording_each<H: Hooks + EventSource, T>(
    hooks: &mut [H],
    body: impl FnOnce(&mut [&mut dyn Hooks]) -> T,
) -> T {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    match recorder::settings() {
        Some(settings) => {
            let _span = penelope_telemetry::span!("obs.with_recording");
            let mut telemetry: Vec<TelemetryHooks<&mut H>> = hooks
                .iter_mut()
                .map(|h| TelemetryHooks::new(h, settings.sample_period, settings.series_capacity))
                .collect();
            let mut chains: Vec<&mut dyn Hooks> =
                telemetry.iter_mut().map(|t| t as &mut dyn Hooks).collect();
            // AssertUnwindSafe: on unwind the hooks/pipeline state is
            // discarded by the supervisor, never observed half-mutated.
            let result = catch_unwind(AssertUnwindSafe(|| body(&mut chains)));
            drop(chains);
            for wrapper in &telemetry {
                recorder::absorb(wrapper.output());
            }
            match result {
                Ok(result) => result,
                Err(payload) => resume_unwind(payload),
            }
        }
        None => {
            let mut chains: Vec<&mut dyn Hooks> =
                hooks.iter_mut().map(|h| h as &mut dyn Hooks).collect();
            body(&mut chains)
        }
    }
}

/// Extracts the human-readable message from a caught panic payload.
/// Panics raised with `panic!("...")` or `panic!("{x}")` carry a `&str` or
/// `String`; anything else gets a stable placeholder so supervisors can
/// always report *something*.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Encodes a [`Scale`] for the run manifest.
pub fn scale_json(scale: &Scale) -> Json {
    let mut obj = Json::object();
    obj.set("traces_per_suite", Json::from(scale.traces_per_suite));
    obj.set("uops_per_trace", Json::from(scale.uops_per_trace));
    obj.set("time_scale", Json::from(scale.time_scale));
    obj
}

/// Encodes the interesting half of a [`PenelopeConfig`] for the run
/// manifest: scheme labels, sampling period and seed, plus the pipeline
/// geometry that the schemes act on.
pub fn config_json(config: &PenelopeConfig) -> Json {
    let mut obj = Json::object();
    obj.set("dl0_scheme", Json::from(config.dl0_scheme.label()));
    obj.set("dtlb_scheme", Json::from(config.dtlb_scheme.label()));
    obj.set("btb_scheme", Json::from(config.btb_scheme.label()));
    obj.set("sample_period", Json::from(config.sample_period));
    obj.set("seed", Json::from(config.seed));
    let p = &config.pipeline;
    let mut pipe = Json::object();
    pipe.set("dl0_bytes", Json::from(p.dl0.size_bytes));
    pipe.set("dl0_ways", Json::from(u64::from(p.dl0.ways)));
    pipe.set("dtlb_entries", Json::from(u64::from(p.dtlb_entries)));
    pipe.set("btb_entries", Json::from(u64::from(p.btb_entries)));
    pipe.set("sched_entries", Json::from(p.sched_entries));
    pipe.set("int_rf_entries", Json::from(u64::from(p.int_rf.entries)));
    pipe.set("fp_rf_entries", Json::from(u64::from(p.fp_rf.entries)));
    obj.set("pipeline", pipe);
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use crate::processor::build;
    use penelope_telemetry::recorder::Settings;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn event_sources_compose_through_the_wrapper_chain() {
        use crate::checked::Policy;
        let (_, hooks) = build(&PenelopeConfig::default()).expect("valid config");
        let faulted = FaultInjector::disabled().hooks(hooks);
        let mut checked = CheckedHooks::new(faulted, Policy::Count, 512);
        assert_eq!(checked.fault_events(), 0);
        assert_eq!(checked.invariant_events(), 0);
        checked.record(3, "obs", "synthetic".into());
        assert_eq!(checked.invariant_events(), 1);
        // RINV age flows up from the mechanism hooks through both wrappers.
        assert!(checked.rinv_age(0).is_some());
    }

    #[test]
    fn with_recording_is_transparent_when_disabled() {
        /// Not zero-sized, so its address identifies it.
        struct Owned(u64);
        impl Hooks for Owned {}
        impl EventSource for Owned {}

        let _ = recorder::finish();
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = Owned(7);
        let own = &hooks as *const Owned as *const ();
        let trace = TraceSpec::new(Suite::Office, 0).generate(2_000);
        let (result, seen) = with_recording(&mut hooks, |mut h| {
            let seen = h as *const dyn Hooks as *const ();
            (pipe.run(trace, &mut h), seen)
        });
        assert!(result.cycles > 0);
        assert_eq!(seen, own, "the body must get the caller's hooks, unwrapped");
        assert_eq!(hooks.0, 7);
        assert!(recorder::finish().is_none(), "nothing was installed");
    }

    #[test]
    fn with_recording_feeds_the_installed_recorder() {
        recorder::install(Settings {
            sample_period: 64,
            series_capacity: 128,
        });
        let plan = FaultPlan::random(1);
        let mut injector = FaultInjector::new(&plan);
        let (_, hooks) = build(&PenelopeConfig::default()).expect("valid config");
        let mut faulted = injector.hooks(hooks);
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let trace = TraceSpec::new(Suite::Kernels, 0).generate(4_000);
        let result = with_recording(&mut faulted, |mut h| pipe.run(trace, &mut h));
        recorder::record_run(result.cycles, result.uops);
        let collector = recorder::finish().expect("installed above");
        assert_eq!(collector.total_cycles, result.cycles);
        assert!(
            !collector.output.series.is_empty(),
            "sampling must have run"
        );
    }

    #[test]
    fn panic_messages_are_extracted_from_both_payload_shapes() {
        let caught = std::panic::catch_unwind(|| panic!("static str"));
        assert_eq!(panic_message(caught.unwrap_err().as_ref()), "static str");
        let cell = 3;
        let caught = std::panic::catch_unwind(|| panic!("cell {cell} died"));
        assert_eq!(panic_message(caught.unwrap_err().as_ref()), "cell 3 died");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(17u32));
        assert_eq!(
            panic_message(caught.unwrap_err().as_ref()),
            "non-string panic payload"
        );
    }

    #[test]
    fn manifest_encoders_round_trip() {
        let scale = Scale::quick();
        let encoded = scale_json(&scale).encode();
        assert!(encoded.contains("\"uops_per_trace\":8000"));
        let config = config_json(&PenelopeConfig::default()).encode();
        assert!(config.contains("\"dl0_scheme\""));
        assert!(config.contains("\"pipeline\""));
    }
}
