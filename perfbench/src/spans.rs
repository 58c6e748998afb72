//! The benchmark's own span recorder for the traced run.
//!
//! Spans (name, start, end, parent) are recorded around each call the
//! benchmark makes into a layer, kept in memory and written out once at
//! the end. The program's own telemetry recorder is deliberately not used:
//! installing it turns on `TelemetryHooks` and changes what is measured.

use std::path::Path;
use std::time::Instant;

use penelope_telemetry::Json;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans; a disabled tracer only runs the bodies.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `body` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap, since spans nest on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Self time summed by span name, largest first: `(name, self ns, count)`.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, u64)> {
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => totals.push((span.name.clone(), own, 1)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals
    }

    /// Writes every span as a JSON array of
    /// `{name, start_ns, end_ns, self_ns, parent}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let records = self
            .spans
            .iter()
            .zip(self.self_ns())
            .map(|(span, own)| {
                let mut obj = Json::object();
                obj.set("name", Json::from(span.name.as_str()));
                obj.set("start_ns", Json::UInt(span.start_ns));
                obj.set("end_ns", Json::UInt(span.end_ns));
                obj.set("self_ns", Json::UInt(own));
                obj.set("parent", span.parent.map_or(Json::Null, Json::from));
                obj
            })
            .collect();
        let mut encoded = Json::Array(records).encode();
        encoded.push('\n');
        std::fs::write(path, encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = tracer.self_ns();
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[0], outer - inner);
        assert_eq!(own[1], inner);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
