//! In-memory spans recorded by the benchmark around each call into a
//! layer's public functions, written out as a Chrome trace at exit.
//!
//! Every span's duration feeds its name's distribution; the first
//! [`KEEP`] spans of a log are also kept whole (name, track, request id,
//! start, end) for the trace file. Spans of one request (an episode, a
//! phase, a cell) share its id.

use crate::stats::Dist;
use ftbarrier_telemetry::{to_chrome_trace, Telemetry, TimeDomain};
use std::collections::BTreeMap;
use std::time::Instant;

/// Whole spans kept per log for the trace file.
pub const KEEP: usize = 4096;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    track: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's spans. Logs of one run share an `epoch` and are merged
/// after the threads join.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    durations: BTreeMap<&'static str, Vec<u32>>,
    kept: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            durations: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Record the span `[start, end]` of a call named `name`.
    pub fn record(
        &mut self,
        name: &'static str,
        track: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let dur = end.saturating_duration_since(start).as_nanos();
        self.durations
            .entry(name)
            .or_default()
            .push(u32::try_from(dur).unwrap_or(u32::MAX));
        if self.kept.len() < KEEP {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span {
                name,
                track,
                req,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// Fold `log`, if any, into `acc`, which starts out empty.
    pub fn collect(acc: &mut Option<SpanLog>, log: Option<SpanLog>) {
        match (acc.as_mut(), log) {
            (Some(all), Some(log)) => all.merge(log),
            (None, log) => *acc = log,
            (Some(_), None) => {}
        }
    }

    pub fn merge(&mut self, other: SpanLog) {
        for (name, mut d) in other.durations {
            self.durations.entry(name).or_default().append(&mut d);
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn dist_ns(&self, name: &str) -> Dist {
        Dist::new(
            self.durations
                .get(name)
                .map(|d| d.iter().map(|&x| f64::from(x)).collect())
                .unwrap_or_default(),
        )
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    /// Render the kept spans as a Chrome `trace_event` document through
    /// the workspace's own exporter.
    pub fn to_chrome(&self) -> String {
        let telemetry = Telemetry::recording(TimeDomain::Wall);
        for s in &self.kept {
            let track = telemetry.track(s.track);
            telemetry.span_with(
                track,
                s.name,
                s.start_ns as f64 * 1e-9,
                s.end_ns as f64 * 1e-9,
                &[("req", &s.req.to_string())],
            );
        }
        to_chrome_trace(&telemetry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_merge_and_export() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let mut b = SpanLog::new(epoch);
        let t = epoch + Duration::from_micros(5);
        a.record("x.call", "t0", 1, t, t + Duration::from_nanos(100));
        b.record("x.call", "t1", 1, t, t + Duration::from_nanos(300));
        a.merge(b);
        assert_eq!(a.count("x.call"), 2);
        assert_eq!(a.dist_ns("x.call").median(), 200.0);
        let chrome = a.to_chrome();
        assert!(chrome.contains("x.call") && chrome.contains("traceEvents"));
    }
}
