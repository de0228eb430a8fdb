//! The four workloads, their common run record, and the end-to-end
//! metrics derived from it.

use crate::report::Metrics;
use crate::stats::{median, Dist};
use crate::trace::SpanLog;
use crate::Gate;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RuntimeTree32,
    ServiceLoopback,
    SimTreeFaults,
    SimnetMbLossy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RuntimeTree32,
        Workload::ServiceLoopback,
        Workload::SimTreeFaults,
        Workload::SimnetMbLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RuntimeTree32 => "runtime_tree32",
            Workload::ServiceLoopback => "service_loopback",
            Workload::SimTreeFaults => "sim_tree_faults",
            Workload::SimnetMbLossy => "simnet_mb_lossy",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's own names: its throughput metric, the stem of its
    /// latency metrics, and the latency unit with its size in nanoseconds.
    fn own_names(self) -> (&'static str, &'static str, &'static str, f64) {
        match self {
            Workload::RuntimeTree32 => ("crossings_per_s", "crossing", "ns", 1.0),
            Workload::ServiceLoopback => ("releases_per_s", "release", "us", 1e3),
            Workload::SimTreeFaults | Workload::SimnetMbLossy => {
                ("sim_phases_per_s", "sim_phase", "us", 1e3)
            }
        }
    }

    pub fn run(self, opts: &Opts) -> Run {
        match self {
            Workload::RuntimeTree32 => crate::runtime_wl::run(opts),
            Workload::ServiceLoopback => crate::service_wl::run(opts),
            Workload::SimTreeFaults => crate::sim_wl::run_tree(opts),
            Workload::SimnetMbLossy => crate::sim_wl::run_mb(opts),
        }
    }
}

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Closed loop for this many wall-clock seconds.
    Seconds(f64),
    /// Exactly this many operations (episodes, round trips, cells): runs
    /// whose counts must repeat exactly.
    Ops(u64),
}

impl Budget {
    /// Part `part` of this budget split into `parts` equal shares (the
    /// first `n % parts` shares of an operation count get one more).
    pub fn share(self, parts: usize, part: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / parts as f64),
            Budget::Ops(n) => {
                let (share, extra) = (n / parts as u64, n % parts as u64);
                Budget::Ops(share + u64::from((part as u64) < extra))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub budget: Budget,
    /// Record spans around each call into a layer.
    pub trace: bool,
    /// Inject an outcome the correctness gates must catch.
    pub sabotage: bool,
}

/// The end-to-end metrics every untraced run reports, with their units,
/// in the order of `BENCHMARK.json`'s `end_to_end`.
///
/// The p99 is printed with every run but not gated: on a 2-vCPU host a
/// noisy neighbour moves it by half between runs, while the p90 holds to
/// a few percent.
pub const E2E: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One timed operation: an episode, a round trip, or a simulator cell.
/// Stored as `f32`s (16 bytes) so the sample buffers stay a small part of
/// the process's peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    end_s: f32,
    dur_s: f32,
    work: f32,
    /// NaN when excluded from latency.
    latency_ns: f32,
}

impl Sample {
    /// An operation that ended at `end_s` (seconds from any instant the
    /// run's samples share), took `dur_s`, completed `work` unit
    /// operations (0 for the second client's view of a phase the first
    /// client already counts) and contributes `latency_ns`.
    pub fn new(end_s: f64, dur_s: f64, work: f64, latency_ns: f64) -> Sample {
        Sample {
            end_s: end_s as f32,
            dur_s: dur_s as f32,
            work: work as f32,
            latency_ns: latency_ns as f32,
        }
    }

    /// The same operation, kept for throughput but not for latency (a
    /// phase held for a mid-run scrape).
    pub fn without_latency(self) -> Sample {
        Sample {
            latency_ns: f32::NAN,
            ..self
        }
    }

    fn latency_ns(&self) -> Option<f64> {
        (!self.latency_ns.is_nan()).then_some(f64::from(self.latency_ns))
    }
}

/// Throughput and latency are medians over this many equal time windows
/// of the run, so a burst of host noise moves one window, not the result.
pub const WINDOWS: usize = 10;
/// Samples a window must hold beyond a percentile for the percentile to be
/// taken per window (the median over windows); otherwise it is taken over
/// the whole run.
pub const MIN_BEYOND: f64 = 10.0;

/// What one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Unit operations completed in the timed region: episodes, released
    /// phases, or successful simulated phases.
    pub ops: u64,
    /// Wall time of the timed region.
    pub elapsed_s: f64,
    pub samples: Vec<Sample>,
    /// Median set-up time before the first timed operation.
    pub setup_s: f64,
    /// For the simulators, whose samples and set-up times are at nominal
    /// host speed (see [`crate::sim_wl`]): the median over the run of how
    /// much slower than nominal the host ran. `None` for the workloads
    /// measured on the wall clock alone.
    pub host_slowdown: Option<f64>,
    pub gate: Gate,
    /// Spans (empty unless traced).
    pub spans: Option<SpanLog>,
    /// Counts that must repeat exactly for a given seed and budget.
    pub counts: BTreeMap<&'static str, f64>,
    /// Workload-specific layer figures (per-layer metric name → value).
    pub layer: Metrics,
}

impl Run {
    fn window_len(&self) -> (f64, f64) {
        let start = self
            .samples
            .iter()
            .map(|s| f64::from(s.end_s - s.dur_s))
            .fold(f64::INFINITY, f64::min);
        let end = self
            .samples
            .iter()
            .map(|s| f64::from(s.end_s))
            .fold(f64::NEG_INFINITY, f64::max);
        (start, (end - start) / WINDOWS as f64)
    }

    /// Median over the windows of the work completed in each (an operation
    /// spanning windows is credited to each in proportion), per second.
    pub fn throughput(&self) -> f64 {
        let (start, len) = self.window_len();
        let mut work = [0.0; WINDOWS];
        let window = |t: f64| (((t - start) / len) as usize).min(WINDOWS - 1);
        for s in self.samples.iter().filter(|s| s.work > 0.0) {
            let (a, b) = (f64::from(s.end_s - s.dur_s), f64::from(s.end_s));
            let (dur, units) = (f64::from(s.dur_s), f64::from(s.work));
            if dur <= 0.0 {
                work[window(b)] += units;
                continue;
            }
            for (k, w) in work
                .iter_mut()
                .enumerate()
                .take(window(b) + 1)
                .skip(window(a))
            {
                let lo = a.max(start + k as f64 * len);
                let hi = b.min(start + (k + 1) as f64 * len);
                *w += units * (hi - lo).max(0.0) / dur;
            }
        }
        median(&work) / len
    }

    /// Latency percentile `q`, in nanoseconds: the median over windows of
    /// each window's percentile when every window holds at least
    /// [`MIN_BEYOND`] samples beyond it, else the percentile over the
    /// whole run.
    pub fn latency_ns(&self, q: f64) -> f64 {
        let (start, len) = self.window_len();
        let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for s in &self.samples {
            if let Some(ns) = s.latency_ns() {
                let k = ((f64::from(s.end_s) - start) / len) as usize;
                let k = k.min(WINDOWS - 1);
                per_window[k].push(ns);
            }
        }
        let needed = (MIN_BEYOND / (1.0 - q)).ceil() as usize;
        if per_window.iter().all(|w| w.len() >= needed) {
            let qs: Vec<f64> = per_window.into_iter().map(|w| Dist::new(w).q(q)).collect();
            median(&qs)
        } else {
            Dist::new(per_window.concat()).q(q)
        }
    }

    pub fn latency_count(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.latency_ns().is_some())
            .count()
    }

    /// The gated end-to-end metrics, in the order of [`E2E`].
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Metrics {
        let values = [
            self.throughput(),
            self.latency_ns(0.5) / 1e3,
            self.latency_ns(0.9) / 1e3,
            self.setup_s,
            peak_rss_mb,
        ];
        let mut m = Metrics::default();
        for ((name, unit), v) in E2E.into_iter().zip(values) {
            m.push(name, v, unit);
        }
        m
    }

    /// Human-readable lines under the workload's own metric names.
    pub fn describe(&self, w: Workload, peak_rss_mb: f64) -> Vec<String> {
        let (tput, stem, unit, scale) = w.own_names();
        let failed_frac = self.gate.failed as f64 / self.gate.attempted.max(1) as f64;
        let mut lines = vec![
            format!(
                "{tput} {:.1} 1/s ({} in {:.2} s, median of {WINDOWS} windows)",
                self.throughput(),
                self.ops,
                self.elapsed_s
            ),
            format!(
                "{stem}_p50_{unit} {:.2} {unit}",
                self.latency_ns(0.5) / scale
            ),
            format!(
                "{stem}_p90_{unit} {:.2} {unit}",
                self.latency_ns(0.9) / scale
            ),
            format!(
                "{stem}_p99_{unit} {:.2} {unit} (not gated; n={})",
                self.latency_ns(0.99) / scale,
                self.latency_count()
            ),
            format!("setup_s {:.3e} s", self.setup_s),
            format!("peak_rss_mb {peak_rss_mb:.1} MB"),
            format!(
                "failed_op_frac {failed_frac} ratio ({} of {} checks)",
                self.gate.failed, self.gate.attempted
            ),
        ];
        if let Some(k) = self.host_slowdown {
            lines.push(format!(
                "host_slowdown {k:.4} ratio (times above are at nominal host speed; \
                 raw wall clock: {:.1} phases/s)",
                self.ops as f64 / self.elapsed_s
            ));
        }
        lines
    }
}
