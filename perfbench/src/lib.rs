//! Layered end-to-end benchmark of the ftbarrier workspace.
//!
//! Four closed-loop workloads drive the crates through their public entry
//! points: the `FtBarrier` thread runtime ([`runtime_wl`]), the barrier
//! service over loopback TCP ([`service_wl`]), and the two simulators
//! under faults ([`sim_wl`]). Every run checks its outputs ([`Gate`]).
//! A traced run ([`traced`]) adds spans around each call into a layer and
//! standalone per-layer probes ([`probes`]); see `perfbench/README.md` for
//! which layer metric should move which end-to-end metric.

pub mod host;
pub mod probes;
pub mod report;
pub mod runtime_wl;
pub mod service_wl;
pub mod sim_wl;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

/// Correctness bookkeeping of one run: checks attempted, checks failed,
/// and a note per failure kind (the first few are printed).
#[derive(Debug, Default, Clone)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    /// Count one check; record `note` if it failed.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Abort the run after an error no gate can absorb (a barrier call
/// failed, so the other driver thread may never be released): print a
/// failing result line and exit nonzero.
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: fatal: {msg}");
    println!(
        "{}",
        report::result_line(false, 1, 1, &report::Metrics::default())
    );
    std::process::exit(1)
}
