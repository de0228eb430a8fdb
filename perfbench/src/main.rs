//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints each metric on its own line, then one JSON result line. Exits 1
//! when any correctness gate fails and 2 on bad arguments.

use ftbarrier_perfbench::host::{parallelism_ratio, peak_rss_mb};
use ftbarrier_perfbench::report::{result_line, Metrics};
use ftbarrier_perfbench::workload::{Budget, Opts, Workload};
use ftbarrier_perfbench::{traced, Gate};
use std::path::Path;

const USAGE: &str = "usage: perfbench --workload <runtime_tree32|service_loopback|\
sim_tree_faults|simnet_mb_lossy|all> --seed <n> --seconds <n> --trace <0|1> [--sabotage]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sabotage: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace, mut sabotage) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        if flag == "--sabotage" {
            sabotage = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        sabotage,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    println!(
        "host available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        // Every layer's metrics, so the same run whichever workload was named.
        let t = traced::run(args.seed, args.sabotage);
        let dir = Path::new("perfbench/out");
        let file = dir.join(format!("trace-{}.json", args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, t.spans.to_chrome()))
        {
            Ok(()) => println!("spans written to {}", file.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", file.display()),
        }
        for m in &t.metrics.0 {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        metrics = t.metrics;
        gate.merge(t.gate);
    } else {
        let many = args.workloads.len() > 1;
        for &w in &args.workloads {
            let prefix = |name: &str| {
                if many {
                    format!("{}.{name}", w.name())
                } else {
                    name.to_owned()
                }
            };
            println!(
                "[{}] host.parallelism_ratio {:.3} ratio",
                w.name(),
                parallelism_ratio()
            );
            let run = w.run(&Opts {
                seed: args.seed,
                budget: Budget::Seconds(args.seconds),
                trace: false,
                sabotage: args.sabotage,
            });
            let rss = peak_rss_mb();
            for line in run.describe(w, rss) {
                println!("[{}] {line}", w.name());
            }
            for m in run.end_to_end(rss).0 {
                metrics.push(prefix(&m.name), m.value, m.unit);
            }
            gate.merge(run.gate);
        }
    }
    for note in &gate.notes {
        eprintln!("perfbench: gate failed: {note}");
    }
    let bad = metrics.non_finite();
    if !bad.is_empty() {
        eprintln!("perfbench: non-finite metrics: {bad:?}");
    }
    let correct = gate.ok() && bad.is_empty();
    println!(
        "{}",
        result_line(correct, gate.attempted.max(1), gate.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
