//! The command line: every end-to-end metric is printed, and a run whose
//! outputs are wrong exits nonzero with `"correct": false`.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftbarrier-perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_owned()
}

const SHORT_MB: &[&str] = &[
    "--workload",
    "simnet_mb_lossy",
    "--seed",
    "7",
    "--seconds",
    "1",
    "--trace",
    "0",
];

#[test]
fn clean_run_prints_every_end_to_end_metric() {
    let out = perfbench(SHORT_MB);
    assert_eq!(out.status.code(), Some(0), "{}", last_line(&out));
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for (name, unit) in ftbarrier_perfbench::workload::E2E {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")) && line.contains(unit),
            "{name} missing from {line}"
        );
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[simnet_mb_lossy] sim_phases_per_s "));
    assert!(stdout.contains("[simnet_mb_lossy] failed_op_frac 0 ratio"));
}

#[test]
fn wrong_outcome_exits_nonzero() {
    let mut args = SHORT_MB.to_vec();
    args.push("--sabotage");
    let out = perfbench(&args);
    assert_eq!(out.status.code(), Some(1));
    assert!(last_line(&out).starts_with("{\"correct\": false"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("gate failed"));
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "all"][..],
        &["--workload", "all", "--seed", "1", "--trace", "2"][..],
    ] {
        assert_eq!(perfbench(args).status.code(), Some(2), "{args:?}");
    }
}
