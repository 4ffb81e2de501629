//! End-to-end tests of the `mrl-quantiles` binary itself (spawned as a
//! child process, exercising argument handling, stdin framing and exit
//! codes).

use std::io::Write;
use std::process::{Command, Stdio};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mrl-quantiles"))
}

fn run_with_input(args: &[&str], input: impl AsRef<[u8]>) -> (String, String, i32) {
    let mut child = binary()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_ref())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary finishes");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn median_of_small_input() {
    let input: String = (1..=100).map(|i| format!("{i}\n")).collect();
    let (stdout, stderr, code) = run_with_input(&["--eps", "0.05", "--phi", "0.5"], &input);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("p0.5\t50"), "stdout: {stdout}");
    assert!(stderr.contains("n=100"), "stderr: {stderr}");
}

#[test]
fn multiple_phis_and_seed() {
    let input: String = (1..=1000).map(|i| format!("{i}\n")).collect();
    let (stdout, _, code) = run_with_input(
        &["--eps", "0.05", "--phi", "0.1,0.9", "--seed", "3"],
        &input,
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("p0.1\t"));
    assert!(stdout.contains("p0.9\t"));
}

#[test]
fn help_exits_zero_without_reading_stdin() {
    let (stdout, _, code) = run_with_input(&["--help"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn bad_flag_exits_two_with_usage() {
    let (_, stderr, code) = run_with_input(&["--bogus"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn bad_epsilon_exits_two() {
    let (_, stderr, code) = run_with_input(&["--eps", "7"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("--eps"));
}

#[test]
fn garbage_lines_are_reported_not_fatal() {
    // A line that is not UTF-8 is garbage like any other.
    let (stdout, stderr, code) = run_with_input(&[], b"1\nfoo\n2\n\xff\nbar\n3\n");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("# skipped 3"), "stdout: {stdout}");
}

#[test]
fn empty_stdin_is_graceful() {
    let (stdout, stderr, code) = run_with_input(&[], "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("# empty input"));
}

#[test]
fn stats_json_goes_to_stderr_as_valid_json() {
    let input: String = (0..20_000u64)
        .map(|i| format!("{}\n", (i * 2654435761) % 20_000))
        .collect();
    let (stdout, stderr, code) = run_with_input(&["--eps", "0.05", "--stats=json"], &input);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("p0.5\t"), "stdout stays pure: {stdout}");
    assert!(!stdout.contains('{'), "no JSON on stdout: {stdout}");
    let json_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(json_lines.len(), 1, "one final report: {stderr}");
    let report: mrl_cli::StatsReport =
        serde_json::from_str(json_lines[0]).expect("stderr stats line is valid JSON");
    assert_eq!(report.n, 20_000);
    let audit = report.audit.expect("audit present in single-sketch mode");
    assert!(audit.headroom >= 0.0);
    assert!(report.metrics.gauges.contains_key("audit.headroom"));
}

#[test]
fn stats_text_renders_on_stderr() {
    let input: String = (0..5_000u64).map(|i| format!("{i}\n")).collect();
    let (_, stderr, code) = run_with_input(&["--eps", "0.05", "--stats"], &input);
    assert_eq!(code, 0);
    assert!(stderr.contains("# stats n=5000"), "stderr: {stderr}");
    assert!(stderr.contains("audit.headroom"), "stderr: {stderr}");
}
