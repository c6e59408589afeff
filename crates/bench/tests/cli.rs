//! Error-path tests for the shared `parse_args` CLI, driven through a
//! real binary so the exit status and stderr contract is what users see.
//!
//! All harness binaries share `mempar_bench::parse_args`, so one binary
//! (`table2`) stands in for all of them.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    run_env(args, &[])
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    // The test runner's environment must not leak into the contract
    // under test.
    cmd.env_remove("MEMPAR_LOG");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.args(args).output().expect("spawn table2")
}

fn assert_usage_exit(args: &[&str], needle: &str) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "args {args:?}: stderr missing {needle:?}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "args {args:?}: stderr missing usage string:\n{stderr}"
    );
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    assert_usage_exit(&["--bogus"], "unknown flag --bogus");
}

#[test]
fn malformed_threads_exits_2_with_usage() {
    assert_usage_exit(&["--threads", "many"], "--threads expects an integer");
}

#[test]
fn zero_scale_exits_2_with_usage() {
    assert_usage_exit(&["--scale", "0"], "--scale expects a positive float");
    assert_usage_exit(&["--scale", "-1.5"], "--scale expects a positive float");
    assert_usage_exit(&["--scale", "nan"], "--scale expects a positive float");
}

#[test]
fn missing_value_exits_2_with_usage() {
    assert_usage_exit(&["--scale"], "missing value for --scale");
}

#[test]
fn unknown_app_exits_2_with_usage() {
    assert_usage_exit(&["--apps", "NotAnApp"], "unknown app NotAnApp");
}

#[test]
fn help_exits_0_and_prints_usage_to_stdout() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"));
    // The observability and logging flags are part of the documented
    // surface.
    for flag in [
        "--trace-out",
        "--metrics-out",
        "--profile-refs",
        "--quiet",
        "--engine",
        "--stepper",
        "--protocol",
        "--locality",
        "--reuse-out",
        "MEMPAR_LOG",
    ] {
        assert!(stdout.contains(flag), "usage missing {flag}:\n{stdout}");
    }
    // The stepper menu lists the two steppers, strict and event.
    assert!(
        stdout.contains("event (default, fast) | strict (reference)"),
        "usage must list --stepper strict|event:\n{stdout}"
    );
    // The protocol menu is part of the documented surface too.
    for name in ["directory", "mesi", "moesi", "dragon"] {
        assert!(
            stdout.contains(name),
            "usage missing protocol {name}:\n{stdout}"
        );
    }
}

#[test]
fn unknown_engine_exits_2_with_usage() {
    assert_usage_exit(&["--engine", "jit"], "unknown engine 'jit'");
}

#[test]
fn unknown_stepper_exits_2_with_usage() {
    assert_usage_exit(&["--stepper", "turbo"], "unknown stepper 'turbo'");
}

#[test]
fn unknown_protocol_exits_2_with_usage() {
    assert_usage_exit(&["--protocol", "mosi"], "unknown protocol 'mosi'");
    assert_usage_exit(&["--protocol"], "missing value for --protocol");
}

#[test]
fn unknown_locality_exits_2_with_usage() {
    assert_usage_exit(
        &["--locality", "psychic"],
        "unknown locality mode 'psychic'",
    );
    assert_usage_exit(&["--locality"], "missing value for --locality");
}

#[test]
fn reuse_out_without_measured_exits_2_with_usage() {
    assert_usage_exit(
        &["--reuse-out", "r.json"],
        "--reuse-out requires --locality measured",
    );
    assert_usage_exit(
        &["--reuse-out", "r.json", "--locality", "analytic"],
        "--reuse-out requires --locality measured",
    );
}

#[test]
fn skip_stepper_and_shards_flag_exit_2_with_usage() {
    assert_usage_exit(
        &["--stepper", "skip"],
        "unknown stepper 'skip' (expected strict or event)",
    );
    assert_usage_exit(&["--shards", "2"], "unknown flag --shards");
}

#[test]
fn stepper_choice_never_changes_results() {
    let reference = run(&["--scale", "0.02", "-q"]);
    assert_eq!(reference.status.code(), Some(0));
    let reference = String::from_utf8_lossy(&reference.stdout).into_owned();
    for args in [
        &["--scale", "0.02", "-q", "--stepper", "strict"][..],
        &["--scale", "0.02", "-q", "--stepper", "event"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            reference,
            "args {args:?}: table2 output must be byte-identical across \
             steppers"
        );
    }
}

#[test]
fn protocol_choice_never_changes_results() {
    // The catalog is purely functional output, so it must be
    // byte-identical under every coherence machine (protocols move
    // cycle counts only; those are pinned by the per-protocol golden
    // snapshots, not this contract).
    let reference = run(&["--scale", "0.02", "-q"]);
    assert_eq!(reference.status.code(), Some(0));
    let reference = String::from_utf8_lossy(&reference.stdout).into_owned();
    for protocol in ["directory", "mesi", "moesi", "dragon"] {
        let out = run(&["--scale", "0.02", "-q", "--protocol", protocol]);
        assert_eq!(out.status.code(), Some(0), "--protocol {protocol}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            reference,
            "--protocol {protocol}: table2 output must be byte-identical \
             across coherence protocols"
        );
    }
}

#[test]
fn latbench_accepts_every_protocol() {
    // Latbench internally asserts that clustering preserves functional
    // results, so a clean exit under each machine doubles as a
    // conformance check on the full base-vs-clustered pipeline.
    for protocol in ["directory", "mesi", "moesi", "dragon"] {
        let out = Command::new(env!("CARGO_BIN_EXE_latbench"))
            .env_remove("MEMPAR_LOG")
            .args(["--scale", "0.02", "-q", "--protocol", protocol])
            .output()
            .expect("spawn latbench");
        assert_eq!(
            out.status.code(),
            Some(0),
            "latbench --protocol {protocol}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("Latbench:"),
            "latbench --protocol {protocol} produced no report"
        );
    }
}

#[test]
fn engine_choice_never_changes_results() {
    let vm = run(&["--scale", "0.02", "-q", "--engine", "bytecode"]);
    let tw = run(&["--scale", "0.02", "-q", "--engine", "interp"]);
    assert_eq!(vm.status.code(), Some(0));
    assert_eq!(tw.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&vm.stdout),
        String::from_utf8_lossy(&tw.stdout),
        "table2 output must be byte-identical under both engines"
    );
}

#[test]
fn tune_shares_the_cli_contract() {
    // The tuner harness rides the same parse_args surface: bad flags
    // exit 2 with usage, and a bad --mode is its own exit-2 path.
    let bad = Command::new(env!("CARGO_BIN_EXE_tune"))
        .env_remove("MEMPAR_LOG")
        .args(["--bogus"])
        .output()
        .expect("spawn tune");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("usage:"));

    let bad_mode = Command::new(env!("CARGO_BIN_EXE_tune"))
        .env_remove("MEMPAR_LOG")
        .args(["--mode", "sideways"])
        .output()
        .expect("spawn tune");
    assert_eq!(bad_mode.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&bad_mode.stderr).contains("unknown --mode sideways"),
        "stderr: {}",
        String::from_utf8_lossy(&bad_mode.stderr)
    );
}

#[test]
fn tune_beats_base_and_exports_its_trace() {
    let dir = std::env::temp_dir().join(format!("mempar-tune-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("tune-metrics.json");
    let trace = dir.join("tune-trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tune"))
        .env_remove("MEMPAR_LOG")
        .args([
            "--scale",
            "0.05",
            "--apps",
            "latbench",
            "-q",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn tune");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("tuned/default x"),
        "delta table missing: {stdout}"
    );
    assert!(
        stdout.contains("beat the default driver on"),
        "headline missing: {stdout}"
    );
    // The exported search trace is valid JSON with the tune.* counters
    // and per-candidate Perfetto slices.
    let metrics_json = std::fs::read_to_string(&metrics).expect("metrics written");
    mempar_obs::validate_json(&metrics_json).expect("metrics JSON well-formed");
    assert!(metrics_json.contains("tune.scored"));
    assert!(metrics_json.contains("tune.cycles.tuned"));
    let trace_json = std::fs::read_to_string(&trace).expect("trace written");
    mempar_obs::validate_json(&trace_json).expect("trace JSON well-formed");
    assert!(trace_json.contains("\"ph\":\"X\""));
    assert!(trace_json.contains("memo_hit"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tune_memo_counters_are_per_workload() {
    // One tuner (and one score memo) serves every app, but each
    // workload's memo counters must count only its own score calls:
    // every scored candidate plus the base and default-driver programs.
    let dir = std::env::temp_dir().join(format!("mempar-tune-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("tune-metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tune"))
        .env_remove("MEMPAR_LOG")
        .args("--scale 0.02 --apps latbench,mst --threads 1 -q --metrics-out".split(' '))
        .arg(&metrics)
        .output()
        .expect("spawn tune");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    let counter = |run: &str, name: &str| -> u64 {
        let key = format!("\"{name}\": {{\"type\": \"counter\", \"value\": ");
        let at = run
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {run}"))
            + key.len();
        let digits: String = run[at..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("counter value")
    };
    let runs: Vec<&str> = json.split("{\"name\": ").skip(1).collect();
    assert_eq!(runs.len(), 2, "one snapshot per app: {json}");
    for run in runs {
        assert_eq!(
            counter(run, "tune.memo.hits") + counter(run, "tune.memo.misses"),
            counter(run, "tune.scored") + 2,
            "memo lookups must be this workload's own: {run}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pair_binaries_honour_observation_flags() {
    let dir = std::env::temp_dir().join(format!("mempar-fig4-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .env_remove("MEMPAR_LOG")
        .args(["--apps", "LU", "--scale", "0.02", "-q", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("spawn fig4");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).expect("fig4 must write the requested trace");
    mempar_obs::validate_json(&json).expect("trace JSON well-formed");
    assert!(json.contains("lu/base") && json.contains("lu/clustered"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unobserved_binaries_reject_observation_flags() {
    for flags in [
        &["--trace-out", "x"][..],
        &["--metrics-out", "x"][..],
        &["--profile-refs"][..],
    ] {
        for bin in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_ablation")] {
            let out = Command::new(bin)
                .env_remove("MEMPAR_LOG")
                .args(flags)
                .output()
                .expect("spawn harness binary");
            assert_eq!(out.status.code(), Some(2), "{bin} {flags:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("runs no traced pair") && stderr.contains("usage:"),
                "{bin} {flags:?}: {stderr}"
            );
        }
    }
}

#[test]
fn invalid_mempar_log_exits_2_with_usage() {
    let out = run_env(&[], &[("MEMPAR_LOG", "verbose")]);
    assert_eq!(out.status.code(), Some(2), "bad MEMPAR_LOG must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("MEMPAR_LOG expects quiet|info|debug"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr missing usage: {stderr}");
}

#[test]
fn progress_lines_appear_by_default() {
    let out = run(&["--scale", "0.02"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[table2]"),
        "default run must print progress: {stderr}"
    );
}

#[test]
fn quiet_flag_suppresses_progress() {
    for args in [
        &["--scale", "0.02", "--quiet"][..],
        &["--scale", "0.02", "-q"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.is_empty(),
            "args {args:?}: quiet run must not write stderr: {stderr}"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("Table 2"),
            "quiet only silences stderr, not results"
        );
    }
}

#[test]
fn mempar_log_env_sets_level_and_flag_wins() {
    let out = run_env(&["--scale", "0.02"], &[("MEMPAR_LOG", "QUIET")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "MEMPAR_LOG=QUIET (case-insensitive) must silence progress: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --quiet wins over MEMPAR_LOG=debug (flags are parsed after env).
    let out = run_env(&["--scale", "0.02", "-q"], &[("MEMPAR_LOG", "debug")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "-q must override MEMPAR_LOG=debug: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binaries_reject_flags_they_ignore() {
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let ablation = env!("CARGO_BIN_EXE_ablation");
    let benchsim = env!("CARGO_BIN_EXE_benchsim");
    let tune = env!("CARGO_BIN_EXE_tune");
    let apps = ["--apps", "fft"];
    let reuse = ["--locality", "measured", "--reuse-out", "r.json"];
    // `--mode` is read only by fig3 and tune, `--procs` only by tune,
    // `--apps` by every binary that selects applications, and the first
    // unread flag is the one named.
    for (bin, args, flag) in [
        (fig4, &["--mode", "up", "--procs", "2"][..], "--mode"),
        (fig4, &["--procs", "2"], "--procs"),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--mode", "bogus", "--procs", "4"],
            "--mode",
        ),
        (env!("CARGO_BIN_EXE_table3"), &["--procs", "8"], "--procs"),
        (env!("CARGO_BIN_EXE_latbench"), &apps, "--apps"),
        (table1, &apps, "--apps"),
        (ablation, &apps, "--apps"),
        (benchsim, &apps, "--apps"),
        // Driver options reach only the binaries that simulate under
        // them; benchsim runs its own fixed legs.
        (
            table1,
            &["--protocol", "dragon", "--stepper", "strict"],
            "--protocol",
        ),
        (table1, &["--stepper", "strict"], "--stepper"),
        (table1, &["--engine", "interp"], "--engine"),
        (table1, &["--locality", "measured"], "--locality"),
        (
            benchsim,
            &["--protocol", "mesi", "--engine", "interp"],
            "--protocol",
        ),
        (benchsim, &["--engine", "interp"], "--engine"),
        // Only the pair binaries write a measured-locality report or
        // print the reference profile.
        (tune, &reuse, "--reuse-out"),
        (ablation, &reuse, "--locality"),
        (ablation, &reuse[2..], "--reuse-out"),
        (tune, &["--profile-refs"], "--profile-refs"),
    ] {
        let out = Command::new(bin)
            .env_remove("MEMPAR_LOG")
            .args(args)
            .output()
            .expect("spawn harness binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} is not supported")) && stderr.contains("usage:"),
            "{bin} {args:?}: {stderr}"
        );
    }
}

#[test]
fn fig4_runs_every_listed_app() {
    // Listing all seven applications is a selection like any other, not
    // the default (Ocean and LU).
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .env_remove("MEMPAR_LOG")
        .args(["--apps", "Em3d,Erlebacher,FFT,LU,Mp3d,MST,Ocean"])
        .args(["--scale", "0.01", "-q"])
        .output()
        .expect("spawn fig4");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for app in ["Em3d", "Erlebacher", "FFT", "LU", "Mp3d", "MST", "Ocean"] {
        assert!(
            stdout.contains(&format!("{app}: mean read MSHR occupancy")),
            "fig4 skipped {app}:\n{stdout}"
        );
    }
}
