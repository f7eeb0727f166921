//! The flag surface of `octopocs` and `octopocsd`, pinned.
//!
//! Every entry context (single-pair mode, each subcommand, the daemon)
//! is fed every flag any of them accepts, followed by `--zz-end`, which
//! nothing accepts. The exit code and first stderr line of each run say
//! whether the context took the flag (the error names `--zz-end`) or
//! refused it (the error names the flag). Hand-picked cases add numeric
//! validation, trailing flags with no value, the mutually exclusive
//! pairs, missing required inputs and the full `--help` text of both
//! binaries. Every case ends in a usage error (exit 3) before any
//! verification, daemon or connection starts.
//!
//! The transcript must equal `tests/golden/cli_flags.txt`. After an
//! intended surface change, regenerate it with
//! `UPDATE_GOLDEN=1 cargo test --test cli_contract`.

mod common;

use std::fmt::Write as _;
use std::process::Command;

const GOLDEN_PATH: &str = "tests/golden/cli_flags.txt";

/// `(binary, leading arguments)` of each entry context.
const CONTEXTS: &[(&str, &[&str])] = &[
    ("octopocs", &[]),
    ("octopocs", &["lint"]),
    ("octopocs", &["clone"]),
    ("octopocs", &["scan"]),
    ("octopocs", &["batch"]),
    ("octopocs", &["cache", "stats"]),
    ("octopocs", &["submit"]),
    ("octopocs", &["status"]),
    ("octopocs", &["watch"]),
    ("octopocs", &["results"]),
    ("octopocs", &["drain"]),
    ("octopocs", &["top"]),
    ("octopocsd", &[]),
];

/// The union of every context's flags, each with a sample value when it
/// takes one. No value names an existing file except the fault plan,
/// which is parsed while the flags are read.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--s", Some("s.mir")),
    ("--t", Some("t.mir")),
    ("--poc", Some("poc.bin")),
    ("--shared", Some("f1,f2")),
    ("--out", Some("out.bin")),
    ("--minimize", None),
    ("--theta", Some("7")),
    ("--accelerate-loops", None),
    ("--static-cfg", None),
    ("--context-free", None),
    ("--prescreen", None),
    ("--json", None),
    ("--format", Some("json")),
    ("--canonical", None),
    ("--threshold", Some("0.5")),
    ("--top-k", Some("3")),
    ("--min-insts", Some("4")),
    ("--corpus", None),
    ("--target", Some("t.mir")),
    ("--workers", Some("2")),
    ("--deadline-secs", Some("1.5")),
    ("--cache-dir", Some("cache")),
    ("--verdicts-json", None),
    ("--candidates-json", Some("c.json")),
    ("--events", None),
    ("--metrics-json", Some("m.json")),
    ("--metrics-prom", Some("m.prom")),
    ("--jobs", Some("jobs.txt")),
    ("--trace-chrome", Some("t.json")),
    ("--trace-jsonl", Some("t.jsonl")),
    ("--post-mortem", None),
    ("--fault-plan", Some("tests/golden/fault_plan.json")),
    ("--retry", Some("2")),
    ("--retry-backoff-ms", Some("10")),
    ("--watchdog-quiet-secs", Some("5")),
    ("--keep-generations", Some("2")),
    ("--max-age-secs", Some("60")),
    ("--scan", None),
    ("--priority", Some("bulk")),
    ("--socket", Some("d.sock")),
    ("--tcp", Some("127.0.0.1:1")),
    ("--id", Some("1")),
    ("--wait", None),
    ("--shutdown", None),
    ("--http", Some("127.0.0.1:1")),
    ("--windows", Some("3")),
    ("--journal", Some("d.journal")),
    ("--capacity", Some("8")),
];

/// Each numeric flag in one context that accepts it.
const NUMERIC: &[(&str, &[&str], &str)] = &[
    ("octopocs", &[], "--theta"),
    ("octopocs", &["clone"], "--threshold"),
    ("octopocs", &["clone"], "--top-k"),
    ("octopocs", &["clone"], "--min-insts"),
    ("octopocs", &["scan"], "--workers"),
    ("octopocs", &["scan"], "--deadline-secs"),
    ("octopocs", &["batch"], "--workers"),
    ("octopocs", &["batch"], "--deadline-secs"),
    ("octopocs", &["batch"], "--theta"),
    ("octopocs", &["batch"], "--retry"),
    ("octopocs", &["batch"], "--retry-backoff-ms"),
    ("octopocs", &["batch"], "--watchdog-quiet-secs"),
    ("octopocs", &["cache", "gc"], "--keep-generations"),
    ("octopocs", &["cache", "gc"], "--max-age-secs"),
    ("octopocs", &["submit"], "--top-k"),
    ("octopocs", &["status"], "--id"),
    ("octopocs", &["watch"], "--id"),
    ("octopocs", &["top"], "--windows"),
    ("octopocsd", &[], "--workers"),
    ("octopocsd", &[], "--capacity"),
    ("octopocsd", &[], "--deadline-secs"),
    ("octopocsd", &[], "--theta"),
    ("octopocsd", &[], "--retry"),
    ("octopocsd", &[], "--retry-backoff-ms"),
    ("octopocsd", &[], "--watchdog-quiet-secs"),
];

/// Whole command lines: exclusions and missing required inputs.
const LINES: &[(&str, &[&str])] = &[
    ("octopocs", &[]),
    ("octopocs", &["--s", "s.mir", "--t", "t.mir"]),
    (
        "octopocs",
        &["--s", "s.mir", "--t", "t.mir", "--poc", "p.bin"],
    ),
    (
        "octopocs",
        &[
            "--s", "s.mir", "--t", "t.mir", "--poc", "p.bin", "--shared", ", ,",
        ],
    ),
    ("octopocs", &["lint"]),
    ("octopocs", &["lint", "--format", "yaml"]),
    ("octopocs", &["lint", "a.mir", "--format"]),
    ("octopocs", &["lint", "a.mir", "b.mir"]),
    ("octopocs", &["clone"]),
    ("octopocs", &["clone", "--s", "s.mir"]),
    ("octopocs", &["clone", "--threshold", "1.5"]),
    ("octopocs", &["scan"]),
    ("octopocs", &["scan", "--corpus", "--s", "s.mir"]),
    ("octopocs", &["scan", "--s", "s.mir"]),
    (
        "octopocs",
        &["scan", "--corpus", "--json", "--verdicts-json"],
    ),
    ("octopocs", &["batch"]),
    ("octopocs", &["batch", "--corpus", "--jobs", "jobs.txt"]),
    (
        "octopocs",
        &["batch", "--corpus", "--json", "--verdicts-json"],
    ),
    (
        "octopocs",
        &["batch", "--corpus", "--retry-backoff-ms", "0"],
    ),
    ("octopocs", &["cache"]),
    ("octopocs", &["cache", "frob"]),
    ("octopocs", &["cache", "--help"]),
    ("octopocs", &["cache", "-h"]),
    ("octopocs", &["cache", "stats"]),
    (
        "octopocs",
        &[
            "cache",
            "verify",
            "--cache-dir",
            "c",
            "--keep-generations",
            "1",
        ],
    ),
    ("octopocs", &["submit"]),
    ("octopocs", &["submit", "--corpus", "--scan"]),
    ("octopocs", &["submit", "--scan", "--s", "s.mir"]),
    ("octopocs", &["submit", "--s", "s.mir", "--t", "t.mir"]),
    ("octopocs", &["submit", "--priority", "urgent"]),
    (
        "octopocs",
        &[
            "submit",
            "--corpus",
            "--socket",
            "d.sock",
            "--tcp",
            "127.0.0.1:1",
        ],
    ),
    (
        "octopocs",
        &["status", "--socket", "d.sock", "--tcp", "127.0.0.1:1"],
    ),
    ("octopocs", &["watch"]),
    (
        "octopocs",
        &[
            "watch",
            "--id",
            "1",
            "--socket",
            "d.sock",
            "--tcp",
            "127.0.0.1:1",
        ],
    ),
    (
        "octopocs",
        &["results", "--socket", "d.sock", "--tcp", "127.0.0.1:1"],
    ),
    (
        "octopocs",
        &["drain", "--socket", "d.sock", "--tcp", "127.0.0.1:1"],
    ),
    ("octopocs", &["top"]),
    ("octopocs", &["top", "--json"]),
];

/// Runs one command line and returns its exit code and stderr.
fn run(binary: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(common::bin(binary))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn");
    let code = out.status.code().expect("exited, not signalled");
    assert_eq!(
        code,
        3,
        "`{binary} {}` must end in a usage error",
        args.join(" ")
    );
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Appends one `exit<TAB>command<TAB>first stderr line` row.
fn row(out: &mut String, binary: &str, args: &[&str]) {
    let (code, stderr) = run(binary, args);
    let first = stderr.lines().next().unwrap_or("");
    let mut command = binary.to_string();
    for arg in args {
        command.push(' ');
        command.push_str(arg);
    }
    writeln!(out, "{code}\t{command}\t{first}").unwrap();
}

fn transcript() -> String {
    let mut out = String::from(
        "# octopocs/octopocsd flag surface: exit code, command line, first stderr line.\n\
         # Regenerate with UPDATE_GOLDEN=1 cargo test --test cli_contract.\n",
    );
    out.push_str("## every flag in every context, then an unknown flag\n");
    for (binary, lead) in CONTEXTS {
        for (flag, value) in FLAGS {
            let mut args = lead.to_vec();
            args.push(flag);
            args.extend(value);
            args.push("--zz-end");
            row(&mut out, binary, &args);
        }
    }
    out.push_str("## every value-taking flag in every context, with its value missing\n");
    for (binary, lead) in CONTEXTS {
        for (flag, _) in FLAGS.iter().filter(|(_, value)| value.is_some()) {
            let mut args = lead.to_vec();
            args.push(flag);
            row(&mut out, binary, &args);
        }
    }
    out.push_str("## numeric validation\n");
    for (binary, lead, flag) in NUMERIC {
        for value in ["0", "-1", "NaN", "abc"] {
            let mut args = lead.to_vec();
            args.extend([*flag, value, "--zz-end"]);
            row(&mut out, binary, &args);
        }
    }
    out.push_str("## exclusions and missing required inputs\n");
    for (binary, args) in LINES {
        row(&mut out, binary, args);
    }
    for binary in ["octopocs", "octopocsd"] {
        for help in ["--help", "-h"] {
            let (code, stderr) = run(binary, &[help]);
            writeln!(out, "## full stderr of `{binary} {help}` (exit {code})").unwrap();
            out.push_str(&stderr);
        }
    }
    out
}

#[test]
fn cache_help_prints_the_usage_alone() {
    let (_, usage) = run("octopocs", &["--help"]);
    for help in ["--help", "-h"] {
        assert_eq!(run("octopocs", &["cache", help]).1, usage, "cache {help}");
    }
}

#[test]
fn flag_surface_matches_the_golden() {
    let got = transcript();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN_PATH}:{} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN_PATH}: line count differs"
    );
    assert_eq!(got, want);
}
