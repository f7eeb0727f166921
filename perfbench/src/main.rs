//! `perfbench --workload <table2|scan> --seed <n> --seconds <s>
//! --trace <0|1> --daemon <octopocsd>`
//!
//! Prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! verdict matched its known answer, 1 when one did not, 2 on a usage or
//! environment error (without a result line).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::stats::result_line;
use perfbench::workloads::{run, Args};

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let seed: u64 = seed.ok_or("--seed is required")?;
    let tmp =
        PathBuf::from(".perfbench_tmp").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
        tmp,
        out: PathBuf::from(".perfbench_out"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.tmp);
    // Fails, as it should, while another run still uses the directory.
    if let Some(parent) = args.tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .tally
                .fail(format!("metric {} is not a finite number", m.name));
        }
    }
    for line in &outcome.human {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("  {:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let t = &outcome.tally;
    println!(
        "seed {}: {} jobs attempted, {} failed (failed_share {})",
        args.seed,
        t.attempted,
        t.failed,
        t.failed_share()
    );
    for problem in &t.problems {
        println!("FAILED {problem}");
        eprintln!("perfbench: {problem}");
    }
    let correct = t.correct();
    println!(
        "{}",
        result_line(correct, t.attempted.max(1), t.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
