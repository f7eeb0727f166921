//! Validates a Chrome Trace Event Format file produced by
//! `octopocs batch --trace-chrome`: well-formed JSON, known event names,
//! balanced `B`/`E` pairs per worker lane, non-negative timestamps and
//! durations.
//!
//! Usage: `trace_check <trace.json>`. Exits 0 and prints a summary on
//! success, exits 1 with the first problem found otherwise.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace_check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match octo_trace::chrome::validate(&text) {
        Ok(stats) => {
            println!(
                "trace ok: {} events ({} B/E pairs, {} instants) across {} worker lanes",
                stats.events, stats.pairs, stats.instants, stats.lanes
            );
            if stats.pairs == 0 {
                eprintln!("trace_check: no duration pairs — expected at least the phase spans");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("trace_check: {path}: {err}");
            ExitCode::FAILURE
        }
    }
}
