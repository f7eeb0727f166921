//! `octopocs` — command-line verification of propagated vulnerable code.
//!
//! ```text
//! octopocs --s S.mir --t T.mir --poc poc.bin --shared f1,f2 [--out poc_prime.bin]
//!          [--minimize] [--theta N] [--accelerate-loops] [--static-cfg]
//!          [--context-free] [--prescreen] [--json]
//! octopocs lint program.mir [--format human|json] [--canonical]
//! octopocs clone --s S.mir --t T.mir [--threshold X] [--top-k N]
//!          [--min-insts N] [--json]
//! octopocs scan (--corpus | --s S.mir --poc poc.bin --target T.mir...)
//!          [--threshold X] [--top-k N] [--workers N] [--deadline-secs S]
//!          [--json | --verdicts-json] [--candidates-json PATH] [--events]
//!          [--metrics-json PATH] [--metrics-prom PATH]
//! octopocs batch (--corpus | --jobs FILE) [--workers N] [--deadline-secs S]
//!          [--json | --verdicts-json] [--events] [--metrics-json PATH]
//!          [--metrics-prom PATH] [--trace-chrome PATH] [--trace-jsonl PATH]
//!          [--post-mortem] [--theta N]
//!          [--accelerate-loops] [--static-cfg] [--context-free] [--prescreen]
//!          [--fault-plan FILE] [--retry N] [--retry-backoff-ms MS]
//!          [--watchdog-quiet-secs S]
//! octopocs submit (--corpus | --s S.mir --t T.mir --poc poc.bin --shared f1,f2
//!          | --scan --s S.mir --poc poc.bin --target T.mir...)
//!          [--priority interactive|bulk] [--socket PATH | --tcp ADDR]
//! octopocs status [--id N] [--metrics-json PATH] [--socket PATH | --tcp ADDR]
//! octopocs watch --id N [--socket PATH | --tcp ADDR]
//! octopocs results [--wait] [--verdicts-json] [--socket PATH | --tcp ADDR]
//! octopocs drain [--shutdown] [--socket PATH | --tcp ADDR]
//! octopocs top --http ADDR [--windows N] [--json]
//! ```
//!
//! `S.mir`/`T.mir` are MicroIR assembly files (the dialect of
//! `octo_ir::parse`); `poc.bin` is the original PoC; `--shared` lists the
//! cloned function names (`ℓ`) as a clone detector reports them. Exit code
//! 0 = triggered (a working `poc'` exists; written to `--out` when given),
//! 1 = verified not triggerable, 2 = verification failure, 3 = usage or
//! input error.
//!
//! The `lint` subcommand runs the `octo-lint` static analyses over one
//! MicroIR program and prints the diagnostics (severity, function/block
//! location, rule id). Exit code 0 = clean or warnings only, 1 = at least
//! one error-severity diagnostic, 3 = unreadable or unparsable input.
//! `--canonical` instead prints the program's canonical normal form
//! (entry-first DFS block order, dense register/label renumbering) —
//! renamed/reordered clones print identically, so the output is directly
//! diffable.
//!
//! The `clone` subcommand retrieves cloned-function candidates between
//! two programs using `octo-clone` static fingerprints (no verification;
//! exit 0 = candidates found, 1 = none). The `scan` subcommand goes end
//! to end: it discovers the shared set ℓ per target and verifies every
//! discovered `(S, poc, Tᵢ, ℓᵢ)` job on the batch scheduler
//! (`--candidates-json` writes the stable retrieval document CI diffs
//! against `tests/golden/clone_candidates.json`). See
//! `docs/clone-scanning.md`.
//!
//! The `batch` subcommand verifies a whole job set on the work-stealing
//! scheduler with the shared artifact cache (see `octopocs::batch`).
//! `--corpus` runs the 15 Table II pairs; `--jobs FILE` reads one job per
//! line (`name S.mir T.mir poc.bin f1,f2`; `#` starts a comment).
//! `--json` emits the full machine-readable report, `--verdicts-json` the
//! stable verdicts-only document that CI diffs against its golden file,
//! and `--events` streams progress events to stderr. `--metrics-json` and
//! `--metrics-prom` write the run's metrics registry (counters, gauges,
//! phase histograms; see `docs/observability.md`) to a file as JSON or
//! Prometheus text exposition. `--trace-chrome` records the run in a
//! flight recorder and writes a Chrome Trace Event Format file (load it
//! in `chrome://tracing` or Perfetto; one lane per worker);
//! `--trace-jsonl` writes the same events as JSON lines. `--post-mortem`
//! prints, for every not-triggerable or deadline verdict, why the
//! directed engine gave up (deciding event, `ep` entry count at death,
//! dying state's constraints, flight-record tail).
//!
//! Robustness knobs (see `docs/robustness.md`): `--fault-plan FILE`
//! loads a deterministic fault-injection plan (JSON; seed + per-site
//! rules) and replays it byte-for-byte; `--retry N` attempts each job up
//! to N times on transient failures (deadline, hung, panic, injected
//! fault), quarantining jobs that still fail; `--retry-backoff-ms MS`
//! sets the base backoff between attempts; `--watchdog-quiet-secs S`
//! spawns a watchdog that escalates a job whose heartbeat stays silent
//! for S seconds. Exit code 0 = the batch ran (whatever the verdicts),
//! 3 = usage or input error, 130 = drained by SIGINT/SIGTERM (the first
//! signal winds every in-flight job down cooperatively and the partial
//! report — metrics files included — is still written; a second signal
//! force-exits).
//!
//! The `submit`, `status`, `watch`, `results`, and `drain` subcommands
//! are clients of a running `octopocsd` daemon (see `docs/service.md`):
//! `submit` admits jobs — the 15-pair corpus, one explicit pair, or a
//! client-side clone-scan expansion (`--scan`, same knobs as `octopocs
//! scan`) — and prints one `accepted <id> <name>` line per job (exit 1
//! if any submission was rejected by backpressure); `status` shows the
//! queue (or one job with `--id`, or writes the daemon's metrics
//! registry with `--metrics-json`); `watch` streams one job's progress
//! events as JSON lines until its verdict; `results` prints finished
//! verdicts (`--wait` blocks until the queue empties, `--verdicts-json`
//! emits the same stable document as `octopocs batch --verdicts-json`);
//! `drain` asks the daemon to finish queued work and exit
//! (`--shutdown` cancels in-flight jobs instead, leaving them for
//! journal replay).

use std::process::ExitCode;

use octo_ir::parse::parse_program;
use octo_poc::PocFile;
use octo_serve::{Client, Endpoint, Priority as ServePriority, Request, Response};
use octopocs::batch::{run_batch, BatchJob, BatchOptions};
use octopocs::{verify, PipelineConfig, SoftwarePairInput, Verdict};

struct Args {
    s_path: String,
    t_path: String,
    poc_path: String,
    shared: Vec<String>,
    out: Option<String>,
    minimize: bool,
    theta: Option<u32>,
    accelerate_loops: bool,
    static_cfg: bool,
    context_free: bool,
    prescreen: bool,
    json: bool,
}

fn usage() -> String {
    "usage: octopocs --s S.mir --t T.mir --poc poc.bin --shared f1,f2 \
     [--out poc_prime.bin] [--minimize] [--theta N] [--accelerate-loops] \
     [--static-cfg] [--context-free] [--prescreen] [--json]\n       \
     octopocs lint program.mir [--format human|json] [--canonical]\n       \
     octopocs clone --s S.mir --t T.mir [--threshold X] [--top-k N] \
     [--min-insts N] [--json]\n       \
     octopocs scan (--corpus | --s S.mir --poc poc.bin --target T.mir...) \
     [--threshold X] [--top-k N] [--workers N] [--deadline-secs S] \
     [--cache-dir DIR] [--json | --verdicts-json] [--candidates-json PATH] \
     [--events] [--metrics-json PATH] [--metrics-prom PATH]\n       \
     octopocs batch (--corpus | --jobs FILE) [--workers N] \
     [--deadline-secs S] [--cache-dir DIR] [--json | --verdicts-json] \
     [--events] [--metrics-json PATH] [--metrics-prom PATH] \
     [--trace-chrome PATH] [--trace-jsonl PATH] [--post-mortem] [--theta N] \
     [--accelerate-loops] [--static-cfg] [--context-free] [--prescreen] \
     [--fault-plan FILE] [--retry N] [--retry-backoff-ms MS] \
     [--watchdog-quiet-secs S]\n       \
     octopocs cache (stats | verify | gc) --cache-dir DIR [--json] \
     [--keep-generations N] [--max-age-secs S]\n       \
     octopocs submit (--corpus | --s S.mir --t T.mir --poc poc.bin --shared f1,f2 | \
     --scan --s S.mir --poc poc.bin --target T.mir...) \
     [--priority interactive|bulk] [--socket PATH | --tcp ADDR]\n       \
     octopocs status [--id N] [--metrics-json PATH] [--socket PATH | --tcp ADDR]\n       \
     octopocs watch --id N [--socket PATH | --tcp ADDR]\n       \
     octopocs results [--wait] [--verdicts-json] [--socket PATH | --tcp ADDR]\n       \
     octopocs drain [--shutdown] [--socket PATH | --tcp ADDR]\n       \
     octopocs top --http ADDR [--windows N] [--json]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        s_path: String::new(),
        t_path: String::new(),
        poc_path: String::new(),
        shared: Vec::new(),
        out: None,
        minimize: false,
        theta: None,
        accelerate_loops: false,
        static_cfg: false,
        context_free: false,
        prescreen: false,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--s" => args.s_path = value("--s")?,
            "--t" => args.t_path = value("--t")?,
            "--poc" => args.poc_path = value("--poc")?,
            "--shared" => {
                args.shared = value("--shared")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--out" => args.out = Some(value("--out")?),
            "--theta" => {
                args.theta = Some(
                    value("--theta")?
                        .parse()
                        .map_err(|e| format!("bad --theta: {e}"))?,
                )
            }
            "--minimize" => args.minimize = true,
            "--accelerate-loops" => args.accelerate_loops = true,
            "--static-cfg" => args.static_cfg = true,
            "--context-free" => args.context_free = true,
            "--prescreen" => args.prescreen = true,
            "--json" => args.json = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.s_path.is_empty() || args.t_path.is_empty() || args.poc_path.is_empty() {
        return Err(format!("--s, --t and --poc are required\n{}", usage()));
    }
    if args.shared.is_empty() {
        return Err(format!(
            "--shared must list at least one function\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn load_program(path: &str) -> Result<octo_ir::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let p = parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    octo_ir::validate::validate(&p).map_err(|es| {
        format!(
            "{path}: {}",
            es.first().map(ToString::to_string).unwrap_or_default()
        )
    })?;
    Ok(p)
}

/// The `octopocs lint` subcommand: static analysis of one program.
fn lint_main(argv: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut canonical = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--canonical" => canonical = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                other => {
                    eprintln!(
                        "bad --format `{}` (expected human|json)",
                        other.unwrap_or("")
                    );
                    return ExitCode::from(3);
                }
            },
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return ExitCode::from(3);
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => {
                eprintln!("unknown lint argument `{other}`\n{}", usage());
                return ExitCode::from(3);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("lint: a program file is required\n{}", usage());
        return ExitCode::from(3);
    };
    // Parse only — structural validation is the lint's own VAL001 rule,
    // so invalid programs are reported, not rejected.
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(3);
        }
    };
    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(3);
        }
    };
    if canonical {
        // Canonicalization mode: print the normal form (entry-first DFS
        // block order, dense register/label renumbering) instead of the
        // diagnostics. `parse(print_canonical(p))` is a fixed point, so
        // the output is diffable across renamed/reordered variants.
        print!("{}", octo_ir::printer::print_program_canonical(&program));
        return ExitCode::SUCCESS;
    }
    let report = octo_lint::lint_program(&program);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.error_count() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses the retrieval knobs shared by `clone` and `scan`.
fn parse_clone_params(
    flag: &str,
    value: &mut dyn FnMut(&str) -> Result<String, String>,
    params: &mut octo_clone::CloneParams,
) -> Result<bool, String> {
    match flag {
        "--threshold" => {
            params.threshold = value("--threshold")?
                .parse()
                .map_err(|e| format!("bad --threshold: {e}"))?;
            if !(0.0..=1.0).contains(&params.threshold) {
                return Err("--threshold must be in [0, 1]".to_string());
            }
        }
        "--top-k" => {
            params.top_k = value("--top-k")?
                .parse()
                .map_err(|e| format!("bad --top-k: {e}"))?;
            if params.top_k == 0 {
                return Err("--top-k must be at least 1".to_string());
            }
        }
        "--min-insts" => {
            params.min_insts = value("--min-insts")?
                .parse()
                .map_err(|e| format!("bad --min-insts: {e}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// The `octopocs clone` subcommand: retrieve clone candidates between
/// two programs (no verification). Exit 0 = at least one candidate,
/// 1 = none, 3 = usage or input error.
fn clone_main(argv: &[String]) -> ExitCode {
    let mut s_path = String::new();
    let mut t_path = String::new();
    let mut params = octo_clone::CloneParams::default();
    let mut json = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--s" => s_path = value("--s")?,
                "--t" => t_path = value("--t")?,
                "--json" => json = true,
                "--help" | "-h" => return Err(String::new()),
                other => {
                    if !parse_clone_params(other, &mut value, &mut params)? {
                        return Err(format!("unknown clone flag `{other}`"));
                    }
                }
            }
            Ok(())
        })();
        if let Err(msg) = result {
            if msg.is_empty() {
                eprintln!("{}", usage());
            } else {
                eprintln!("{msg}\n{}", usage());
            }
            return ExitCode::from(3);
        }
    }
    if s_path.is_empty() || t_path.is_empty() {
        eprintln!("clone: --s and --t are required\n{}", usage());
        return ExitCode::from(3);
    }
    let (s, t) = match (load_program(&s_path), load_program(&t_path)) {
        (Ok(s), Ok(t)) => (s, t),
        (s, t) => {
            for msg in [s.err(), t.err()].into_iter().flatten() {
                eprintln!("error: {msg}");
            }
            return ExitCode::from(3);
        }
    };
    let expansion = octopocs::expand_scan(
        &[octopocs::ScanSource {
            name: s_path.clone(),
            s,
            poc: PocFile::new(Vec::new()),
        }],
        &[octopocs::ScanTarget {
            name: t_path.clone(),
            t,
        }],
        &params,
    );
    if json {
        print!("{}", expansion.render_candidates_json());
    } else {
        print!("{}", expansion.render_candidates_human());
    }
    if expansion.candidate_count() > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `octopocs scan` subcommand: discover ℓ per target and verify
/// every discovered pair on the batch scheduler. Exit 0 = the scan ran,
/// 3 = usage or input error.
fn scan_main(argv: &[String]) -> ExitCode {
    let mut corpus = false;
    let mut s_path = String::new();
    let mut poc_path = String::new();
    let mut target_paths: Vec<String> = Vec::new();
    let mut params = octo_clone::CloneParams::default();
    let mut options = BatchOptions::default();
    let config = PipelineConfig::default();
    let mut json = false;
    let mut verdicts_json = false;
    let mut candidates_json: Option<String> = None;
    let mut events = false;
    let mut metrics_json: Option<String> = None;
    let mut metrics_prom: Option<String> = None;
    let mut it = argv.iter();
    let parse_error = |msg: String| {
        if msg.is_empty() {
            eprintln!("{}", usage());
        } else {
            eprintln!("{msg}\n{}", usage());
        }
        ExitCode::from(3)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--corpus" => corpus = true,
                "--s" => s_path = value("--s")?,
                "--poc" => poc_path = value("--poc")?,
                "--target" => target_paths.push(value("--target")?),
                "--workers" => {
                    options.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?;
                    if options.workers == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                }
                "--deadline-secs" => {
                    let secs: f64 = value("--deadline-secs")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-secs: {e}"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err("--deadline-secs must be positive".to_string());
                    }
                    options.deadline = Some(std::time::Duration::from_secs_f64(secs));
                }
                "--cache-dir" => {
                    options.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?))
                }
                "--json" => json = true,
                "--verdicts-json" => verdicts_json = true,
                "--candidates-json" => candidates_json = Some(value("--candidates-json")?),
                "--events" => events = true,
                "--metrics-json" => metrics_json = Some(value("--metrics-json")?),
                "--metrics-prom" => metrics_prom = Some(value("--metrics-prom")?),
                "--help" | "-h" => return Err(String::new()),
                other => {
                    if !parse_clone_params(other, &mut value, &mut params)? {
                        return Err(format!("unknown scan flag `{other}`"));
                    }
                }
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return parse_error(msg);
        }
    }
    if corpus == (!s_path.is_empty() || !target_paths.is_empty()) {
        return parse_error(
            "exactly one of --corpus or (--s/--poc/--target...) is required".to_string(),
        );
    }
    if json && verdicts_json {
        return parse_error("--json and --verdicts-json are mutually exclusive".to_string());
    }
    let (sources, targets) = if corpus {
        octopocs::corpus_scan_inputs()
    } else {
        if s_path.is_empty() || poc_path.is_empty() || target_paths.is_empty() {
            return parse_error("scan needs --s, --poc and at least one --target".to_string());
        }
        let s = match load_program(&s_path) {
            Ok(p) => p,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(3);
            }
        };
        let poc_bytes = match std::fs::read(&poc_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {poc_path}: {e}");
                return ExitCode::from(3);
            }
        };
        let mut targets = Vec::new();
        for path in &target_paths {
            match load_program(path) {
                Ok(t) => targets.push(octopocs::ScanTarget {
                    name: path.clone(),
                    t,
                }),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(3);
                }
            }
        }
        (
            vec![octopocs::ScanSource {
                name: s_path.clone(),
                s,
                poc: PocFile::new(poc_bytes),
            }],
            targets,
        )
    };

    let stderr_sink = |event: octo_sched::Event| eprintln!("{}", event.render_human());
    let report = if events {
        octopocs::run_scan(&sources, &targets, &params, &config, &options, &stderr_sink)
    } else {
        octopocs::run_scan(
            &sources,
            &targets,
            &params,
            &config,
            &options,
            &octo_sched::NullSink,
        )
    };

    let outputs: Vec<(&Option<String>, String)> = vec![
        (&candidates_json, report.expansion.render_candidates_json()),
        (&metrics_json, report.batch.metrics.render_json()),
        (&metrics_prom, report.batch.metrics.render_prometheus()),
    ];
    for (path, content) in outputs {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("error writing {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }

    if verdicts_json {
        print!("{}", report.batch.render_verdicts_json());
    } else if json {
        println!("{}", report.batch.render_json());
    } else {
        print!("{}", report.expansion.render_candidates_human());
        print!("{}", report.batch.render_human());
    }
    ExitCode::SUCCESS
}

/// Reads a `--jobs` file: one job per whitespace-separated line
/// (`name S.mir T.mir poc.bin f1,f2`), `#` starting a comment.
fn load_job_file(path: &str) -> Result<Vec<BatchJob>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s_path, t_path, poc_path, shared] = fields[..] else {
            return Err(format!(
                "{path}:{}: expected `name S.mir T.mir poc.bin f1,f2`, got {} fields",
                lineno + 1,
                fields.len()
            ));
        };
        let poc_bytes = std::fs::read(poc_path)
            .map_err(|e| format!("{path}:{}: {poc_path}: {e}", lineno + 1))?;
        jobs.push(BatchJob {
            name: name.to_string(),
            s: load_program(s_path).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            t: load_program(t_path).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?,
            poc: PocFile::new(poc_bytes),
            shared: shared
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        });
    }
    if jobs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(jobs)
}

/// The Table II corpus as a batch job set.
fn corpus_jobs() -> Vec<BatchJob> {
    octo_corpus::all_pairs()
        .into_iter()
        .map(|p| BatchJob {
            name: p.display_name(),
            s: p.s,
            t: p.t,
            poc: p.poc,
            shared: p.shared,
        })
        .collect()
}

/// The `octopocs batch` subcommand: scheduled batch verification.
fn batch_main(argv: &[String]) -> ExitCode {
    let mut corpus = false;
    let mut jobs_path: Option<String> = None;
    let mut options = BatchOptions::default();
    let mut config = PipelineConfig::default();
    let mut json = false;
    let mut verdicts_json = false;
    let mut events = false;
    let mut metrics_json: Option<String> = None;
    let mut metrics_prom: Option<String> = None;
    let mut trace_chrome: Option<String> = None;
    let mut trace_jsonl: Option<String> = None;
    let mut post_mortem = false;
    let mut it = argv.iter();
    let parse_error = |msg: String| {
        if msg.is_empty() {
            eprintln!("{}", usage());
        } else {
            eprintln!("{msg}\n{}", usage());
        }
        ExitCode::from(3)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--corpus" => corpus = true,
                "--jobs" => jobs_path = Some(value("--jobs")?),
                "--workers" => {
                    options.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?;
                    if options.workers == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                }
                "--deadline-secs" => {
                    let secs: f64 = value("--deadline-secs")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-secs: {e}"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err("--deadline-secs must be positive".to_string());
                    }
                    options.deadline = Some(std::time::Duration::from_secs_f64(secs));
                }
                "--theta" => {
                    config.theta = value("--theta")?
                        .parse()
                        .map_err(|e| format!("bad --theta: {e}"))?
                }
                "--accelerate-loops" => config.loop_acceleration = true,
                "--static-cfg" => config.cfg_mode = octo_cfg::CfgMode::Static,
                "--context-free" => config.taint_context = octo_taint::ContextMode::ContextFree,
                "--prescreen" => config.static_prescreen = true,
                "--cache-dir" => {
                    options.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?))
                }
                "--json" => json = true,
                "--verdicts-json" => verdicts_json = true,
                "--events" => events = true,
                "--fault-plan" => {
                    let path = value("--fault-plan")?;
                    let text =
                        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                    let plan = octopocs::FaultPlan::parse_json(&text)
                        .map_err(|e| format!("{path}: {e}"))?;
                    options.faults = Some(std::sync::Arc::new(plan));
                }
                "--retry" => {
                    options.retry.max_attempts = value("--retry")?
                        .parse()
                        .map_err(|e| format!("bad --retry: {e}"))?;
                    if options.retry.max_attempts == 0 {
                        return Err("--retry must be at least 1".to_string());
                    }
                }
                "--retry-backoff-ms" => {
                    let ms: u64 = value("--retry-backoff-ms")?
                        .parse()
                        .map_err(|e| format!("bad --retry-backoff-ms: {e}"))?;
                    if ms == 0 {
                        return Err(
                            "--retry-backoff-ms must be positive (omit the flag for no backoff)"
                                .to_string(),
                        );
                    }
                    options.retry.base_backoff = std::time::Duration::from_millis(ms);
                }
                "--watchdog-quiet-secs" => {
                    let secs: f64 = value("--watchdog-quiet-secs")?
                        .parse()
                        .map_err(|e| format!("bad --watchdog-quiet-secs: {e}"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err("--watchdog-quiet-secs must be positive".to_string());
                    }
                    options.watchdog = Some(octopocs::WatchdogConfig::with_quiet(
                        std::time::Duration::from_secs_f64(secs),
                    ));
                }
                "--metrics-json" => metrics_json = Some(value("--metrics-json")?),
                "--metrics-prom" => metrics_prom = Some(value("--metrics-prom")?),
                "--trace-chrome" => trace_chrome = Some(value("--trace-chrome")?),
                "--trace-jsonl" => trace_jsonl = Some(value("--trace-jsonl")?),
                "--post-mortem" => post_mortem = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown batch flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return parse_error(msg);
        }
    }
    if corpus == jobs_path.is_some() {
        return parse_error("exactly one of --corpus or --jobs is required".to_string());
    }
    if json && verdicts_json {
        return parse_error("--json and --verdicts-json are mutually exclusive".to_string());
    }
    let jobs = if corpus {
        corpus_jobs()
    } else {
        match load_job_file(jobs_path.as_deref().expect("checked above")) {
            Ok(jobs) => jobs,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(3);
            }
        }
    };

    // A flight recorder only when an export asked for one; otherwise
    // tracing stays a no-op in every engine.
    let recorder = (trace_chrome.is_some() || trace_jsonl.is_some())
        .then(|| std::sync::Arc::new(octopocs::FlightRecorder::with_default_capacity()));
    options.trace = recorder.clone();

    // Graceful drain on the first SIGINT/SIGTERM: the run-level token
    // winds every in-flight job down as `Cancelled`, the partial report
    // (metrics files included) is still written, and the exit code
    // flips to 130. A second signal force-exits immediately.
    let drain = octo_sched::CancelToken::new();
    if octo_sched::install_drain_signals(&drain) {
        options.cancel = Some(drain.clone());
    }

    let stderr_sink = |event: octo_sched::Event| eprintln!("{}", event.render_human());
    let report = if events {
        run_batch(&jobs, &config, &options, &stderr_sink)
    } else {
        run_batch(&jobs, &config, &options, &octo_sched::NullSink)
    };

    let mut outputs: Vec<(&Option<String>, String)> = vec![
        (&metrics_json, report.metrics.render_json()),
        (&metrics_prom, report.metrics.render_prometheus()),
    ];
    if let Some(rec) = &recorder {
        let snapshot = rec.snapshot();
        if rec.dropped() > 0 {
            eprintln!(
                "trace: ring overflowed, {} oldest events overwritten",
                rec.dropped()
            );
        }
        outputs.push((&trace_chrome, octo_trace::chrome::render_chrome(&snapshot)));
        let mut lines = String::new();
        for e in &snapshot {
            lines.push_str(&e.render_json());
            lines.push('\n');
        }
        outputs.push((&trace_jsonl, lines));
    }
    for (path, content) in outputs {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("error writing {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }

    if post_mortem {
        let mortems = report.render_post_mortems();
        let text = if mortems.is_empty() {
            "no post-mortems: no job ended not-triggerable or on a deadline\n".to_string()
        } else {
            mortems
        };
        // Keep machine-readable stdout intact when a JSON mode is on.
        if json || verdicts_json {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }

    if verdicts_json {
        print!("{}", report.render_verdicts_json());
    } else if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if drain.is_cancelled() {
        let incomplete = report
            .entries
            .iter()
            .filter(|e| {
                matches!(
                    &e.report.verdict,
                    Verdict::Failure {
                        reason: octopocs::FailureReason::Cancelled
                    }
                )
            })
            .count();
        eprintln!("batch: drained by signal; {incomplete} job(s) incomplete");
        return ExitCode::from(130);
    }
    ExitCode::SUCCESS
}

/// The `octopocs cache` subcommand: offline maintenance of a disk
/// artifact cache (`--cache-dir`) — `stats`, `verify` (re-check every
/// blob's frame and checksum), `gc` (prune by generation/age, sweep
/// orphan temp files). See docs/caching.md.
fn cache_main(argv: &[String]) -> ExitCode {
    let parse_error = |msg: String| {
        if msg.is_empty() {
            eprintln!("{}", usage());
        } else {
            eprintln!("{msg}\n{}", usage());
        }
        ExitCode::from(3)
    };
    let Some(action) = argv.first().map(String::as_str) else {
        return parse_error("cache needs an action: stats, verify or gc".to_string());
    };
    if !matches!(action, "stats" | "verify" | "gc") {
        return parse_error(format!("unknown cache action `{action}`"));
    }
    let mut cache_dir: Option<String> = None;
    let mut json = false;
    let mut keep_generations: Option<u64> = None;
    let mut max_age_secs: Option<u64> = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--cache-dir" => cache_dir = Some(value("--cache-dir")?),
                "--json" => json = true,
                "--keep-generations" => {
                    keep_generations = Some(
                        value("--keep-generations")?
                            .parse()
                            .map_err(|e| format!("bad --keep-generations: {e}"))?,
                    )
                }
                "--max-age-secs" => {
                    max_age_secs = Some(
                        value("--max-age-secs")?
                            .parse()
                            .map_err(|e| format!("bad --max-age-secs: {e}"))?,
                    )
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown cache flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return parse_error(msg);
        }
    }
    let Some(dir) = cache_dir else {
        return parse_error("cache needs --cache-dir DIR".to_string());
    };
    if (keep_generations.is_some() || max_age_secs.is_some()) && action != "gc" {
        return parse_error("--keep-generations/--max-age-secs only apply to gc".to_string());
    }
    let store = octopocs::BlobStore::open(std::path::Path::new(&dir));
    if store.is_degraded() {
        eprintln!("error: {dir} is not usable as a cache directory");
        return ExitCode::from(2);
    }
    match action {
        "stats" => {
            let stats = store.stats();
            if json {
                println!(
                    "{{\"entries\":{},\"generation\":{},\"degraded\":{}}}",
                    stats.entries, stats.generation, stats.degraded
                );
            } else {
                println!(
                    "cache {dir}: {} entries, generation {}",
                    stats.entries, stats.generation
                );
            }
            ExitCode::SUCCESS
        }
        "verify" => {
            let report = store.verify();
            if json {
                let keys: Vec<String> = report
                    .corrupt
                    .iter()
                    .map(|k| format!("\"{k:016x}\""))
                    .collect();
                println!(
                    "{{\"valid\":{},\"corrupt\":[{}],\"orphan_temps\":{}}}",
                    report.valid,
                    keys.join(","),
                    report.orphan_temps
                );
            } else {
                for key in &report.corrupt {
                    println!("corrupt: {key:016x}");
                }
                println!(
                    "verified {dir}: {} valid, {} corrupt, {} orphan temp file(s)",
                    report.valid,
                    report.corrupt.len(),
                    report.orphan_temps
                );
            }
            if report.corrupt.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let report = store.gc(keep_generations, max_age_secs);
            if json {
                println!(
                    "{{\"removed\":{},\"kept\":{},\"temps_swept\":{}}}",
                    report.removed, report.kept, report.temps_swept
                );
            } else {
                println!(
                    "gc {dir}: removed {}, kept {}, swept {} temp file(s)",
                    report.removed, report.kept, report.temps_swept
                );
            }
            ExitCode::SUCCESS
        }
    }
}

// ---------------------------------------------------------------------------
// Service client subcommands: thin drivers of a running `octopocsd`
// daemon over the `octo-serve` wire protocol (see docs/service.md).

/// Connects to the daemon. The default endpoint is the daemon's default
/// Unix socket, `octopocsd.sock`, in the current directory.
fn service_connect(socket: Option<String>, tcp: Option<String>) -> Result<Client, String> {
    let endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".to_string()),
        (_, Some(addr)) => Endpoint::Tcp(addr),
        (path, None) => Endpoint::Unix(path.unwrap_or_else(|| "octopocsd.sock".to_string()).into()),
    };
    Client::connect(&endpoint)
}

/// The `octopocs submit` subcommand: admit jobs into a running daemon.
/// Exit 0 = every job accepted, 1 = at least one rejected (backpressure
/// or invalid), 3 = usage or connection error.
fn submit_main(argv: &[String]) -> ExitCode {
    let mut corpus = false;
    let mut scan = false;
    let mut s_path = String::new();
    let mut t_path = String::new();
    let mut poc_path = String::new();
    let mut shared: Vec<String> = Vec::new();
    let mut target_paths: Vec<String> = Vec::new();
    let mut params = octo_clone::CloneParams::default();
    let mut priority: Option<ServePriority> = None;
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut it = argv.iter();
    let parse_error = |msg: String| {
        if msg.is_empty() {
            eprintln!("{}", usage());
        } else {
            eprintln!("{msg}\n{}", usage());
        }
        ExitCode::from(3)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--corpus" => corpus = true,
                "--scan" => scan = true,
                "--s" => s_path = value("--s")?,
                "--t" => t_path = value("--t")?,
                "--poc" => poc_path = value("--poc")?,
                "--shared" => {
                    shared = value("--shared")?
                        .split(',')
                        .map(str::to_string)
                        .filter(|s| !s.is_empty())
                        .collect()
                }
                "--target" => target_paths.push(value("--target")?),
                "--priority" => {
                    priority = Some(
                        ServePriority::parse(&value("--priority")?)
                            .map_err(|e| format!("bad --priority: {e}"))?,
                    )
                }
                "--socket" => socket = Some(value("--socket")?),
                "--tcp" => tcp = Some(value("--tcp")?),
                "--help" | "-h" => return Err(String::new()),
                other => {
                    if !parse_clone_params(other, &mut value, &mut params)? {
                        return Err(format!("unknown submit flag `{other}`"));
                    }
                }
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return parse_error(msg);
        }
    }
    let single = !s_path.is_empty() && !scan;
    if usize::from(corpus) + usize::from(scan) + usize::from(single) != 1 {
        return parse_error(
            "exactly one of --corpus, --scan, or (--s/--t/--poc/--shared) is required".to_string(),
        );
    }
    // Corpus/scan expansions default to bulk; a single pair is a human
    // waiting and defaults to interactive.
    let (jobs, default_priority) = if corpus {
        (corpus_jobs(), ServePriority::Bulk)
    } else if scan {
        if s_path.is_empty() || poc_path.is_empty() || target_paths.is_empty() {
            return parse_error("--scan needs --s, --poc and at least one --target".to_string());
        }
        let s = match load_program(&s_path) {
            Ok(p) => p,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(3);
            }
        };
        let poc = match std::fs::read(&poc_path) {
            Ok(bytes) => PocFile::new(bytes),
            Err(e) => {
                eprintln!("error: {poc_path}: {e}");
                return ExitCode::from(3);
            }
        };
        let mut targets = Vec::new();
        for path in &target_paths {
            match load_program(path) {
                Ok(t) => targets.push(octopocs::ScanTarget {
                    name: path.clone(),
                    t,
                }),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(3);
                }
            }
        }
        let expansion = octopocs::expand_scan(
            &[octopocs::ScanSource {
                name: s_path.clone(),
                s,
                poc,
            }],
            &targets,
            &params,
        );
        (expansion.jobs, ServePriority::Bulk)
    } else {
        if t_path.is_empty() || poc_path.is_empty() || shared.is_empty() {
            return parse_error("submit needs --s, --t, --poc and --shared".to_string());
        }
        let (s, t, poc_bytes) = match (
            load_program(&s_path),
            load_program(&t_path),
            std::fs::read(&poc_path),
        ) {
            (Ok(s), Ok(t), Ok(p)) => (s, t, p),
            (s, t, p) => {
                for msg in [
                    s.err(),
                    t.err(),
                    p.err().map(|e| format!("{poc_path}: {e}")),
                ]
                .into_iter()
                .flatten()
                {
                    eprintln!("error: {msg}");
                }
                return ExitCode::from(3);
            }
        };
        (
            vec![BatchJob {
                name: format!("{s_path} => {t_path}"),
                s,
                t,
                poc: PocFile::new(poc_bytes),
                shared,
            }],
            ServePriority::Interactive,
        )
    };
    let priority = priority.unwrap_or(default_priority);

    let mut client = match service_connect(socket, tcp) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let mut refused = 0usize;
    for job in &jobs {
        let spec = octopocs::batch_job_to_spec(job, priority);
        match client.request(&Request::Submit { job: spec }) {
            Ok(Response::Accepted { id }) => println!("accepted {id} {}", job.name),
            Ok(Response::Rejected { reason }) => {
                eprintln!("rejected {}: {reason}", job.name);
                refused += 1;
            }
            Ok(Response::Error { message }) => {
                eprintln!("error {}: {message}", job.name);
                refused += 1;
            }
            Ok(other) => {
                eprintln!("error {}: unexpected response {}", job.name, other.render());
                refused += 1;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if refused > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses the shared `--socket`/`--tcp`/`--id`-style flags of the small
/// client subcommands. Returns `Err` on unknown flags.
struct ClientArgs {
    socket: Option<String>,
    tcp: Option<String>,
    id: Option<u64>,
    metrics_json: Option<String>,
    wait: bool,
    verdicts_json: bool,
    shutdown: bool,
}

fn parse_client_args(argv: &[String], subcommand: &str) -> Result<ClientArgs, String> {
    let mut args = ClientArgs {
        socket: None,
        tcp: None,
        id: None,
        metrics_json: None,
        wait: false,
        verdicts_json: false,
        shutdown: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--socket" => args.socket = Some(value("--socket")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--id" => {
                args.id = Some(
                    value("--id")?
                        .parse()
                        .map_err(|e| format!("bad --id: {e}"))?,
                )
            }
            "--metrics-json" if subcommand == "status" => {
                args.metrics_json = Some(value("--metrics-json")?)
            }
            "--wait" if subcommand == "results" => args.wait = true,
            "--verdicts-json" if subcommand == "results" => args.verdicts_json = true,
            "--shutdown" if subcommand == "drain" => args.shutdown = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown {subcommand} flag `{other}`")),
        }
    }
    Ok(args)
}

fn render_job_status(j: &octo_serve::JobStatus) -> String {
    let verdict = j
        .verdict
        .as_ref()
        .map(|v| {
            format!(
                " verdict={}{}",
                v.verdict,
                if v.quarantined { " (quarantined)" } else { "" }
            )
        })
        .unwrap_or_default();
    format!(
        "job {} [{}] {} {}{verdict}",
        j.id,
        j.priority.label(),
        j.phase.label(),
        j.name
    )
}

/// The `octopocs status` subcommand. Exit 0 = answered, 1 = unknown job
/// id, 3 = usage or connection error.
fn status_main(argv: &[String]) -> ExitCode {
    let args = match parse_client_args(argv, "status") {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(3);
        }
    };
    let mut client = match service_connect(args.socket, args.tcp) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(path) = &args.metrics_json {
        match client.request(&Request::Metrics) {
            Ok(Response::Metrics { body }) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("error writing {path}: {e}");
                    return ExitCode::from(3);
                }
            }
            Ok(other) => {
                eprintln!("error: unexpected response {}", other.render());
                return ExitCode::from(3);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        }
    }
    match client.request(&Request::Status { id: args.id }) {
        Ok(Response::Status(s)) => {
            println!(
                "queued: {} interactive + {} bulk (capacity {}), running: {}, done: {}{}",
                s.queued_interactive,
                s.queued_bulk,
                s.capacity,
                s.running,
                s.done,
                if s.draining { ", draining" } else { "" }
            );
            ExitCode::SUCCESS
        }
        Ok(Response::Job(j)) => {
            println!("{}", render_job_status(&j));
            if let Some(pm) = &j.post_mortem {
                for line in pm.lines() {
                    println!("  {line}");
                }
            }
            ExitCode::SUCCESS
        }
        Ok(Response::Error { message }) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Ok(other) => {
            eprintln!("error: unexpected response {}", other.render());
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// The `octopocs watch` subcommand: stream one job's events as JSON
/// lines until its verdict. Exit 0 = done line received, 2 = the stream
/// ended in an error line, 3 = usage or connection error.
fn watch_main(argv: &[String]) -> ExitCode {
    let args = match parse_client_args(argv, "watch") {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(3);
        }
    };
    let Some(id) = args.id else {
        eprintln!("watch needs --id\n{}", usage());
        return ExitCode::from(3);
    };
    let mut client = match service_connect(args.socket, args.tcp) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    if let Err(e) = client.send(&Request::Watch { id }) {
        eprintln!("error: {e}");
        return ExitCode::from(3);
    }
    loop {
        match client.recv() {
            Ok(Some(resp @ Response::Event(_))) => println!("{}", resp.render()),
            Ok(Some(resp @ Response::Done { .. })) => {
                println!("{}", resp.render());
                return ExitCode::SUCCESS;
            }
            Ok(Some(Response::Error { message })) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
            Ok(Some(other)) => {
                eprintln!("error: unexpected response {}", other.render());
                return ExitCode::from(2);
            }
            Ok(None) => {
                eprintln!("error: daemon closed the connection");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
}

/// The `octopocs results` subcommand. `--wait` blocks until the queue
/// is empty; `--verdicts-json` prints the same stable document as
/// `octopocs batch --verdicts-json`. Exit 0 = answered, 3 = usage or
/// connection error.
fn results_main(argv: &[String]) -> ExitCode {
    let args = match parse_client_args(argv, "results") {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(3);
        }
    };
    let mut client = match service_connect(args.socket, args.tcp) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    if args.wait {
        loop {
            match client.request(&Request::Status { id: None }) {
                Ok(Response::Status(s)) => {
                    if s.queued_interactive + s.queued_bulk + s.running == 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Ok(other) => {
                    eprintln!("error: unexpected response {}", other.render());
                    return ExitCode::from(3);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    }
    match client.request(&Request::Results) {
        Ok(Response::Results { jobs }) => {
            if args.verdicts_json {
                // Byte-identical to `octopocs batch --verdicts-json`
                // (and the CI golden): rows in submission order.
                let mut out = String::from("{\"jobs\":[\n");
                for (i, row) in jobs.iter().enumerate() {
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",{}}}{}\n",
                        octo_codec::json_escape(&row.name),
                        row.verdict.render_fields(),
                        if i + 1 == jobs.len() { "" } else { "," }
                    ));
                }
                out.push_str("]}\n");
                print!("{out}");
            } else {
                for row in &jobs {
                    println!(
                        "{:>4}  {:<28} {}{}",
                        row.id,
                        row.verdict.verdict,
                        row.name,
                        if row.verdict.quarantined {
                            "  [quarantined]"
                        } else {
                            ""
                        }
                    );
                }
                println!("{} finished job(s)", jobs.len());
            }
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("error: unexpected response {}", other.render());
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// The `octopocs drain` subcommand: ask the daemon to finish queued
/// work and exit (`--shutdown` cancels in-flight jobs instead). Exit
/// 0 = acknowledged, 3 = usage or connection error.
fn drain_main(argv: &[String]) -> ExitCode {
    let args = match parse_client_args(argv, "drain") {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(3);
        }
    };
    let mut client = match service_connect(args.socket, args.tcp) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let request = if args.shutdown {
        Request::Shutdown
    } else {
        Request::Drain
    };
    match client.request(&request) {
        Ok(Response::Draining { pending }) => {
            println!("draining; {pending} job(s) still pending");
            ExitCode::SUCCESS
        }
        Ok(Response::ShuttingDown) => {
            println!("shutting down; incomplete jobs will replay from the journal");
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("error: unexpected response {}", other.render());
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// Windowed rates computed client-side from `/metrics/rates`.
struct TopReport {
    windows: usize,
    span_seconds: f64,
    jobs_per_sec: f64,
    solves_per_sec: f64,
    cache_hits: u64,
    cache_lookups: u64,
    queued_interactive: u64,
    queued_bulk: u64,
    uptime_seconds: u64,
}

/// Sums counter deltas and reads end-of-span gauges from the last
/// `want` windows of a `/metrics/rates` body.
fn top_report(body: &str, want: usize) -> Result<TopReport, String> {
    let doc = octo_codec::parse_json(body).map_err(|e| format!("bad rates body: {e}"))?;
    let all = doc
        .get("windows")
        .and_then(|w| w.as_array())
        .ok_or("rates body has no windows array")?;
    if all.is_empty() {
        return Err("no rate windows yet (the daemon samples once a second)".to_string());
    }
    let windows = &all[all.len().saturating_sub(want.max(1))..];
    let first = windows.first().expect("non-empty span");
    let last = windows.last().expect("non-empty span");
    let span_us = last
        .get("end_us")
        .and_then(|v| v.as_u64())
        .zip(first.get("start_us").and_then(|v| v.as_u64()))
        .map(|(end, start)| end.saturating_sub(start))
        .ok_or("windows missing start_us/end_us")?;
    let span_seconds = span_us as f64 / 1_000_000.0;
    let delta = |name: &str| -> u64 {
        windows
            .iter()
            .filter_map(|w| {
                w.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|v| v.as_u64())
            })
            .sum()
    };
    let gauge = |name: &str| -> u64 {
        last.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let per_sec = |total: u64| {
        if span_seconds > 0.0 {
            total as f64 / span_seconds
        } else {
            0.0
        }
    };
    let cache_hits = delta("cache_hits_total");
    let cache_lookups = cache_hits + delta("cache_misses_total");
    Ok(TopReport {
        windows: windows.len(),
        span_seconds,
        jobs_per_sec: per_sec(delta("batch_jobs_total")),
        solves_per_sec: per_sec(delta("solver_calls_total")),
        cache_hits,
        cache_lookups,
        queued_interactive: gauge("serve_queue_depth_interactive"),
        queued_bulk: gauge("serve_queue_depth_bulk"),
        uptime_seconds: gauge("serve_uptime_seconds"),
    })
}

/// The `octopocs top` subcommand: one-shot windowed throughput from a
/// daemon's octo-scope HTTP plane (`octopocsd --http`). Exit 0 = rates
/// printed, 1 = the plane answered but has no windows yet, 3 = usage or
/// connection error.
fn top_main(argv: &[String]) -> ExitCode {
    let mut http: Option<String> = None;
    let mut windows: usize = 10;
    let mut json = false;
    let mut it = argv.iter();
    let parse_error = |msg: String| {
        if msg.is_empty() {
            eprintln!("{}", usage());
        } else {
            eprintln!("{msg}\n{}", usage());
        }
        ExitCode::from(3)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--http" => http = Some(value("--http")?),
                "--windows" => {
                    windows = value("--windows")?
                        .parse()
                        .map_err(|e| format!("bad --windows: {e}"))?;
                    if windows == 0 {
                        return Err("--windows must be at least 1".to_string());
                    }
                }
                "--json" => json = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown top flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            return parse_error(msg);
        }
    }
    let Some(addr) = http else {
        return parse_error("top needs --http ADDR (the daemon's --http address)".to_string());
    };
    let (status, body) =
        match octo_serve::http_get(&addr, "/metrics/rates", std::time::Duration::from_secs(5)) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        };
    if status != 200 {
        eprintln!("error: /metrics/rates answered {status}: {}", body.trim());
        return ExitCode::from(3);
    }
    let report = match top_report(&body, windows) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let hit_rate = if report.cache_lookups > 0 {
        report.cache_hits as f64 / report.cache_lookups as f64
    } else {
        0.0
    };
    if json {
        println!(
            "{{\"windows\":{},\"span_seconds\":{:.3},\"jobs_per_sec\":{:.4},\
             \"solves_per_sec\":{:.4},\"cache_hit_rate\":{:.4},\"cache_hits\":{},\
             \"cache_lookups\":{},\"queued_interactive\":{},\"queued_bulk\":{},\
             \"uptime_seconds\":{}}}",
            report.windows,
            report.span_seconds,
            report.jobs_per_sec,
            report.solves_per_sec,
            hit_rate,
            report.cache_hits,
            report.cache_lookups,
            report.queued_interactive,
            report.queued_bulk,
            report.uptime_seconds,
        );
    } else {
        println!(
            "octopocs top — last {} window(s), {:.1}s span",
            report.windows, report.span_seconds
        );
        println!("  jobs/s:         {:.2}", report.jobs_per_sec);
        println!("  solves/s:       {:.2}", report.solves_per_sec);
        println!(
            "  cache hit-rate: {:.1}% ({} hit(s) / {} lookup(s))",
            hit_rate * 100.0,
            report.cache_hits,
            report.cache_lookups
        );
        println!(
            "  queue:          {} interactive + {} bulk; uptime {}s",
            report.queued_interactive, report.queued_bulk, report.uptime_seconds
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        return lint_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("batch") {
        return batch_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("clone") {
        return clone_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("scan") {
        return scan_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("cache") {
        return cache_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("submit") {
        return submit_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("status") {
        return status_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("watch") {
        return watch_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("results") {
        return results_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("drain") {
        return drain_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("top") {
        return top_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(3);
        }
    };
    let (s, t, poc_bytes) = match (
        load_program(&args.s_path),
        load_program(&args.t_path),
        std::fs::read(&args.poc_path),
    ) {
        (Ok(s), Ok(t), Ok(p)) => (s, t, p),
        (s, t, p) => {
            for msg in [
                s.err(),
                t.err(),
                p.err().map(|e| format!("{}: {e}", args.poc_path)),
            ]
            .into_iter()
            .flatten()
            {
                eprintln!("error: {msg}");
            }
            return ExitCode::from(3);
        }
    };

    let mut config = PipelineConfig::default();
    if let Some(theta) = args.theta {
        config = config.with_theta(theta);
    }
    if args.accelerate_loops {
        config = config.accelerate_loops();
    }
    if args.static_cfg {
        config = config.static_cfg();
    }
    if args.context_free {
        config = config.context_free();
    }
    if args.prescreen {
        config = config.with_static_prescreen();
    }

    let poc = PocFile::new(poc_bytes);
    let input = SoftwarePairInput {
        s: &s,
        t: &t,
        poc: &poc,
        shared: &args.shared,
    };
    let report = verify(&input, &config);

    if args.json {
        // Hand-rolled JSON keeps the core crate dependency-free.
        println!(
            "{{\"verdict\":\"{}\",\"poc_generated\":{},\"verified\":{},\"ep\":\"{}\",\
             \"ep_entries\":{},\"prescreen\":{},\"wall_seconds\":{:.6}}}",
            report.verdict.type_label(),
            report.verdict.poc_generated(),
            report.verdict.verified(),
            report.ep_name.as_deref().unwrap_or(""),
            report.ep_entries,
            report.prescreen,
            report.wall_seconds,
        );
    } else {
        println!("verdict    : {}", report.verdict);
        if let Some(ep) = &report.ep_name {
            println!("ep         : {ep} ({} entries in S)", report.ep_entries);
        }
        if report.prescreen {
            println!("prescreen  : verdict decided statically in P0");
        }
        println!("time       : {:.3}s", report.wall_seconds);
    }

    match &report.verdict {
        Verdict::Triggered { poc_prime, .. } => {
            let poc_prime = if args.minimize {
                let shared_ids = t.resolve_names(args.shared.iter().map(String::as_str));
                let (min, stats) =
                    octopocs::minimize_poc(&t, poc_prime, &shared_ids, octo_vm::Limits::default());
                if !args.json {
                    println!(
                        "minimized  : {} -> {} bytes ({} zeroed, {} execs)",
                        stats.len_before, stats.len_after, stats.bytes_zeroed, stats.execs
                    );
                }
                min
            } else {
                poc_prime.clone()
            };
            let poc_prime = &poc_prime;
            if let Some(out) = &args.out {
                if let Err(e) = std::fs::write(out, poc_prime.bytes()) {
                    eprintln!("error writing {out}: {e}");
                    return ExitCode::from(3);
                }
                if !args.json {
                    println!("poc' written to {out} ({} bytes)", poc_prime.len());
                }
            } else if !args.json {
                println!("poc' hexdump:\n{}", poc_prime.hexdump());
            }
            ExitCode::SUCCESS
        }
        Verdict::NotTriggerable { .. } => ExitCode::from(1),
        Verdict::Failure { .. } => ExitCode::from(2),
    }
}
