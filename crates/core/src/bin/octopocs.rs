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
//!          [--cache-dir DIR] [--json | --verdicts-json] [--candidates-json PATH]
//!          [--events] [--metrics-json PATH] [--metrics-prom PATH]
//! octopocs batch (--corpus | --jobs FILE) [--workers N] [--deadline-secs S]
//!          [--cache-dir DIR] [--json | --verdicts-json] [--events]
//!          [--metrics-json PATH] [--metrics-prom PATH] [--trace-chrome PATH]
//!          [--trace-jsonl PATH] [--post-mortem] [--theta N]
//!          [--accelerate-loops] [--static-cfg] [--context-free] [--prescreen]
//!          [--fault-plan FILE] [--retry N] [--retry-backoff-ms MS]
//!          [--watchdog-quiet-secs S]
//! octopocs cache (stats | verify | gc) --cache-dir DIR [--json]
//!          [--keep-generations N] [--max-age-secs S]
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
//! dying state's constraints, flight-record tail). `--cache-dir DIR`
//! (also on `scan`) backs the prefix cache with a disk blob store, so a
//! second run starts warm (see `docs/caching.md`).
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
//! The `cache` subcommand maintains a `--cache-dir` offline: `stats`
//! counts its entries, `verify` re-checks every blob's frame and
//! checksum (exit 1 when any is corrupt), and `gc` prunes by generation
//! (`--keep-generations`) or age (`--max-age-secs`) and sweeps orphan
//! temp files.
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
//! journal replay). `top` prints windowed throughput from the daemon's
//! HTTP plane (`octopocsd --http`).
//!
//! Every flag group and input loader lives in `octopocs::cli`.

use std::path::PathBuf;
use std::process::ExitCode;

use octo_clone::CloneParams;
use octo_ir::parse::parse_program;
use octo_sched::{EventSink, NullSink};
use octo_serve::{Client, Priority as ServePriority, Request, Response};
use octopocs::batch::{run_batch, BatchJob, BatchOptions};
use octopocs::cli::{self, Cursor, EndpointArgs};
use octopocs::{verify, PipelineConfig, SoftwarePairInput, Verdict};

/// How a subcommand ends: `Ok` with its own exit code, or `Err` with
/// the exit code of an error it has already printed, so `?` ends it.
type Exit = Result<ExitCode, ExitCode>;

const USAGE: &str = "usage: octopocs --s S.mir --t T.mir --poc poc.bin --shared f1,f2 \
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
     octopocs top --http ADDR [--windows N] [--json]";

/// Ends a subcommand in a usage error.
fn usage_error<T>(msg: &str) -> Result<T, ExitCode> {
    Err(cli::usage_error(msg, USAGE))
}

/// Single-pair mode: verify one `(S, PoC, T, ℓ)`.
fn single_main(argv: &[String]) -> Exit {
    let (mut s_path, mut t_path, mut poc_path) = (String::new(), String::new(), String::new());
    let mut shared = Vec::new();
    let mut out: Option<String> = None;
    let (mut minimize, mut json) = (false, false);
    let mut config = PipelineConfig::default();
    cli::parse_flags(argv, "flag", USAGE, |flag, cur| {
        match flag {
            "--s" => s_path = cur.value(flag)?,
            "--t" => t_path = cur.value(flag)?,
            "--poc" => poc_path = cur.value(flag)?,
            "--shared" => shared = cli::split_shared(&cur.value(flag)?),
            "--out" => out = Some(cur.value(flag)?),
            "--minimize" => minimize = true,
            "--json" => json = true,
            _ => return cli::engine_flags(flag, cur, &mut config),
        }
        Ok(true)
    })?;
    if s_path.is_empty() || t_path.is_empty() || poc_path.is_empty() {
        return usage_error("--s, --t and --poc are required");
    }
    if shared.is_empty() {
        return usage_error("--shared must list at least one function");
    }
    let (s, t, poc) = cli::load_pair(&s_path, &t_path, &poc_path).map_err(cli::error)?;

    let input = SoftwarePairInput {
        s: &s,
        t: &t,
        poc: &poc,
        shared: &shared,
    };
    let report = verify(&input, &config);

    if json {
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
            let poc_prime = if minimize {
                let shared_ids = t.resolve_names(shared.iter().map(String::as_str));
                let (min, stats) =
                    octopocs::minimize_poc(&t, poc_prime, &shared_ids, octo_vm::Limits::default());
                if !json {
                    println!(
                        "minimized  : {} -> {} bytes ({} zeroed, {} execs)",
                        stats.len_before, stats.len_after, stats.bytes_zeroed, stats.execs
                    );
                }
                min
            } else {
                poc_prime.clone()
            };
            write_file(&out, || poc_prime.bytes())?;
            match &out {
                Some(out) if !json => println!("poc' written to {out} ({} bytes)", poc_prime.len()),
                None if !json => println!("poc' hexdump:\n{}", poc_prime.hexdump()),
                _ => {}
            }
            Ok(ExitCode::SUCCESS)
        }
        Verdict::NotTriggerable { .. } => Ok(ExitCode::from(1)),
        Verdict::Failure { .. } => Ok(ExitCode::from(2)),
    }
}

/// The `octopocs lint` subcommand: static analysis of one program.
fn lint_main(argv: &[String]) -> Exit {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut canonical = false;
    cli::parse_flags(argv, "lint argument", USAGE, |flag, cur| {
        match flag {
            "--canonical" => canonical = true,
            "--format" => match cur.value(flag)?.as_str() {
                "json" => json = true,
                "human" => json = false,
                other => return Err(format!("bad --format `{other}` (expected human|json)")),
            },
            _ if !flag.starts_with('-') && path.is_none() => path = Some(flag),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(path) = path else {
        return usage_error("lint: a program file is required");
    };
    // Parse only — structural validation is the lint's own VAL001 rule,
    // so invalid programs are reported, not rejected.
    let program = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|src| parse_program(&src).map_err(|e| e.to_string()))
        .map_err(|e| cli::error([format!("{path}: {e}")]))?;
    if canonical {
        // Canonicalization mode: print the normal form (entry-first DFS
        // block order, dense register/label renumbering) instead of the
        // diagnostics. `parse(print_canonical(p))` is a fixed point, so
        // the output is diffable across renamed/reordered variants.
        print!("{}", octo_ir::printer::print_program_canonical(&program));
        return Ok(ExitCode::SUCCESS);
    }
    let report = octo_lint::lint_program(&program);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.error_count() > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The `octopocs clone` subcommand: retrieve clone candidates between
/// two programs (no verification). Exit 0 = at least one candidate,
/// 1 = none, 3 = usage or input error.
fn clone_main(argv: &[String]) -> Exit {
    let (mut s_path, mut t_path) = (String::new(), String::new());
    let mut params = CloneParams::default();
    let mut json = false;
    cli::parse_flags(argv, "clone flag", USAGE, |flag, cur| {
        match flag {
            "--s" => s_path = cur.value(flag)?,
            "--t" => t_path = cur.value(flag)?,
            "--json" => json = true,
            _ => return cli::clone_flags(flag, cur, &mut params),
        }
        Ok(true)
    })?;
    if s_path.is_empty() || t_path.is_empty() {
        return usage_error("clone: --s and --t are required");
    }
    let (s, t) = match (cli::load_program(&s_path), cli::load_program(&t_path)) {
        (Ok(s), Ok(t)) => (s, t),
        (s, t) => return Err(cli::error([s.err(), t.err()].into_iter().flatten())),
    };
    let expansion = octopocs::expand_scan(
        &[octopocs::ScanSource {
            name: s_path,
            s,
            poc: octo_poc::PocFile::new(Vec::new()),
        }],
        &[octopocs::ScanTarget { name: t_path, t }],
        &params,
    );
    if json {
        print!("{}", expansion.render_candidates_json());
    } else {
        print!("{}", expansion.render_candidates_human());
    }
    if expansion.candidate_count() > 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

/// The report flags `scan` and `batch` share.
#[derive(Default)]
struct ReportFlags {
    json: bool,
    verdicts_json: bool,
    events: bool,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
}

impl ReportFlags {
    fn flag(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--json" => self.json = true,
            "--verdicts-json" => self.verdicts_json = true,
            "--events" => self.events = true,
            "--metrics-json" => self.metrics_json = Some(cur.value(flag)?),
            "--metrics-prom" => self.metrics_prom = Some(cur.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Both JSON modes claim stdout.
    fn check(&self) -> Result<(), ExitCode> {
        if self.json && self.verdicts_json {
            return usage_error("--json and --verdicts-json are mutually exclusive");
        }
        Ok(())
    }

    /// Progress events go to stderr with `--events`, nowhere otherwise.
    fn sink(&self) -> &'static dyn EventSink {
        if self.events {
            &print_event
        } else {
            &NullSink
        }
    }
}

fn print_event(event: octo_sched::Event) {
    eprintln!("{}", event.render_human());
}

/// Renders and writes `content` when `path` was given; an unwritable
/// path is exit 3.
fn write_file<C: AsRef<[u8]>>(
    path: &Option<String>,
    content: impl FnOnce() -> C,
) -> Result<(), ExitCode> {
    let Some(path) = path else {
        return Ok(());
    };
    std::fs::write(path, content()).map_err(|e| {
        eprintln!("error writing {path}: {e}");
        ExitCode::from(3)
    })
}

/// The `octopocs scan` subcommand: discover ℓ per target and verify
/// every discovered pair on the batch scheduler. Exit 0 = the scan ran,
/// 3 = usage or input error.
fn scan_main(argv: &[String]) -> Exit {
    let mut corpus = false;
    let (mut s_path, mut poc_path) = (String::new(), String::new());
    let mut target_paths: Vec<String> = Vec::new();
    let mut candidates_json: Option<String> = None;
    let mut params = CloneParams::default();
    let mut options = BatchOptions::default();
    let mut out = ReportFlags::default();
    cli::parse_flags(argv, "scan flag", USAGE, |flag, cur| {
        match flag {
            "--corpus" => corpus = true,
            "--s" => s_path = cur.value(flag)?,
            "--poc" => poc_path = cur.value(flag)?,
            "--target" => target_paths.push(cur.value(flag)?),
            "--candidates-json" => candidates_json = Some(cur.value(flag)?),
            _ => {
                return Ok(out.flag(flag, cur)?
                    || cli::run_flags(flag, cur, &mut options)?
                    || cli::clone_flags(flag, cur, &mut params)?)
            }
        }
        Ok(true)
    })?;
    if corpus == (!s_path.is_empty() || !target_paths.is_empty()) {
        return usage_error("exactly one of --corpus or (--s/--poc/--target...) is required");
    }
    out.check()?;
    let (sources, targets) = if corpus {
        octopocs::corpus_scan_inputs()
    } else {
        if s_path.is_empty() || poc_path.is_empty() || target_paths.is_empty() {
            return usage_error("scan needs --s, --poc and at least one --target");
        }
        cli::load_scan_inputs(&s_path, &poc_path, &target_paths).map_err(|e| cli::error([e]))?
    };

    let report = octopocs::run_scan(
        &sources,
        &targets,
        &params,
        &PipelineConfig::default(),
        &options,
        out.sink(),
    );
    write_file(&candidates_json, || {
        report.expansion.render_candidates_json()
    })?;
    write_file(&out.metrics_json, || report.batch.metrics.render_json())?;
    write_file(&out.metrics_prom, || {
        report.batch.metrics.render_prometheus()
    })?;

    if out.verdicts_json {
        print!("{}", report.batch.render_verdicts_json());
    } else if out.json {
        println!("{}", report.batch.render_json());
    } else {
        print!("{}", report.expansion.render_candidates_human());
        print!("{}", report.batch.render_human());
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs batch` subcommand: scheduled batch verification.
fn batch_main(argv: &[String]) -> Exit {
    let mut corpus = false;
    let mut jobs_path: Option<String> = None;
    let mut options = BatchOptions::default();
    let mut config = PipelineConfig::default();
    let mut out = ReportFlags::default();
    let mut trace_chrome: Option<String> = None;
    let mut trace_jsonl: Option<String> = None;
    let mut post_mortem = false;
    cli::parse_flags(argv, "batch flag", USAGE, |flag, cur| {
        match flag {
            "--corpus" => corpus = true,
            "--jobs" => jobs_path = Some(cur.value(flag)?),
            "--trace-chrome" => trace_chrome = Some(cur.value(flag)?),
            "--trace-jsonl" => trace_jsonl = Some(cur.value(flag)?),
            "--post-mortem" => post_mortem = true,
            _ => {
                return Ok(out.flag(flag, cur)?
                    || cli::run_flags(flag, cur, &mut options)?
                    || cli::engine_flags(flag, cur, &mut config)?
                    || cli::robustness_flags(flag, cur, &mut options)?)
            }
        }
        Ok(true)
    })?;
    if corpus == jobs_path.is_some() {
        return usage_error("exactly one of --corpus or --jobs is required");
    }
    out.check()?;
    let jobs = match &jobs_path {
        None => octopocs::corpus_jobs(),
        Some(path) => cli::load_job_file(path).map_err(|e| cli::error([e]))?,
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

    let report = run_batch(&jobs, &config, &options, out.sink());

    let snapshot = recorder.as_ref().map(|rec| {
        let snapshot = rec.snapshot();
        if rec.dropped() > 0 {
            eprintln!(
                "trace: ring overflowed, {} oldest events overwritten",
                rec.dropped()
            );
        }
        snapshot
    });
    write_file(&out.metrics_json, || report.metrics.render_json())?;
    write_file(&out.metrics_prom, || report.metrics.render_prometheus())?;
    if let Some(snapshot) = &snapshot {
        write_file(&trace_chrome, || {
            octo_trace::chrome::render_chrome(snapshot)
        })?;
        write_file(&trace_jsonl, || {
            snapshot
                .iter()
                .map(|e| e.render_json() + "\n")
                .collect::<String>()
        })?;
    }

    if post_mortem {
        let mortems = report.render_post_mortems();
        let text = if mortems.is_empty() {
            "no post-mortems: no job ended not-triggerable or on a deadline\n".to_string()
        } else {
            mortems
        };
        // Keep machine-readable stdout intact when a JSON mode is on.
        if out.json || out.verdicts_json {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }

    if out.verdicts_json {
        print!("{}", report.render_verdicts_json());
    } else if out.json {
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
        return Ok(ExitCode::from(130));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `octopocs cache` subcommand: offline maintenance of a disk
/// artifact cache (`--cache-dir`) — `stats`, `verify` (re-check every
/// blob's frame and checksum), `gc` (prune by generation/age, sweep
/// orphan temp files). See docs/caching.md.
fn cache_main(argv: &[String]) -> Exit {
    let Some(action) = argv.first().map(String::as_str) else {
        return usage_error("cache needs an action: stats, verify or gc");
    };
    if matches!(action, "--help" | "-h") {
        return usage_error("");
    }
    if !matches!(action, "stats" | "verify" | "gc") {
        return usage_error(&format!("unknown cache action `{action}`"));
    }
    let mut cache_dir: Option<PathBuf> = None;
    let mut json = false;
    let mut keep_generations: Option<u64> = None;
    let mut max_age_secs: Option<u64> = None;
    cli::parse_flags(&argv[1..], "cache flag", USAGE, |flag, cur| {
        match flag {
            "--json" => json = true,
            "--keep-generations" => keep_generations = Some(cur.parse(flag)?),
            "--max-age-secs" => max_age_secs = Some(cur.parse(flag)?),
            _ => return cli::cache_dir_flag(flag, cur, &mut cache_dir),
        }
        Ok(true)
    })?;
    let Some(dir) = cache_dir else {
        return usage_error("cache needs --cache-dir DIR");
    };
    if (keep_generations.is_some() || max_age_secs.is_some()) && action != "gc" {
        return usage_error("--keep-generations/--max-age-secs only apply to gc");
    }
    let store = octopocs::BlobStore::open(&dir);
    let dir = dir.display();
    if store.is_degraded() {
        eprintln!("error: {dir} is not usable as a cache directory");
        return Ok(ExitCode::from(2));
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
            Ok(ExitCode::SUCCESS)
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
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
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
            Ok(ExitCode::SUCCESS)
        }
    }
}

// ---------------------------------------------------------------------------
// Service client subcommands: thin drivers of a running `octopocsd`
// daemon over the `octo-serve` wire protocol (see docs/service.md).

/// Connects to the daemon the endpoint flags name; a bad endpoint or a
/// failed connection is exit 3.
fn connect(endpoint: &EndpointArgs) -> Result<Client, ExitCode> {
    endpoint
        .endpoint()
        .and_then(|endpoint| Client::connect(&endpoint))
        .map_err(|e| cli::error([e]))
}

/// Prints an unexpected daemon reply (or transport error) and returns
/// exit code `code`.
fn bad_reply(reply: Result<Response, String>, code: u8) -> ExitCode {
    match reply {
        Ok(other) => eprintln!("error: unexpected response {}", other.render()),
        Err(e) => eprintln!("error: {e}"),
    }
    ExitCode::from(code)
}

/// The `octopocs submit` subcommand: admit jobs into a running daemon.
/// Exit 0 = every job accepted, 1 = at least one rejected (backpressure
/// or invalid), 3 = usage or connection error.
fn submit_main(argv: &[String]) -> Exit {
    let (mut corpus, mut scan) = (false, false);
    let (mut s_path, mut t_path, mut poc_path) = (String::new(), String::new(), String::new());
    let mut shared: Vec<String> = Vec::new();
    let mut target_paths: Vec<String> = Vec::new();
    let mut params = CloneParams::default();
    let mut priority: Option<ServePriority> = None;
    let mut endpoint = EndpointArgs::default();
    cli::parse_flags(argv, "submit flag", USAGE, |flag, cur| {
        match flag {
            "--corpus" => corpus = true,
            "--scan" => scan = true,
            "--s" => s_path = cur.value(flag)?,
            "--t" => t_path = cur.value(flag)?,
            "--poc" => poc_path = cur.value(flag)?,
            "--shared" => shared = cli::split_shared(&cur.value(flag)?),
            "--target" => target_paths.push(cur.value(flag)?),
            "--priority" => {
                priority = Some(
                    ServePriority::parse(&cur.value(flag)?)
                        .map_err(|e| format!("bad {flag}: {e}"))?,
                )
            }
            _ => {
                return Ok(cli::endpoint_flags(flag, cur, &mut endpoint)?
                    || cli::clone_flags(flag, cur, &mut params)?)
            }
        }
        Ok(true)
    })?;
    let single = !s_path.is_empty() && !scan;
    if usize::from(corpus) + usize::from(scan) + usize::from(single) != 1 {
        return usage_error(
            "exactly one of --corpus, --scan, or (--s/--t/--poc/--shared) is required",
        );
    }
    // Corpus/scan expansions default to bulk; a single pair is a human
    // waiting and defaults to interactive.
    let (jobs, default_priority) = if corpus {
        (octopocs::corpus_jobs(), ServePriority::Bulk)
    } else if scan {
        if s_path.is_empty() || poc_path.is_empty() || target_paths.is_empty() {
            return usage_error("--scan needs --s, --poc and at least one --target");
        }
        let (sources, targets) = cli::load_scan_inputs(&s_path, &poc_path, &target_paths)
            .map_err(|e| cli::error([e]))?;
        let expansion = octopocs::expand_scan(&sources, &targets, &params);
        (expansion.jobs, ServePriority::Bulk)
    } else {
        if t_path.is_empty() || poc_path.is_empty() || shared.is_empty() {
            return usage_error("submit needs --s, --t, --poc and --shared");
        }
        let (s, t, poc) = cli::load_pair(&s_path, &t_path, &poc_path).map_err(cli::error)?;
        let name = format!("{s_path} => {t_path}");
        let job = BatchJob {
            name,
            s,
            t,
            poc,
            shared,
        };
        (vec![job], ServePriority::Interactive)
    };
    let priority = priority.unwrap_or(default_priority);

    let mut client = connect(&endpoint)?;
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
            Err(e) => return Err(cli::error([e])),
        }
    }
    if refused > 0 {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The flags of the small client subcommands.
#[derive(Default)]
struct ClientArgs {
    endpoint: EndpointArgs,
    id: Option<u64>,
    metrics_json: Option<String>,
    wait: bool,
    verdicts_json: bool,
    shutdown: bool,
}

/// Parses the flags of `status`, `watch`, `results` or `drain`, each of
/// which takes `--id` and the endpoint flags plus its own.
fn parse_client_args(argv: &[String], subcommand: &str) -> Result<ClientArgs, ExitCode> {
    let mut args = ClientArgs::default();
    cli::parse_flags(argv, &format!("{subcommand} flag"), USAGE, |flag, cur| {
        match flag {
            "--id" if matches!(subcommand, "status" | "watch") => args.id = Some(cur.parse(flag)?),
            "--metrics-json" if subcommand == "status" => {
                args.metrics_json = Some(cur.value(flag)?)
            }
            "--wait" if subcommand == "results" => args.wait = true,
            "--verdicts-json" if subcommand == "results" => args.verdicts_json = true,
            "--shutdown" if subcommand == "drain" => args.shutdown = true,
            _ => return cli::endpoint_flags(flag, cur, &mut args.endpoint),
        }
        Ok(true)
    })?;
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
fn status_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "status")?;
    let mut client = connect(&args.endpoint)?;
    if args.metrics_json.is_some() {
        match client.request(&Request::Metrics) {
            Ok(Response::Metrics { body }) => {
                write_file(&args.metrics_json, || body)?;
            }
            reply => return Err(bad_reply(reply, 3)),
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
            Ok(ExitCode::SUCCESS)
        }
        Ok(Response::Job(j)) => {
            println!("{}", render_job_status(&j));
            if let Some(pm) = &j.post_mortem {
                for line in pm.lines() {
                    println!("  {line}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Ok(Response::Error { message }) => {
            eprintln!("error: {message}");
            Ok(ExitCode::from(1))
        }
        reply => Err(bad_reply(reply, 3)),
    }
}

/// The `octopocs watch` subcommand: stream one job's events as JSON
/// lines until its verdict. Exit 0 = done line received, 2 = the stream
/// ended in an error line, 3 = usage or connection error.
fn watch_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "watch")?;
    let Some(id) = args.id else {
        return usage_error("watch needs --id");
    };
    let mut client = connect(&args.endpoint)?;
    client
        .send(&Request::Watch { id })
        .map_err(|e| cli::error([e]))?;
    loop {
        match client.recv() {
            Ok(Some(resp @ Response::Event(_))) => println!("{}", resp.render()),
            Ok(Some(resp @ Response::Done { .. })) => {
                println!("{}", resp.render());
                return Ok(ExitCode::SUCCESS);
            }
            Ok(Some(Response::Error { message })) => {
                eprintln!("error: {message}");
                return Ok(ExitCode::from(2));
            }
            Ok(Some(other)) => return Err(bad_reply(Ok(other), 2)),
            Ok(None) => {
                eprintln!("error: daemon closed the connection");
                return Ok(ExitCode::from(2));
            }
            Err(e) => return Err(bad_reply(Err(e), 2)),
        }
    }
}

/// The `octopocs results` subcommand. `--wait` blocks until the queue
/// is empty; `--verdicts-json` prints the same stable document as
/// `octopocs batch --verdicts-json`. Exit 0 = answered, 3 = usage or
/// connection error.
fn results_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "results")?;
    let mut client = connect(&args.endpoint)?;
    if args.wait {
        loop {
            match client.request(&Request::Status { id: None }) {
                Ok(Response::Status(s)) => {
                    if s.queued_interactive + s.queued_bulk + s.running == 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                reply => return Err(bad_reply(reply, 3)),
            }
        }
    }
    match client.request(&Request::Results) {
        Ok(Response::Results { jobs }) => {
            if args.verdicts_json {
                // Byte-identical to `octopocs batch --verdicts-json`
                // (and the CI golden): rows in submission order.
                let rows: Vec<(&str, octo_serve::VerdictSummary)> = jobs
                    .iter()
                    .map(|row| (row.name.as_str(), row.verdict.clone()))
                    .collect();
                print!("{}", octopocs::render_verdict_rows(&rows));
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
            Ok(ExitCode::SUCCESS)
        }
        reply => Err(bad_reply(reply, 3)),
    }
}

/// The `octopocs drain` subcommand: ask the daemon to finish queued
/// work and exit (`--shutdown` cancels in-flight jobs instead). Exit
/// 0 = acknowledged, 3 = usage or connection error.
fn drain_main(argv: &[String]) -> Exit {
    let args = parse_client_args(argv, "drain")?;
    let mut client = connect(&args.endpoint)?;
    let request = if args.shutdown {
        Request::Shutdown
    } else {
        Request::Drain
    };
    match client.request(&request) {
        Ok(Response::Draining { pending }) => {
            println!("draining; {pending} job(s) still pending");
            Ok(ExitCode::SUCCESS)
        }
        Ok(Response::ShuttingDown) => {
            println!("shutting down; incomplete jobs will replay from the journal");
            Ok(ExitCode::SUCCESS)
        }
        reply => Err(bad_reply(reply, 3)),
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
fn top_main(argv: &[String]) -> Exit {
    let mut http: Option<String> = None;
    let mut windows: usize = 10;
    let mut json = false;
    cli::parse_flags(argv, "top flag", USAGE, |flag, cur| {
        match flag {
            "--http" => http = Some(cur.value(flag)?),
            "--windows" => windows = cur.count(flag)?,
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(addr) = http else {
        return usage_error("top needs --http ADDR (the daemon's --http address)");
    };
    let (status, body) =
        octo_serve::http_get(&addr, "/metrics/rates", std::time::Duration::from_secs(5))
            .map_err(|e| cli::error([e]))?;
    if status != 200 {
        eprintln!("error: /metrics/rates answered {status}: {}", body.trim());
        return Err(ExitCode::from(3));
    }
    let report = match top_report(&body, windows) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::from(1));
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
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let exit = match argv.first().map(String::as_str) {
        Some("lint") => lint_main(rest),
        Some("clone") => clone_main(rest),
        Some("scan") => scan_main(rest),
        Some("batch") => batch_main(rest),
        Some("cache") => cache_main(rest),
        Some("submit") => submit_main(rest),
        Some("status") => status_main(rest),
        Some("watch") => watch_main(rest),
        Some("results") => results_main(rest),
        Some("drain") => drain_main(rest),
        Some("top") => top_main(rest),
        _ => single_main(&argv),
    };
    exit.unwrap_or_else(|code| code)
}
