//! `octopocsd` — the long-running OctoPoCs verification daemon.
//!
//! ```text
//! octopocsd [--socket PATH] [--tcp ADDR] [--http ADDR] [--journal PATH]
//!           [--cache-dir DIR] [--workers N] [--capacity N] [--deadline-secs S]
//!           [--retry N] [--retry-backoff-ms MS] [--watchdog-quiet-secs S]
//!           [--fault-plan FILE] [--theta N] [--accelerate-loops]
//!           [--static-cfg] [--context-free] [--prescreen]
//!           [--metrics-json PATH]
//! ```
//!
//! The daemon listens on a Unix socket (default `octopocsd.sock`, plus
//! an optional TCP address), accepts line-delimited JSON requests (see
//! `docs/service.md`), and runs every admitted `(S, T, poc, ℓ)` job on
//! the shared batch runtime — artifact cache, metrics registry, retry
//! policy, watchdog, and fault plan all behave exactly as they do under
//! `octopocs batch` (the flags they share are parsed by the same
//! `octopocs::cli` groups). `--cache-dir` backs the prefix cache with a
//! disk blob store, as under `octopocs batch`. Jobs are journaled to `--journal` (default
//! `octopocsd.journal`) before they are enqueued and their verdicts
//! journaled on completion, so killing the daemon mid-batch and
//! restarting it on the same journal resubmits the incomplete jobs
//! under their original ids and converges to the same verdicts.
//!
//! Admission is bounded: at most `--capacity` jobs may wait (running
//! jobs do not count), and a submission over the bound is answered with
//! an explicit `rejected` line — the daemon never blocks a client on a
//! full queue. Interactive-priority jobs are always dequeued ahead of
//! bulk jobs.
//!
//! With `--http ADDR` the daemon additionally serves octo-scope, the
//! read-only HTTP observability plane (`/healthz`, `/metrics`,
//! `/metrics/rates`, `/jobs`, `/jobs/<id>` — see
//! `docs/observability.md`), and a sampler thread snapshots the metrics
//! registry once a second into a 64-window rate ring.
//!
//! Lifecycle: a `drain` request stops admissions, finishes the queue,
//! and exits; a `shutdown` request (or SIGINT/SIGTERM) also cancels
//! in-flight jobs cooperatively — they come back as incomplete, not as
//! verdicts. A second signal force-exits with status 130. On a clean
//! exit the daemon writes `--metrics-json` (when given) and removes the
//! socket file. Exit code 0 = clean drain/shutdown via the protocol,
//! 130 = exit forced or initiated by a signal, 3 = usage or startup
//! error.

use std::process::ExitCode;
use std::sync::Arc;

use octo_sched::{drain_signal_count, install_drain_signals, CancelToken};
use octo_serve::{serve, Daemon, Journal, ServerConfig};
use octopocs::batch::BatchOptions;
use octopocs::{cli, PipelineConfig, ServeExecutor};

const USAGE: &str = "usage: octopocsd [--socket PATH] [--tcp ADDR] [--http ADDR] [--journal PATH] \
     [--cache-dir DIR] [--workers N] \
     [--capacity N] [--deadline-secs S] [--retry N] [--retry-backoff-ms MS] \
     [--watchdog-quiet-secs S] [--fault-plan FILE] [--theta N] [--accelerate-loops] \
     [--static-cfg] [--context-free] [--prescreen] [--metrics-json PATH]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut socket = std::path::PathBuf::from("octopocsd.sock");
    let mut tcp: Option<String> = None;
    let mut http: Option<String> = None;
    let mut journal_path = std::path::PathBuf::from("octopocsd.journal");
    let mut capacity: usize = 64;
    let mut options = BatchOptions::default();
    let mut config = PipelineConfig::default();
    let mut metrics_json: Option<String> = None;
    if let Err(code) = cli::parse_flags(&argv, "octopocsd flag", USAGE, |flag, cur| {
        match flag {
            "--socket" => socket = cur.value(flag)?.into(),
            "--tcp" => tcp = Some(cur.value(flag)?),
            "--http" => http = Some(cur.value(flag)?),
            "--journal" => journal_path = cur.value(flag)?.into(),
            "--capacity" => capacity = cur.count(flag)?,
            "--metrics-json" => metrics_json = Some(cur.value(flag)?),
            _ => {
                return Ok(cli::run_flags(flag, cur, &mut options)?
                    || cli::engine_flags(flag, cur, &mut config)?
                    || cli::robustness_flags(flag, cur, &mut options)?)
            }
        }
        Ok(true)
    }) {
        return code;
    }

    // The run-level drain token: SIGINT/SIGTERM fire it (the second
    // signal force-exits), a `shutdown` request fires it through the
    // executor. Every in-flight job's token is derived from it.
    let drain = CancelToken::new();
    options.cancel = Some(drain.clone());
    install_drain_signals(&drain);

    let (journal, replay) = match Journal::open(&journal_path) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("octopocsd: {e}");
            return ExitCode::from(3);
        }
    };
    let replayed = replay.incomplete().len();
    let restored = replay.verdicts.len();

    let executor = Arc::new(ServeExecutor::new(&config, &options));
    let daemon = Daemon::new(executor.clone(), Some(journal), capacity);
    daemon.restore(replay);
    if replayed > 0 || restored > 0 {
        eprintln!(
            "octopocsd: journal {}: {restored} finished job(s) restored, \
             {replayed} incomplete job(s) resubmitted",
            journal_path.display()
        );
    }
    let workers = daemon.start_workers(options.workers);
    eprintln!(
        "octopocsd: listening on {}{} ({} worker(s), capacity {capacity})",
        socket.display(),
        tcp.as_deref()
            .map(|a| format!(" and tcp {a}"))
            .unwrap_or_default(),
        options.workers
    );

    // octo-scope: the HTTP observability plane plus its rate sampler.
    // Both threads stop on drain or daemon completion and are detached —
    // they hold only Arcs and never touch the JSON-protocol listeners.
    if let Some(addr) = &http {
        let listener = match octo_serve::bind_http(addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("octopocsd: {e}");
                return ExitCode::from(3);
            }
        };
        let bound = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        eprintln!("octopocsd: observability plane on http://{bound}");
        let rates = Arc::new(octo_obs::RateRecorder::new(64));
        {
            let rates = Arc::clone(&rates);
            let executor = Arc::clone(&executor);
            let stop = drain.clone();
            let daemon = daemon.clone();
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                while !stop.is_cancelled() && !daemon.finished() {
                    executor.sample_rates(&rates, started.elapsed().as_micros() as u64);
                    // Sub-second sleeps so shutdown is prompt.
                    for _ in 0..10 {
                        if stop.is_cancelled() || daemon.finished() {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                }
            });
        }
        {
            let stop = drain.clone();
            let daemon = daemon.clone();
            std::thread::spawn(move || {
                octo_serve::serve_http(&daemon, Some(rates), listener, &stop);
            });
        }
    }

    let server_config = ServerConfig {
        socket: socket.clone(),
        tcp,
    };
    if let Err(e) = serve(&daemon, &server_config, &drain) {
        eprintln!("octopocsd: {e}");
        return ExitCode::from(3);
    }
    for handle in workers {
        let _ = handle.join();
    }
    // Journal hygiene: an orderly exit rewrites the journal down to
    // the jobs a restart would resubmit, so a long-lived daemon's
    // journal does not grow without bound across restarts.
    match daemon.compact_journal() {
        Some(Ok(kept)) => eprintln!(
            "octopocsd: journal {} compacted ({kept} incomplete job(s) kept)",
            journal_path.display()
        ),
        Some(Err(e)) => eprintln!("octopocsd: {e}"),
        None => {}
    }
    for error in executor.conversion_errors() {
        eprintln!("octopocsd: {error}");
    }
    if let Some(path) = metrics_json {
        if let Err(e) = std::fs::write(&path, daemon.metrics_json()) {
            eprintln!("octopocsd: error writing {path}: {e}");
        }
    }
    let status = daemon.status();
    eprintln!(
        "octopocsd: exiting ({} job(s) done, {} left for replay)",
        status.done,
        status.queued_interactive + status.queued_bulk + status.running
    );
    if drain_signal_count() > 0 {
        ExitCode::from(130)
    } else {
        ExitCode::SUCCESS
    }
}
