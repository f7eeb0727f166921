//! The bridge between the engine and the `octo-serve` daemon layer:
//! [`ServeExecutor`] plugs the batch runtime into
//! [`octo_serve::JobExecutor`], and the spec converters let the client
//! subcommands ship [`BatchJob`]s over the wire.
//!
//! One executor backs one daemon process. It owns a [`BatchRuntime`]
//! (artifact cache, metrics registry, watchdog, retry policy, fault
//! plan) shared across every job the daemon ever runs — so a re-scan of
//! an already-prepared source hits the cache exactly as it would inside
//! one `octopocs batch` invocation — plus the run-level cancel token
//! that `shutdown` (or SIGINT/SIGTERM) fires to wind in-flight jobs
//! down as [`FailureReason::Cancelled`].

use std::sync::Mutex;
use std::time::Instant;

use octo_ir::parse::parse_program;
use octo_ir::printer::print_program;
use octo_obs::MetricsRegistry;
use octo_poc::PocFile;
use octo_sched::{CancelToken, EventSink};
use octo_serve::proto::{from_hex, to_hex};
use octo_serve::{ExecJob, ExecOutcome, JobExecutor, JobSpec, Priority, VerdictSummary};

use crate::batch::{BatchJob, BatchOptions, BatchRuntime};
use crate::config::PipelineConfig;
use crate::verdict::{FailureReason, Verdict};

/// Converts a wire spec into an owned batch job. Fails on unparsable
/// programs or hex (the daemon validates at admission, so reaching this
/// error from a worker indicates a journal edited by hand).
pub fn spec_to_batch_job(spec: &JobSpec) -> Result<BatchJob, String> {
    let s = parse_program(&spec.s_text).map_err(|e| format!("program `s`: {e}"))?;
    let t = parse_program(&spec.t_text).map_err(|e| format!("program `t`: {e}"))?;
    let poc = PocFile::from(from_hex(&spec.poc_hex)?);
    Ok(BatchJob {
        name: spec.name.clone(),
        s,
        t,
        poc,
        shared: spec.shared.clone(),
    })
}

/// Converts an owned batch job into its wire spec.
pub fn batch_job_to_spec(job: &BatchJob, priority: Priority) -> JobSpec {
    JobSpec {
        name: job.name.clone(),
        priority,
        s_text: print_program(&job.s),
        t_text: print_program(&job.t),
        poc_hex: to_hex(job.poc.bytes()),
        shared: job.shared.clone(),
    }
}

/// The daemon's verification engine: the full OctoPoCs pipeline behind
/// one long-lived [`BatchRuntime`].
pub struct ServeExecutor {
    runtime: BatchRuntime,
    cancel: CancelToken,
    /// Post-mortems are engine-side state; keep the last failure per
    /// run_job call observable through [`ExecOutcome`] only.
    errors: Mutex<Vec<String>>,
}

impl ServeExecutor {
    /// An executor running `config` under `options`. The options'
    /// run-level cancel token is created if absent so
    /// [`JobExecutor::cancel_all`] always has something to fire.
    pub fn new(config: &PipelineConfig, options: &BatchOptions) -> ServeExecutor {
        let mut options = options.clone();
        let cancel = options.cancel.clone().unwrap_or_default();
        options.cancel = Some(cancel.clone());
        ServeExecutor {
            runtime: BatchRuntime::new(config, &options),
            cancel,
            errors: Mutex::new(Vec::new()),
        }
    }

    /// The run-level cancel token (wire this to the drain signals).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Refreshes the derived gauges (cache, uptime, watchdog) and
    /// snapshots the registry into `recorder` — the octo-scope rate
    /// sampler calls this on its interval so `/metrics/rates` windows
    /// reflect live figures.
    pub fn sample_rates(&self, recorder: &octo_obs::RateRecorder, elapsed_micros: u64) {
        self.runtime.refresh_metrics();
        recorder.record(self.runtime.metrics(), elapsed_micros);
    }

    /// Conversion errors encountered by workers (empty in healthy
    /// operation; populated only from hand-corrupted journals).
    pub fn conversion_errors(&self) -> Vec<String> {
        self.errors.lock().expect("errors poisoned").clone()
    }
}

impl JobExecutor for ServeExecutor {
    fn run(&self, job: &ExecJob, worker: usize, sink: &dyn EventSink) -> ExecOutcome {
        let batch_job = match spec_to_batch_job(&job.spec) {
            Ok(batch_job) => batch_job,
            Err(e) => {
                self.errors
                    .lock()
                    .expect("errors poisoned")
                    .push(format!("job {}: {e}", job.id));
                return ExecOutcome {
                    verdict: VerdictSummary {
                        verdict: "Failure".to_string(),
                        poc_generated: false,
                        verified: false,
                        attempts: 1,
                        quarantined: false,
                    },
                    post_mortem: Some(format!("unrunnable job: {e}")),
                    cancelled: false,
                };
            }
        };
        // The daemon already measured queue wait; from the runtime's
        // point of view the job starts now.
        let entry = self
            .runtime
            .run_job(job.id as usize, worker, &batch_job, Instant::now(), sink);
        let cancelled = matches!(
            &entry.report.verdict,
            Verdict::Failure {
                reason: FailureReason::Cancelled
            }
        );
        ExecOutcome {
            verdict: entry.summary(),
            post_mortem: entry
                .report
                .post_mortem
                .as_ref()
                .map(|pm| pm.render_human()),
            cancelled,
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        self.runtime.metrics()
    }

    fn metrics_json(&self) -> String {
        self.runtime.refresh_metrics();
        self.runtime.metrics().render_json()
    }

    fn metrics_prometheus(&self) -> String {
        self.runtime.refresh_metrics();
        self.runtime.metrics().render_prometheus()
    }

    fn cancel_all(&self) {
        self.cancel.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_serve::daemon::Daemon;
    use octo_serve::SubmitError;
    use std::sync::Arc;

    const S: &str = "func main() {\nentry:\n  fd = open\n  b = getc fd\n  call shared(b)\n  \
                     halt 0\n}\nfunc shared(v) {\nentry:\n  c = eq v, 0x41\n  br c, boom, fine\n\
                     boom:\n  trap 1\nfine:\n  ret\n}\n";

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority: Priority::Bulk,
            s_text: S.to_string(),
            t_text: S.to_string(),
            poc_hex: "41".to_string(),
            shared: vec!["shared".to_string()],
        }
    }

    #[test]
    fn specs_round_trip_through_batch_jobs() {
        let job = spec_to_batch_job(&spec("rt")).unwrap();
        let back = batch_job_to_spec(&job, Priority::Bulk);
        assert_eq!(back.name, "rt");
        assert_eq!(back.poc_hex, "41");
        assert_eq!(back.shared, vec!["shared".to_string()]);
        // Printed programs re-parse to the same batch job.
        let again = spec_to_batch_job(&back).unwrap();
        assert_eq!(print_program(&again.s), print_program(&job.s));
    }

    #[test]
    fn executor_runs_a_real_job_through_the_daemon() {
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("pair")).unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 1);
        // Identical S and T: the original PoC triggers directly.
        assert_eq!(rows[0].verdict.verdict, "Type-I");
        assert!(rows[0].verdict.poc_generated);
        assert!(executor.conversion_errors().is_empty());
        // The serve_* metrics live in the same registry as the batch
        // metrics, so one scrape carries both.
        let names = executor.registry().names();
        assert!(names.iter().any(|n| n == "serve_admissions_total"));
        assert!(names.iter().any(|n| n == "batch_jobs_total"));
    }

    #[test]
    fn cancel_all_drains_queued_jobs_as_interrupted() {
        let executor = Arc::new(ServeExecutor::new(
            &PipelineConfig::default(),
            &BatchOptions {
                workers: 1,
                ..BatchOptions::default()
            },
        ));
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("doomed")).unwrap();
        daemon.shutdown();
        let workers = daemon.start_workers(1);
        for w in workers {
            w.join().unwrap();
        }
        // Shutdown before any worker started: the job is never run and
        // never journaled as done.
        assert!(daemon.results().is_empty());
        assert!(executor.cancel_token().is_cancelled());
        // A fresh submit is refused while draining.
        assert!(matches!(
            daemon.submit(spec("late")),
            Err(SubmitError::Rejected(_))
        ));
    }
}
