//! A spawned `octopocsd` and the open-loop client that drives it.
//!
//! The client uses two threads and two connections. The submitter sends
//! each job when it is due. The observer polls `status <id>` for every
//! outstanding job that has left the queue, pausing [`OBSERVER_PAUSE`]
//! between cycles, so a verdict is seen within about one cycle of being
//! recorded and a slow job never holds up the jobs behind it. (`watch`
//! polls every 20 ms and `results --wait` every 100 ms.)

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use octo_corpus::Expected;
use octo_serve::{Client, Endpoint, JobPhase, JobSpec, Request, Response};

use crate::check::Tally;

/// Pause between observer cycles.
const OBSERVER_PAUSE: Duration = Duration::from_millis(1);

/// How long a phase may take to drain after its last job was due before
/// the outstanding jobs count as unfinished.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// A running `octopocsd` on a Unix socket in its own directory.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `bin` with `workers` workers in `dir` (created) and waits
    /// until it answers `ping`.
    ///
    /// # Errors
    /// When the binary cannot be started or never answers.
    pub fn spawn(bin: &Path, dir: &Path, workers: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let bin = std::fs::canonicalize(bin).map_err(|e| format!("{}: {e}", bin.display()))?;
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(bin)
            .args(["--workers", &workers.to_string()])
            .args(["--socket", "d.sock", "--journal", "d.journal"])
            .args(["--capacity", "1000000"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn octopocsd: {e}"))?;
        // The socket path is relative to the benchmark's working directory
        // and so stays short of the Unix socket path limit.
        let mut daemon = Daemon {
            child,
            socket: dir.join("d.sock"),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(mut client) = daemon.connect() {
                if let Ok(Response::Pong) = client.request(&Request::Ping) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("octopocsd exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Err("octopocsd did not answer ping within 30 s".to_string())
    }

    /// A fresh connection.
    ///
    /// # Errors
    /// When the daemon does not accept it.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&Endpoint::Unix(self.socket.clone()))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.request(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills what is left.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Submit request → `accepted` round trips, ms.
    pub submit_rtt_ms: Vec<f64>,
    /// How late each submission left against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Status requests the observer sent.
    pub observer_requests: u64,
    /// Seconds the observer ran.
    pub observer_secs: f64,
    /// Verdict gate and job accounting.
    pub tally: Tally,
}

struct Outstanding {
    id: u64,
    job: usize,
}

/// Runs one open-loop phase: submits `pool[i]` at `i × interval` and
/// waits until every admitted job is seen finished (or the drain limit
/// passes). Each verdict is checked against `answers[i]`; a job without
/// an answer only has to finish without quarantine.
pub fn open_loop(
    daemon: &Daemon,
    pool: &[JobSpec],
    answers: &[Option<Expected>],
    interval: Duration,
) -> Result<PhaseResult, String> {
    let mut submitter = daemon.connect()?;
    let mut observer = daemon.connect()?;
    let outstanding: Mutex<Vec<Outstanding>> = Mutex::new(Vec::new());
    let submitting = AtomicBool::new(true);
    // A short lead so the first due time is not already in the past.
    let origin = Instant::now() + Duration::from_millis(2);
    let last_due = origin + interval * pool.len().saturating_sub(1) as u32;

    std::thread::scope(|scope| {
        let observe = scope.spawn(|| {
            observe(
                &mut observer,
                pool,
                answers,
                &outstanding,
                &submitting,
                last_due,
            )
        });
        let mut submit = PhaseResult::default();
        let mut error = None;
        for (job, spec) in pool.iter().enumerate() {
            let due = origin + interval * job as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            submit.late_ms.push(1e3 * (sent - due).as_secs_f64());
            let response = submitter.request(&Request::Submit { job: spec.clone() });
            submit
                .submit_rtt_ms
                .push(1e3 * sent.elapsed().as_secs_f64());
            match response {
                Ok(Response::Accepted { id }) => {
                    outstanding
                        .lock()
                        .expect("outstanding list poisoned")
                        .push(Outstanding { id, job });
                }
                Ok(other) => submit
                    .tally
                    .lost(&spec.name, &format!("refused: {}", other.render())),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        submitting.store(false, Ordering::SeqCst);
        let observed = observe.join().expect("observer thread panicked");
        if let Some(e) = error {
            return Err(e);
        }
        let mut result = observed?;
        result.submit_rtt_ms = submit.submit_rtt_ms;
        result.late_ms = submit.late_ms;
        result.tally.merge(submit.tally);
        Ok(result)
    })
}

fn observe(
    client: &mut Client,
    pool: &[JobSpec],
    answers: &[Option<Expected>],
    outstanding: &Mutex<Vec<Outstanding>>,
    submitting: &AtomicBool,
    last_due: Instant,
) -> Result<PhaseResult, String> {
    let mut result = PhaseResult::default();
    let started = Instant::now();
    loop {
        let batch: Vec<(u64, usize)> = outstanding
            .lock()
            .expect("outstanding list poisoned")
            .iter()
            .map(|o| (o.id, o.job))
            .collect();
        if batch.is_empty() {
            if !submitting.load(Ordering::SeqCst)
                && outstanding.lock().expect("poisoned").is_empty()
            {
                break;
            }
        } else {
            // Every job is submitted in the bulk class, and the daemon
            // dequeues a class in id order: once a job reads `queued`,
            // every later one is queued too, so the cycle stops there.
            // Running jobs are all polled, so a slow one never holds up
            // the jobs behind it.
            let mut done = Vec::new();
            for (id, job) in &batch {
                let response = client.request(&Request::Status { id: Some(*id) })?;
                result.observer_requests += 1;
                let Response::Job(status) = response else {
                    return Err(format!("status {id}: {}", response.render()));
                };
                match status.phase {
                    JobPhase::Done => {
                        let verdict = status
                            .verdict
                            .ok_or_else(|| format!("status {id}: done without a verdict"))?;
                        result.tally.job(
                            &pool[*job].name,
                            &verdict.verdict,
                            verdict.quarantined,
                            answers[*job],
                        );
                        done.push(*id);
                    }
                    JobPhase::Interrupted => {
                        result.tally.lost(&pool[*job].name, "interrupted");
                        done.push(*id);
                    }
                    JobPhase::Running => {}
                    JobPhase::Queued => break,
                }
            }
            outstanding
                .lock()
                .expect("outstanding list poisoned")
                .retain(|o| !done.contains(&o.id));
            if !submitting.load(Ordering::SeqCst) && Instant::now() > last_due + DRAIN_LIMIT {
                for o in outstanding.lock().expect("poisoned").drain(..) {
                    result
                        .tally
                        .lost(&pool[o.job].name, "unfinished at the drain limit");
                }
                break;
            }
        }
        std::thread::sleep(OBSERVER_PAUSE);
    }
    result.observer_secs = started.elapsed().as_secs_f64();
    Ok(result)
}
