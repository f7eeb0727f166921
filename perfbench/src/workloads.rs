//! The two workloads. Each generates its inputs from the seed, times
//! set-up several times, measures with tracing off for the requested
//! seconds (or, in a traced run, hands its job set to [`crate::layers`]),
//! and checks every verdict against the hand-written answer.

use std::path::PathBuf;
use std::time::Instant;

use octo_clone::CloneParams;
use octo_corpus::{all_pairs, Expected};
use octopocs::{
    run_batch, run_scan, BatchJob, BatchOptions, PipelineConfig, ScanSource, ScanTarget,
};

use crate::check::Tally;
use crate::gen::{scan_inputs, table2_cases, Case};
use crate::layers::{traced, TracePlan};
use crate::pass::PassLog;
use crate::stats::{median, metric, peak_rss_mb, percentile, Metric};

/// The set-up of `table2` and `scan` is their input generation: parsing
/// and validating the corpus programs (`all_pairs`) and applying the
/// seeded clone transforms, a few milliseconds. It is timed this many
/// times before every pass, so the reported median spans the whole run
/// rather than one moment of the machine.
const SETUP_PER_PASS: usize = 3;

/// Workers of the `scan` workload (`table2` runs at 1).
const WORKERS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// The `octopocsd` binary.
    pub daemon: PathBuf,
    /// Scratch directory (created, and removed at the end).
    pub tmp: PathBuf,
    /// Directory the traced run writes its span file into.
    pub out: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    /// Job accounting and gate failures.
    pub tally: Tally,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub human: Vec<String>,
}

/// Runs the named workload.
///
/// # Errors
/// On an unknown workload or an I/O or daemon failure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "table2" => table2(args),
        "scan" => scan(args),
        other => Err(format!("unknown workload `{other}` (table2, scan)")),
    }
}

/// Runs `f`, appending its wall seconds to `times`.
fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    times.push(start.elapsed().as_secs_f64());
    value
}

/// Closed-loop passes over a batch until `seconds` are measured; each
/// pass is run by `pass`, which returns its wall time and the per-job
/// verdict times (s from the pass start) and checks its verdicts into the
/// tally.
///
/// Every job is due at the pass start, so the pass wall is the time to
/// the last verdict. Each figure reported is the median over passes; the
/// p50 verdict time (human output only) comes from each pass's raw
/// verdict times.
fn batch_passes(
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut(&mut Tally) -> (f64, Vec<f64>),
) -> (Vec<Metric>, String) {
    // One unmeasured pass first: page faults and lazy set-up land there.
    pass(tally);
    let mut walls = Vec::new();
    let mut p50s = Vec::new();
    let mut samples = 0;
    let measured = Instant::now();
    while walls.len() < 3 || measured.elapsed().as_secs_f64() < seconds {
        let (wall, lat) = pass(tally);
        walls.push(wall);
        p50s.push(1e3 * percentile(&lat, 0.5));
        samples += lat.len();
    }
    let metrics = vec![
        metric("pass_wall_s", median(&walls), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ];
    let line = format!(
        "{} measured passes, {samples} verdict times; pass wall min {:.3} s max {:.3} s; \
         median p50 verdict time {:.1} ms",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&p50s)
    );
    (metrics, line)
}

fn answers(cases: &[Case]) -> (Vec<BatchJob>, Vec<Option<Expected>>) {
    cases
        .iter()
        .map(|c| (c.job.clone(), Some(c.expected)))
        .unzip()
}

fn table2(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let cases = timed(&mut setup, || table2_cases(args.seed));
    let (jobs, expected) = answers(&cases);
    let mut tally = Tally::default();
    if args.trace {
        let pairs = all_pairs();
        let sources: Vec<ScanSource> = pairs
            .iter()
            .map(|p| ScanSource {
                name: p.display_name(),
                s: p.s.clone(),
                poc: p.poc.clone(),
            })
            .collect();
        let targets: Vec<ScanTarget> = jobs
            .iter()
            .map(|j| ScanTarget {
                name: j.name.clone(),
                t: j.t.clone(),
            })
            .collect();
        let positives: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, p)| (i, i, p.shared.clone()))
            .collect();
        return traced_outcome(
            args,
            &TracePlan {
                jobs: &jobs,
                answers: &expected,
                workers: 1,
                sources: &sources,
                targets: &targets,
                positives: &positives,
                daemon: &args.daemon,
                tmp: &args.tmp,
                budget: args.seconds * 0.6,
                spans_out: &spans_path(args),
            },
        );
    }
    let config = PipelineConfig::default();
    let options = BatchOptions {
        workers: 1,
        ..BatchOptions::default()
    };
    let (measured, line) = batch_passes(args.seconds, &mut tally, |tally| {
        for _ in 0..SETUP_PER_PASS {
            std::hint::black_box(timed(&mut setup, || table2_cases(args.seed)));
        }
        let log = PassLog::start();
        let report = run_batch(&jobs, &config, &options, &log);
        let wall = log.elapsed();
        for (entry, want) in report.entries.iter().zip(&expected) {
            tally.job(
                &entry.name,
                entry.report.verdict.type_label(),
                entry.quarantined,
                *want,
            );
        }
        (wall, finish_times(&log, jobs.len(), tally))
    });
    let mut metrics = vec![metric("setup_s", median(&setup), "s")];
    metrics.extend(measured);
    Ok(Outcome {
        tally,
        metrics,
        human: vec![
            format!("table2: 15 pairs per pass at 1 worker, seed {}", args.seed),
            line,
        ],
    })
}

/// Per-job verdict times of a pass; a job with no finish event is lost.
fn finish_times(log: &PassLog, jobs: usize, tally: &mut Tally) -> Vec<f64> {
    let rows = log.rows();
    (0..jobs)
        .filter_map(|i| {
            let at = rows.get(i).and_then(|r| r.finished);
            if at.is_none() {
                tally.fail(format!("job {i}: no finish event"));
            }
            at
        })
        .collect()
}

fn scan(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let (sources, fleet) = timed(&mut setup, || scan_inputs(args.seed));
    let targets: Vec<ScanTarget> = fleet.iter().map(|f| f.target.clone()).collect();
    let pairs = all_pairs();
    let positives: Vec<(usize, usize, Vec<String>)> = fleet
        .iter()
        .enumerate()
        .filter(|(_, f)| f.positive)
        .map(|(ti, f)| {
            let si = pairs
                .iter()
                .position(|p| p.idx == f.base_idx)
                .expect("fleet base row");
            (si, ti, pairs[si].shared.clone())
        })
        .collect();
    // The known answer of a job is its row's when the job pairs a source
    // with a clone of its own target; cross-row jobs have none.
    let answer_of = |name: &str| -> Option<Expected> {
        let (src, tgt) = name.split_once(" => ")?;
        let si = sources.iter().position(|s| s.name == src)?;
        let f = fleet.iter().find(|f| f.target.name == tgt)?;
        (f.positive && pairs[si].idx == f.base_idx).then_some(pairs[si].expected)
    };
    let params = CloneParams::default();
    let config = PipelineConfig::default();
    let mut tally = Tally::default();

    if args.trace {
        let expansion = octopocs::expand_scan(&sources, &targets, &params);
        check_expansion(&expansion.jobs, &fleet, &positives, &sources, &mut tally);
        let expected: Vec<Option<Expected>> =
            expansion.jobs.iter().map(|j| answer_of(&j.name)).collect();
        let mut outcome = traced_outcome(
            args,
            &TracePlan {
                jobs: &expansion.jobs,
                answers: &expected,
                workers: WORKERS,
                sources: &sources,
                targets: &targets,
                positives: &positives,
                daemon: &args.daemon,
                tmp: &args.tmp,
                budget: args.seconds * 0.5,
                spans_out: &spans_path(args),
            },
        )?;
        outcome.tally.merge(tally);
        return Ok(outcome);
    }

    let mut pass_no = 0;
    let (measured, line) = batch_passes(args.seconds, &mut tally, |tally| {
        for _ in 0..SETUP_PER_PASS {
            std::hint::black_box(timed(&mut setup, || scan_inputs(args.seed)));
        }
        pass_no += 1;
        let cache_dir = args.tmp.join(format!("scan-cache-{pass_no}"));
        let options = BatchOptions {
            workers: WORKERS,
            cache_dir: Some(cache_dir.clone()),
            ..BatchOptions::default()
        };
        let log = PassLog::start();
        let report = run_scan(&sources, &targets, &params, &config, &options, &log);
        let wall = log.elapsed();
        check_expansion(&report.expansion.jobs, &fleet, &positives, &sources, tally);
        for entry in &report.batch.entries {
            tally.job(
                &entry.name,
                entry.report.verdict.type_label(),
                entry.quarantined,
                answer_of(&entry.name),
            );
        }
        if let Err(e) = std::fs::remove_dir_all(&cache_dir) {
            tally.fail(format!("remove {}: {e}", cache_dir.display()));
        }
        (wall, finish_times(&log, report.batch.entries.len(), tally))
    });
    let mut metrics = vec![metric("setup_s", median(&setup), "s")];
    metrics.extend(measured);
    Ok(Outcome {
        tally,
        metrics,
        human: vec![
            format!(
                "scan: {} sources x {} targets at {WORKERS} workers, seed {}",
                sources.len(),
                targets.len(),
                args.seed
            ),
            line,
        ],
    })
}

/// The scan gate on retrieval: every positive expands into a job with its
/// whole ℓ, and no decoy expands into any job.
fn check_expansion(
    jobs: &[BatchJob],
    fleet: &[crate::gen::FleetTarget],
    positives: &[(usize, usize, Vec<String>)],
    sources: &[ScanSource],
    tally: &mut Tally,
) {
    for (si, ti, shared) in positives {
        let name = format!("{} => {}", sources[*si].name, fleet[*ti].target.name);
        if !jobs
            .iter()
            .any(|j| j.name == name && shared.iter().all(|f| j.shared.contains(f)))
        {
            tally.fail(format!("positive not retrieved: {name}"));
        }
    }
    for f in fleet.iter().filter(|f| !f.positive) {
        let suffix = format!(" => {}", f.target.name);
        for j in jobs.iter().filter(|j| j.name.ends_with(&suffix)) {
            tally.fail(format!("decoy expanded into a job: {}", j.name));
        }
    }
}

fn spans_path(args: &Args) -> PathBuf {
    args.out
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn traced_outcome(args: &Args, plan: &TracePlan<'_>) -> Result<Outcome, String> {
    let (metrics, tally, mut human) = traced(plan)?;
    human.insert(
        0,
        format!("{} traced run, seed {}", args.workload, args.seed),
    );
    Ok(Outcome {
        tally,
        metrics,
        human,
    })
}
