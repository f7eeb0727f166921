//! The traced run: per-layer numbers for one workload's job set.
//!
//! Spans are recorded by this file around each call into a layer, as
//! (job, layer, start, end, parent), kept in memory and written out at the
//! end. The pipeline is driven through its public seams in the order
//! `prepare` and `verify_prepared_observed` use them:
//!
//! ```text
//! job
//! ├── ir.parse        parse_program of S and T text
//! ├── vm.preprocess   identify_ep (concrete run of S)      } once per distinct
//! ├── taint.extract   extract_with_limits (P1)             } prefix, as cached
//! ├── cfg             build_cfg + DistanceMap::compute on T
//! └── suffix          verify_prepared_observed
//!     ├── symex       the "symex" span of the SpanObserver (P2+P3)
//!     │   └── solver  SolverEnd events of a FlightRecorder
//!     └── p4          the "p4" span of the SpanObserver
//! ```
//!
//! The solver is the one layer that cannot be wrapped from outside; its
//! spans come from the program's own trace events. Whatever the spans do
//! not cover (the self time of `job` and `suffix`) is `core.other_ms`.
//! The suffix repeats the CFG work internally; that repeat lands in
//! `core.other_ms`.
//!
//! Two checks tie the decomposition to the program. Once per distinct
//! prefix, `octopocs::prepare` itself runs and its result must serialize
//! (`blob::to_blob`) to the same bytes as the decomposed prefix; a
//! mismatch counts as a failed job. And `trace.overhead_pct` compares
//! traced passes with untraced passes of the same decomposition (a
//! tracer that records nothing, no flight recorder, a `NullObserver`), so
//! it measures the tracing alone.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use octo_cfg::{build_cfg, DistanceMap};
use octo_clone::CloneParams;
use octo_corpus::Expected;
use octo_ir::parse::parse_program;
use octo_ir::printer::print_program;
use octo_obs::{NullObserver, SpanObserver};
use octo_poc::PocFile;
use octo_serve::{JobSpec, Journal, Priority, Request, VerdictSummary};
use octo_taint::{extract_with_limits, TaintConfig};
use octo_trace::{FlightRecorder, TraceKind};
use octopocs::{
    batch_job_to_spec, blob::to_blob, expand_scan, identify_ep, prefix_cache_key, prepare,
    run_batch, verify_prepared_observed, BatchJob, BatchOptions, BlobStore, PipelineConfig,
    PreparedSource, ScanSource, ScanTarget, SoftwarePairInput,
};

use crate::check::Tally;
use crate::daemon::{open_loop, Daemon};
use crate::pass::{sched_figures, PassLog};
use crate::stats::{median, metric, percentile, Metric};

/// Offered rate of the serve-layer probe, jobs/s.
const PROBE_RATE: f64 = 60.0;

/// Repetitions of the store, journal and protocol micro-probes.
const PROBE_REPS: usize = 5;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Submission index of the job.
    pub job: usize,
    /// Layer name.
    pub layer: &'static str,
    /// Start, µs from the tracer origin.
    pub start: f64,
    /// End, µs from the tracer origin.
    pub end: f64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
}

impl SpanRec {
    fn micros(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log on one clock. A tracer that is off records
/// nothing, and the job it is handed runs without a flight recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&self, job: usize, layer: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start = self.now();
        self.push(SpanRec {
            job,
            layer,
            start,
            end: start,
            parent,
        })
    }

    fn push(&self, span: SpanRec) -> usize {
        if !self.on {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span log poisoned")[id].end = end;
    }

    fn take(self) -> Vec<SpanRec> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Opens a child span of the suffix for each phase span the pipeline
/// reports (`symex`, `p4`).
/// The phases run one after another, never nested.
struct PhaseSpans<'a> {
    tracer: &'a Tracer,
    job: usize,
    parent: usize,
    opened: Mutex<Vec<(&'static str, usize)>>,
}

impl PhaseSpans<'_> {
    /// The span id of the last phase named `name`.
    fn last(&self, name: &str) -> Option<usize> {
        let opened = self.opened.lock().expect("phase spans poisoned");
        opened
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, id)| *id)
    }
}

impl SpanObserver for PhaseSpans<'_> {
    fn span_started(&self, name: &'static str) {
        let id = self.tracer.open(self.job, name, Some(self.parent));
        self.opened
            .lock()
            .expect("phase spans poisoned")
            .push((name, id));
    }

    fn span_finished(&self, name: &'static str, _seconds: f64) {
        if let Some(id) = self.last(name) {
            self.tracer.close(id);
        }
    }
}

/// Work counts of one traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    preprocess_insts: u64,
    taint_insts: u64,
    taint_bytes: u64,
    p4_insts: u64,
    symex_steps: u64,
    symex_backtracks: u64,
    solver_unsat: u64,
}

/// A job as text, the way the daemon receives it.
struct TextJob {
    name: String,
    s_text: String,
    t_text: String,
    poc: PocFile,
    shared: Vec<String>,
}

/// Everything a workload hands the traced run.
pub struct TracePlan<'a> {
    /// The workload's jobs.
    pub jobs: &'a [BatchJob],
    /// Known answer per job, `None` where there is none.
    pub answers: &'a [Option<Expected>],
    /// Workers of the `run_batch` pass behind the scheduling figures.
    pub workers: usize,
    /// Clone-retrieval inputs for the clone probe.
    pub sources: &'a [ScanSource],
    /// Clone-retrieval targets for the clone probe.
    pub targets: &'a [ScanTarget],
    /// `(source, target, ℓ)` pairs that retrieval must find.
    pub positives: &'a [(usize, usize, Vec<String>)],
    /// The `octopocsd` binary.
    pub daemon: &'a Path,
    /// Scratch directory.
    pub tmp: &'a Path,
    /// Seconds to spend on alternating untraced and traced passes.
    pub budget: f64,
    /// File the spans are written to.
    pub spans_out: &'a Path,
}

/// Runs the traced measurement and returns the per-layer metrics, the
/// verdict tally, and human-readable lines.
///
/// # Errors
/// On an I/O, daemon or recorder failure.
pub fn traced(plan: &TracePlan<'_>) -> Result<(Vec<Metric>, Tally, Vec<String>), String> {
    let config = PipelineConfig::default();
    let mut tally = Tally::default();
    let texts: Vec<TextJob> = plan
        .jobs
        .iter()
        .map(|j| TextJob {
            name: j.name.clone(),
            s_text: print_program(&j.s),
            t_text: print_program(&j.t),
            poc: j.poc.clone(),
            shared: j.shared.clone(),
        })
        .collect();

    // One unmeasured pass first: page faults and lazy set-up land there.
    decomposed_pass(
        &texts,
        plan.answers,
        &config,
        &Tracer::new(false),
        &mut tally,
    )?;
    // Then pairs of an untraced and a traced pass of the decomposition,
    // so drift in the machine's speed touches both sides alike. Which
    // side runs first alternates from pair to pair.
    let started = Instant::now();
    let mut overheads = Vec::new();
    let mut passes: Vec<PassFigures> = Vec::new();
    let mut last_spans = Vec::new();
    let mut last_cache = HashMap::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < plan.budget {
        let traced_first = passes.len() % 2 == 1;
        let mut untraced_wall = 0.0;
        let mut traced = None;
        for on in [traced_first, !traced_first] {
            let tracer = Tracer::new(on);
            let (cache, counts, wall) =
                decomposed_pass(&texts, plan.answers, &config, &tracer, &mut tally)?;
            if on {
                traced = Some((tracer, cache, counts, wall));
            } else {
                untraced_wall = wall;
            }
        }
        let (tracer, cache, counts, traced_wall) = traced.expect("a traced pass ran");
        overheads.push(100.0 * (traced_wall / untraced_wall - 1.0));
        let spans = tracer.take();
        passes.push(PassFigures::from_spans(&spans, counts));
        last_spans = spans;
        last_cache = cache;
    }
    let prepare_ms = check_prefixes(&texts, &config, &last_cache, &mut tally)?;
    let prefixes: Vec<PreparedSource> = last_cache.into_values().flatten().collect();
    // Scheduling and cache figures of the program's own batch runtime at
    // the workload's worker count.
    let (rows, wall, cache_hit_ratio) = reference_pass(plan, &config, &mut tally);
    let sched = sched_figures(&rows, plan.workers, wall);
    write_spans(plan.spans_out, &last_spans)?;

    let fig = PassFigures::median_of(&passes);
    let overhead_pct = median(&overheads);

    let clone = clone_probe(plan, &mut tally);
    let store = store_probe(&plan.tmp.join("store"), &prefixes)?;
    let specs: Vec<JobSpec> = plan
        .jobs
        .iter()
        .map(|j| batch_job_to_spec(j, Priority::Bulk))
        .collect();
    let journal_us = journal_probe(&plan.tmp.join("probe.journal"), &specs)?;
    let parse_us = proto_probe(&specs)?;
    let serve = serve_probe(plan, &specs, &mut tally)?;

    let metrics = vec![
        metric("solver.ms", fig.solver_ms, "ms"),
        metric("solver.calls", fig.solver_calls, "count"),
        metric("solver.us_per_call", fig.us_per_call(), "us"),
        metric("solver.unsat_share", fig.unsat_share(), "ratio"),
        metric("symex.ms", fig.symex_ms, "ms"),
        metric("symex.self_ms", fig.symex_self_ms, "ms"),
        metric("symex.steps", fig.counts.symex_steps as f64, "count"),
        metric(
            "symex.backtracks",
            fig.counts.symex_backtracks as f64,
            "count",
        ),
        metric("cfg.ms", fig.cfg_ms, "ms"),
        metric("vm.preprocess_ms", fig.preprocess_ms, "ms"),
        metric("taint.extract_ms", fig.taint_ms, "ms"),
        metric(
            "taint.insts_per_s",
            rate(fig.counts.taint_insts as f64, fig.taint_ms),
            "1/s",
        ),
        metric(
            "taint.bytes_uploaded",
            fig.counts.taint_bytes as f64,
            "count",
        ),
        metric("vm.p4_ms", fig.p4_ms, "ms"),
        metric("vm.p4_insts", fig.counts.p4_insts as f64, "count"),
        metric(
            "vm.insts_per_s",
            rate(
                (fig.counts.preprocess_insts + fig.counts.p4_insts) as f64,
                fig.preprocess_ms + fig.p4_ms,
            ),
            "1/s",
        ),
        metric("ir.parse_ms", fig.parse_ms, "ms"),
        metric("core.other_ms", fig.other_ms, "ms"),
        metric(
            "trace.coverage_pct",
            100.0 * (1.0 - fig.other_ms / fig.job_ms),
            "%",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("cache.hit_ratio", cache_hit_ratio, "ratio"),
        metric("sched.busy_share", sched.busy_share, "ratio"),
        metric("sched.queue_wait_ms", sched.queue_wait_ms, "ms"),
        metric("clone.expand_ms", clone.expand_ms, "ms"),
        metric("clone.funcs_per_s", clone.funcs_per_s, "1/s"),
        metric("clone.candidates", clone.candidates, "count"),
        metric("clone.recall", clone.recall, "ratio"),
        metric("store.put_us", store.put_us, "us"),
        metric("store.get_us", store.get_us, "us"),
        metric("store.writes", store.writes, "count"),
        metric("serve.submit_rtt_ms", serve.submit_rtt_ms, "ms"),
        metric("serve.journal_append_us", journal_us, "us"),
        metric("serve.proto_parse_us", parse_us, "us"),
        metric("loadgen.late_p99_ms", serve.late_p99_ms, "ms"),
        metric("loadgen.observer_rps", serve.observer_rps, "1/s"),
    ];
    let human = vec![
        format!(
            "traced {} passes over {} jobs: job wall {:.1} ms, tracing overhead {:.1}% \
             ({} spans written to {})",
            passes.len(),
            plan.jobs.len(),
            fig.job_ms,
            overhead_pct,
            last_spans.len(),
            plan.spans_out.display()
        ),
        format!(
            "solver {:.1} ms = {:.1}% of traced job wall; layer self times cover {:.1}%; \
             run_batch pass at {} workers {:.1} ms",
            fig.solver_ms,
            100.0 * fig.solver_ms / fig.job_ms,
            100.0 * (1.0 - fig.other_ms / fig.job_ms),
            plan.workers,
            wall * 1e3
        ),
        format!(
            "prepare() over the {} distinct prefixes {:.1} ms, decomposed \
             vm.preprocess + taint.extract {:.1} ms",
            prefixes.len(),
            prepare_ms,
            fig.preprocess_ms + fig.taint_ms
        ),
        format!("solver by job: {}", solver_by_job(&last_spans, &texts)),
    ];
    Ok((metrics, tally, human))
}

/// One `run_batch` pass at the plan's worker count, verdicts checked;
/// returns the sink's rows, the pass wall, and the prefix-cache hit ratio.
fn reference_pass(
    plan: &TracePlan<'_>,
    config: &PipelineConfig,
    tally: &mut Tally,
) -> (Vec<crate::pass::JobTimes>, f64, f64) {
    let options = BatchOptions {
        workers: plan.workers,
        ..BatchOptions::default()
    };
    let log = PassLog::start();
    let report = run_batch(plan.jobs, config, &options, &log);
    let wall = log.elapsed();
    for (entry, answer) in report.entries.iter().zip(plan.answers) {
        tally.job(
            &entry.name,
            entry.report.verdict.type_label(),
            entry.quarantined,
            *answer,
        );
    }
    let hits = report.cache.hits as f64;
    let hit_ratio = hits / (hits + report.cache.misses as f64).max(1.0);
    (log.rows(), wall, hit_ratio)
}

/// Distinct prefixes by `prefix_cache_key`; `None` where `prepare` would
/// fail.
type PrefixCache = HashMap<u64, Option<PreparedSource>>;

/// Every job once through the decomposed pipeline on this thread,
/// verdicts checked; returns the prefixes computed, the work counts, and
/// the pass wall in seconds.
fn decomposed_pass(
    texts: &[TextJob],
    answers: &[Option<Expected>],
    config: &PipelineConfig,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(PrefixCache, Counts, f64), String> {
    let mut cache = PrefixCache::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    for (i, (job, answer)) in texts.iter().zip(answers).enumerate() {
        let verdict = decomposed_job(i, job, config, &mut cache, tracer, &mut counts)?;
        tally.job(&job.name, verdict, false, *answer);
    }
    Ok((cache, counts, start.elapsed().as_secs_f64()))
}

/// Runs `octopocs::prepare` once per distinct prefix and fails every job
/// whose decomposed prefix does not serialize to the same bytes (or
/// fails where `prepare` succeeds, or the reverse). Returns the ms the
/// `prepare` calls took.
fn check_prefixes(
    texts: &[TextJob],
    config: &PipelineConfig,
    decomposed: &PrefixCache,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut checked = HashMap::new();
    let mut ms = 0.0;
    for job in texts {
        let s = parse_program(&job.s_text).map_err(|e| format!("{}: S: {e}", job.name))?;
        let key = prefix_cache_key(&s, &job.poc, &job.shared, config);
        let same = *checked.entry(key).or_insert_with(|| {
            let start = Instant::now();
            let prepared = prepare(&s, &job.poc, &job.shared, config);
            ms += start.elapsed().as_secs_f64() * 1e3;
            match (prepared, decomposed.get(&key)) {
                (Ok(p), Some(Some(d))) => to_blob(&p) == to_blob(d),
                (Err(_), Some(None)) => true,
                _ => false,
            }
        });
        if !same {
            tally.fail(format!(
                "{}: the decomposed prefix differs from prepare()",
                job.name
            ));
        }
    }
    Ok(ms)
}

fn rate(count: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        count / (ms / 1e3)
    } else {
        0.0
    }
}

/// One job through the decomposed pipeline; returns its verdict label.
fn decomposed_job(
    i: usize,
    job: &TextJob,
    config: &PipelineConfig,
    cache: &mut PrefixCache,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Result<&'static str, String> {
    let root = tracer.open(i, "job", None);
    let span = tracer.open(i, "ir.parse", Some(root));
    let s = parse_program(&job.s_text).map_err(|e| format!("{}: S: {e}", job.name))?;
    let t = parse_program(&job.t_text).map_err(|e| format!("{}: T: {e}", job.name))?;
    tracer.close(span);

    let key = prefix_cache_key(&s, &job.poc, &job.shared, config);
    let prep = cache
        .entry(key)
        .or_insert_with(|| prepare_traced(i, &s, job, config, tracer, root, counts))
        .clone();
    let Some(prep) = prep else {
        // `prepare` would have failed: the verdict is a Failure.
        tracer.close(root);
        return Ok("Failure");
    };

    if let Some(ep_t) = t.func_by_name(&prep.ep_name) {
        let span = tracer.open(i, "cfg", Some(root));
        if let Ok(cfg) = build_cfg(&t, config.cfg_mode) {
            std::hint::black_box(DistanceMap::compute(&t, &cfg, ep_t));
        }
        tracer.close(span);
    }

    let recorder = tracer
        .on
        .then(|| Arc::new(FlightRecorder::with_default_capacity()));
    let recorder_origin = tracer.now();
    let suffix = tracer.open(i, "suffix", Some(root));
    let phases = PhaseSpans {
        tracer,
        job: i,
        parent: suffix,
        opened: Mutex::new(Vec::new()),
    };
    let input = SoftwarePairInput {
        s: &s,
        t: &t,
        poc: &job.poc,
        shared: &job.shared,
    };
    let report = match &recorder {
        Some(recorder) => {
            let _guard = octo_trace::install(recorder, i as u32, 0);
            verify_prepared_observed(&prep, &input, config, None, &phases)
        }
        None => verify_prepared_observed(&prep, &input, config, None, &NullObserver),
    };
    tracer.close(suffix);
    if let Some(r) = recorder.as_ref().filter(|r| r.dropped() > 0) {
        return Err(format!(
            "{}: flight recorder dropped {} events",
            job.name,
            r.dropped()
        ));
    }
    let events = recorder.map_or_else(Vec::new, |r| r.snapshot());
    let symex = phases.last("symex").unwrap_or(suffix);
    for event in events {
        if let TraceKind::SolverEnd { result, micros, .. } = event.kind {
            let end = recorder_origin + event.ts_micros as f64;
            tracer.push(SpanRec {
                job: i,
                layer: "solver",
                start: end - micros as f64,
                end,
                parent: Some(symex),
            });
            counts.solver_unsat += u64::from(result == "unsat");
        }
    }
    if let Some(stats) = &report.symex_stats {
        counts.symex_steps += stats.total_steps;
        counts.symex_backtracks += stats.backtracks;
    }
    counts.p4_insts += report.p4_insts;
    tracer.close(root);
    Ok(report.verdict.type_label())
}

/// The `prepare` prefix, one layer call at a time. `None` where `prepare`
/// would fail.
fn prepare_traced(
    i: usize,
    s: &octo_ir::Program,
    job: &TextJob,
    config: &PipelineConfig,
    tracer: &Tracer,
    root: usize,
    counts: &mut Counts,
) -> Option<PreparedSource> {
    let span = tracer.open(i, "vm.preprocess", Some(root));
    let ep = identify_ep(s, &job.poc, &job.shared, config.vm_limits);
    tracer.close(span);
    let ep = ep.ok()?;
    counts.preprocess_insts += ep.insts;
    let taint_config = TaintConfig {
        ep: ep.ep,
        shared: s.resolve_names(job.shared.iter().map(String::as_str)),
        granularity: config.taint_granularity,
        context: config.taint_context,
    };
    let span = tracer.open(i, "taint.extract", Some(root));
    let extraction = extract_with_limits(s, &job.poc, &taint_config, config.vm_limits);
    tracer.close(span);
    let extraction = extraction.ok()?;
    counts.taint_insts += extraction.insts;
    counts.taint_bytes += extraction.stats.bytes_uploaded;
    Some(PreparedSource {
        ep: ep.ep,
        ep_name: ep.ep_name,
        s_crash: ep.s_crash,
        primitives: extraction.primitives,
        ep_entries: extraction.ep_entries,
        p1_insts: extraction.insts,
        taint: extraction.stats,
    })
}

/// Layer totals of one traced pass, ms.
#[derive(Debug, Default, Clone, Copy)]
struct PassFigures {
    job_ms: f64,
    solver_ms: f64,
    solver_calls: f64,
    symex_ms: f64,
    symex_self_ms: f64,
    cfg_ms: f64,
    preprocess_ms: f64,
    taint_ms: f64,
    p4_ms: f64,
    parse_ms: f64,
    other_ms: f64,
    counts: Counts,
}

impl PassFigures {
    fn from_spans(spans: &[SpanRec], counts: Counts) -> PassFigures {
        let mut children = vec![0.0f64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children[p] += span.micros();
            }
        }
        let mut f = PassFigures {
            counts,
            ..PassFigures::default()
        };
        for (span, child) in spans.iter().zip(&children) {
            let ms = span.micros() / 1e3;
            let self_ms = (span.micros() - child) / 1e3;
            match span.layer {
                "job" => {
                    f.job_ms += ms;
                    f.other_ms += self_ms;
                }
                "suffix" => f.other_ms += self_ms,
                "solver" => {
                    f.solver_ms += ms;
                    f.solver_calls += 1.0;
                }
                "symex" => {
                    f.symex_ms += ms;
                    f.symex_self_ms += self_ms;
                }
                "cfg" => f.cfg_ms += ms,
                "vm.preprocess" => f.preprocess_ms += ms,
                "taint.extract" => f.taint_ms += ms,
                "p4" => f.p4_ms += ms,
                "ir.parse" => f.parse_ms += ms,
                other => unreachable!("span layer {other} has no bucket"),
            }
        }
        f
    }

    /// Field-wise median over passes (the counts are identical in every
    /// pass and are taken from the first).
    fn median_of(passes: &[PassFigures]) -> PassFigures {
        let m = |f: fn(&PassFigures) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        PassFigures {
            job_ms: m(|p| p.job_ms),
            solver_ms: m(|p| p.solver_ms),
            solver_calls: m(|p| p.solver_calls),
            symex_ms: m(|p| p.symex_ms),
            symex_self_ms: m(|p| p.symex_self_ms),
            cfg_ms: m(|p| p.cfg_ms),
            preprocess_ms: m(|p| p.preprocess_ms),
            taint_ms: m(|p| p.taint_ms),
            p4_ms: m(|p| p.p4_ms),
            parse_ms: m(|p| p.parse_ms),
            other_ms: m(|p| p.other_ms),
            counts: passes[0].counts,
        }
    }

    fn us_per_call(&self) -> f64 {
        if self.solver_calls > 0.0 {
            1e3 * self.solver_ms / self.solver_calls
        } else {
            0.0
        }
    }

    fn unsat_share(&self) -> f64 {
        if self.solver_calls > 0.0 {
            self.counts.solver_unsat as f64 / self.solver_calls
        } else {
            0.0
        }
    }
}

/// The three jobs with the most solver time, for the human summary.
fn solver_by_job(spans: &[SpanRec], jobs: &[TextJob]) -> String {
    let mut per_job = vec![0.0f64; jobs.len()];
    for s in spans.iter().filter(|s| s.layer == "solver") {
        per_job[s.job] += s.micros() / 1e3;
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|a, b| per_job[*b].total_cmp(&per_job[*a]));
    order
        .iter()
        .take(3)
        .map(|&i| format!("{} {:.1} ms", jobs[i].name, per_job[i]))
        .collect::<Vec<_>>()
        .join("; ")
}

fn write_spans(path: &Path, spans: &[SpanRec]) -> Result<(), String> {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{id},\"job\":{},\"layer\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{}}}\n",
            s.job,
            s.layer,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string())
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

struct CloneFigures {
    expand_ms: f64,
    funcs_per_s: f64,
    candidates: f64,
    recall: f64,
}

/// Times `expand_scan` over the workload's sources and targets and checks
/// that every positive pair expanded into a job carrying its whole ℓ.
fn clone_probe(plan: &TracePlan<'_>, tally: &mut Tally) -> CloneFigures {
    let params = CloneParams::default();
    let mut times = Vec::new();
    let mut expansion = None;
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        let e = expand_scan(plan.sources, plan.targets, &params);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        expansion = Some(e);
    }
    let expansion = expansion.expect("at least one expansion ran");
    let found = plan
        .positives
        .iter()
        .filter(|(si, ti, shared)| {
            let name = format!("{} => {}", plan.sources[*si].name, plan.targets[*ti].name);
            let hit = expansion
                .jobs
                .iter()
                .any(|j| j.name == name && shared.iter().all(|f| j.shared.contains(f)));
            if !hit {
                tally.fail(format!("clone retrieval missed {name}"));
            }
            hit
        })
        .count();
    let expand_ms = median(&times);
    CloneFigures {
        expand_ms,
        funcs_per_s: rate(expansion.functions_fingerprinted as f64, expand_ms),
        candidates: expansion.candidate_count() as f64,
        recall: found as f64 / plan.positives.len().max(1) as f64,
    }
}

struct StoreFigures {
    put_us: f64,
    get_us: f64,
    writes: f64,
}

/// Puts every distinct prepared prefix into a fresh blob store and reads
/// it back, [`PROBE_REPS`] times.
fn store_probe(dir: &Path, prefixes: &[PreparedSource]) -> Result<StoreFigures, String> {
    let blobs: Vec<(u64, Vec<u8>)> = prefixes
        .iter()
        .enumerate()
        .map(|(k, p)| (k as u64 + 1, to_blob(p)))
        .collect();
    let mut puts = Vec::new();
    let mut gets = Vec::new();
    let mut writes = 0;
    for rep in 0..PROBE_REPS {
        let root = dir.join(format!("rep{rep}"));
        let store = BlobStore::open(&root);
        for (key, blob) in &blobs {
            let start = Instant::now();
            store.put(*key, blob);
            puts.push(start.elapsed().as_secs_f64() * 1e6);
        }
        for (key, blob) in &blobs {
            let start = Instant::now();
            let got = store.get(*key);
            gets.push(start.elapsed().as_secs_f64() * 1e6);
            if got.as_deref() != Some(blob.as_slice()) {
                return Err(format!(
                    "blob store returned a different blob for key {key}"
                ));
            }
        }
        writes = store.stats().writes;
        drop(store);
        std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    }
    if blobs.is_empty() {
        return Err("no prepared prefix to store".to_string());
    }
    Ok(StoreFigures {
        put_us: median(&puts),
        get_us: median(&gets),
        writes: writes as f64,
    })
}

/// Median µs of one job's `record_job` plus `record_verdict` on a scratch
/// journal.
fn journal_probe(path: &Path, specs: &[JobSpec]) -> Result<f64, String> {
    let (journal, _) = Journal::open(path)?;
    let verdict = VerdictSummary {
        verdict: "Type-I".to_string(),
        poc_generated: true,
        verified: true,
        attempts: 1,
        quarantined: false,
    };
    let mut times = Vec::new();
    let mut id = 0;
    for _ in 0..PROBE_REPS {
        for spec in specs {
            id += 1;
            let start = Instant::now();
            journal.record_job(id, spec)?;
            journal.record_verdict(id, &verdict)?;
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(journal);
    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(median(&times))
}

/// Median µs to parse one `submit` line.
fn proto_probe(specs: &[JobSpec]) -> Result<f64, String> {
    let lines: Vec<String> = specs
        .iter()
        .map(|s| Request::Submit { job: s.clone() }.render())
        .collect();
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        for line in &lines {
            let start = Instant::now();
            let parsed = Request::parse(line)?;
            times.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(parsed);
        }
    }
    Ok(median(&times))
}

struct ServeFigures {
    submit_rtt_ms: f64,
    late_p99_ms: f64,
    observer_rps: f64,
}

/// Sends every job once, in order and evenly spaced at [`PROBE_RATE`],
/// through a spawned daemon.
fn serve_probe(
    plan: &TracePlan<'_>,
    specs: &[JobSpec],
    tally: &mut Tally,
) -> Result<ServeFigures, String> {
    let daemon = Daemon::spawn(plan.daemon, &plan.tmp.join("probe-daemon"), plan.workers)?;
    let interval = Duration::from_secs_f64(1.0 / PROBE_RATE);
    let phase = open_loop(&daemon, specs, plan.answers, interval)?;
    daemon.stop();
    let rps = phase.observer_requests as f64 / phase.observer_secs.max(1e-9);
    let figures = ServeFigures {
        submit_rtt_ms: median(&phase.submit_rtt_ms),
        late_p99_ms: percentile(&phase.late_ms, 0.99),
        observer_rps: rps,
    };
    tally.merge(phase.tally);
    Ok(figures)
}
