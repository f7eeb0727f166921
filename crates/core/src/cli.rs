//! The command-line front end shared by `octopocs` and `octopocsd`.
//!
//! This module is the only code that turns argv into a [`BatchOptions`],
//! a [`PipelineConfig`], a [`CloneParams`] or a daemon [`Endpoint`], and
//! the only code that loads program, PoC, target and job files. Each
//! subcommand runs [`parse_flags`] with a handler for its own flags and
//! hands every other flag to the groups it accepts:
//!
//! | group | flags | fills | accepted by |
//! |---|---|---|---|
//! | [`run_flags`] | `--workers` `--deadline-secs` `--cache-dir` | [`BatchOptions`] | `scan`, `batch`, `octopocsd` |
//! | [`engine_flags`] | `--theta` `--accelerate-loops` `--static-cfg` `--context-free` `--prescreen` | [`PipelineConfig`] | single-pair mode, `batch`, `octopocsd` |
//! | [`robustness_flags`] | `--fault-plan` `--retry` `--retry-backoff-ms` `--watchdog-quiet-secs` | [`BatchOptions`] | `batch`, `octopocsd` |
//! | [`clone_flags`] | `--threshold` `--top-k` `--min-insts` | [`CloneParams`] | `clone`, `scan`, `submit` |
//! | [`endpoint_flags`] | `--socket` `--tcp` | [`EndpointArgs`] | `submit`, `status`, `watch`, `results`, `drain` |
//!
//! `octopocs cache` takes `--cache-dir` alone ([`cache_dir_flag`]).
//! `octopocsd` parses its own `--socket` and `--tcp`: the daemon listens
//! on both at once, where a client connects to exactly one.
//!
//! Every usage error — `--help`, an unknown flag, a missing or malformed
//! value, a missing required input — is printed by [`usage_error`] and
//! exits 3; an unreadable input file is printed by [`error`] and exits
//! 3 too.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use octo_cfg::CfgMode;
use octo_clone::CloneParams;
use octo_ir::parse::parse_program;
use octo_ir::Program;
use octo_poc::PocFile;
use octo_serve::Endpoint;
use octo_taint::ContextMode;

use crate::batch::{BatchJob, BatchOptions};
use crate::config::PipelineConfig;
use crate::scan::{ScanSource, ScanTarget};
use crate::{FaultPlan, WatchdogConfig};

/// Prints a usage error — `msg` (when not empty) over the usage text —
/// and returns exit code 3.
pub fn usage_error(msg: &str, usage: &str) -> ExitCode {
    if msg.is_empty() {
        eprintln!("{usage}");
    } else {
        eprintln!("{msg}\n{usage}");
    }
    ExitCode::from(3)
}

/// Prints each message as `error: …` and returns exit code 3: the exit
/// of an unreadable input, a bad endpoint or a failed connection.
pub fn error(errors: impl IntoIterator<Item = String>) -> ExitCode {
    for msg in errors {
        eprintln!("error: {msg}");
    }
    ExitCode::from(3)
}

/// The arguments after the flag being parsed.
#[derive(Debug)]
pub struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    /// The next argument, if any, for a flag that words its own error.
    pub fn next_arg(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value of `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next_arg()
            .map(str::to_string)
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// The value of `flag`, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    /// The value of `flag` as a count of at least 1.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let n: T = self.parse(flag)?;
        if n < T::from(1) {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }

    /// The value of `flag` as a positive, finite number of seconds.
    pub fn secs(&mut self, flag: &str) -> Result<Duration, String> {
        let secs: f64 = self.parse(flag)?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("{flag} must be positive"));
        }
        Duration::try_from_secs_f64(secs).map_err(|e| format!("bad {flag}: {e}"))
    }
}

/// Feeds every flag of `argv`, in order, to `handle`, which reads the
/// flag's value through the cursor and returns whether the flag was one
/// it takes. `--help`/`-h`, a flag `handle` does not take (reported as
/// ``unknown {kind} `flag` ``) and any error `handle` returns end the
/// parse in a [`usage_error`], whose exit code is the `Err`.
pub fn parse_flags<'a>(
    argv: &'a [String],
    kind: &str,
    usage: &str,
    mut handle: impl FnMut(&'a str, &mut Cursor<'a>) -> Result<bool, String>,
) -> Result<(), ExitCode> {
    let mut cursor = Cursor { args: argv.iter() };
    while let Some(flag) = cursor.next_arg() {
        let step = match flag {
            "--help" | "-h" => Err(String::new()),
            _ => match handle(flag, &mut cursor) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("unknown {kind} `{flag}`")),
                Err(msg) => Err(msg),
            },
        };
        step.map_err(|msg| usage_error(&msg, usage))?;
    }
    Ok(())
}

/// Run flags: worker count, per-job deadline and the disk cache.
pub fn run_flags(flag: &str, cur: &mut Cursor, options: &mut BatchOptions) -> Result<bool, String> {
    match flag {
        "--workers" => options.workers = cur.count(flag)?,
        "--deadline-secs" => options.deadline = Some(cur.secs(flag)?),
        _ => return cache_dir_flag(flag, cur, &mut options.cache_dir),
    }
    Ok(true)
}

/// `--cache-dir DIR`: one of the [`run_flags`], and the one flag
/// `octopocs cache` shares with them.
pub fn cache_dir_flag(
    flag: &str,
    cur: &mut Cursor,
    dir: &mut Option<PathBuf>,
) -> Result<bool, String> {
    match flag {
        "--cache-dir" => *dir = Some(cur.value(flag)?.into()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Engine flags: θ and the four engine switches of §III and §IV-B.
pub fn engine_flags(
    flag: &str,
    cur: &mut Cursor,
    config: &mut PipelineConfig,
) -> Result<bool, String> {
    match flag {
        "--theta" => config.theta = cur.parse(flag)?,
        "--accelerate-loops" => config.loop_acceleration = true,
        "--static-cfg" => config.cfg_mode = CfgMode::Static,
        "--context-free" => config.taint_context = ContextMode::ContextFree,
        "--prescreen" => config.static_prescreen = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Robustness flags: fault plan, retry policy and watchdog (see
/// `docs/robustness.md`). The fault plan is read while parsing.
pub fn robustness_flags(
    flag: &str,
    cur: &mut Cursor,
    options: &mut BatchOptions,
) -> Result<bool, String> {
    match flag {
        "--fault-plan" => {
            let path = cur.value(flag)?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let plan = FaultPlan::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
            options.faults = Some(Arc::new(plan));
        }
        "--retry" => options.retry.max_attempts = cur.count(flag)?,
        "--retry-backoff-ms" => {
            let ms: u64 = cur.parse(flag)?;
            if ms == 0 {
                return Err(format!(
                    "{flag} must be positive (omit the flag for no backoff)"
                ));
            }
            options.retry.base_backoff = Duration::from_millis(ms);
        }
        "--watchdog-quiet-secs" => {
            options.watchdog = Some(WatchdogConfig::with_quiet(cur.secs(flag)?));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Clone-retrieval flags (see `docs/clone-scanning.md`).
pub fn clone_flags(flag: &str, cur: &mut Cursor, params: &mut CloneParams) -> Result<bool, String> {
    match flag {
        "--threshold" => {
            params.threshold = cur.parse(flag)?;
            if !(0.0..=1.0).contains(&params.threshold) {
                return Err(format!("{flag} must be in [0, 1]"));
            }
        }
        "--top-k" => params.top_k = cur.count(flag)?,
        "--min-insts" => params.min_insts = cur.parse(flag)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The daemon endpoint a client subcommand connects to, as
/// [`endpoint_flags`] read it.
#[derive(Debug, Default)]
pub struct EndpointArgs {
    socket: Option<String>,
    tcp: Option<String>,
}

impl EndpointArgs {
    /// `--tcp ADDR`, else `--socket PATH`, else the daemon's default Unix
    /// socket `octopocsd.sock` in the current directory. Both at once is
    /// an error.
    pub fn endpoint(&self) -> Result<Endpoint, String> {
        match (&self.socket, &self.tcp) {
            (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".to_string()),
            (_, Some(addr)) => Ok(Endpoint::Tcp(addr.clone())),
            (path, None) => Ok(Endpoint::Unix(
                path.as_deref().unwrap_or("octopocsd.sock").into(),
            )),
        }
    }
}

/// Endpoint flags of the daemon's clients.
pub fn endpoint_flags(
    flag: &str,
    cur: &mut Cursor,
    endpoint: &mut EndpointArgs,
) -> Result<bool, String> {
    match flag {
        "--socket" => endpoint.socket = Some(cur.value(flag)?),
        "--tcp" => endpoint.tcp = Some(cur.value(flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// A comma-separated shared-function list (`ℓ`): names trimmed, empty
/// names dropped.
pub fn split_shared(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(str::to_string)
        .collect()
}

/// Reads, parses and validates one MicroIR program. Errors name the file.
pub fn load_program(path: &str) -> Result<Program, String> {
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

/// Reads a PoC file. Errors name the file.
fn load_poc(path: &str) -> Result<PocFile, String> {
    std::fs::read(path)
        .map(PocFile::new)
        .map_err(|e| format!("{path}: {e}"))
}

/// Loads the `S`, `T` and PoC files of one verification pair, reporting
/// every file that fails, in that order.
pub fn load_pair(s: &str, t: &str, poc: &str) -> Result<(Program, Program, PocFile), Vec<String>> {
    match (load_program(s), load_program(t), load_poc(poc)) {
        (Ok(s), Ok(t), Ok(poc)) => Ok((s, t, poc)),
        (s, t, poc) => Err([s.err(), t.err(), poc.err()]
            .into_iter()
            .flatten()
            .collect()),
    }
}

/// Loads the inputs of a file-based clone scan: one source `S` with its
/// PoC, and the targets in the given order. Each is named by its path.
/// Stops at the first file that fails.
pub fn load_scan_inputs(
    s: &str,
    poc: &str,
    targets: &[String],
) -> Result<(Vec<ScanSource>, Vec<ScanTarget>), String> {
    let source = ScanSource {
        name: s.to_string(),
        s: load_program(s)?,
        poc: load_poc(poc)?,
    };
    let targets = targets
        .iter()
        .map(|path| {
            Ok(ScanTarget {
                name: path.clone(),
                t: load_program(path)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((vec![source], targets))
}

/// Reads a `--jobs` file: one job per whitespace-separated line
/// (`name S.mir T.mir poc.bin f1,f2`), `#` starting a comment.
pub fn load_job_file(path: &str) -> Result<Vec<BatchJob>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s_path, t_path, poc_path, shared] = fields[..] else {
            return Err(at(format!(
                "expected `name S.mir T.mir poc.bin f1,f2`, got {} fields",
                fields.len()
            )));
        };
        let poc = load_poc(poc_path).map_err(at)?;
        jobs.push(BatchJob {
            name: name.to_string(),
            s: load_program(s_path).map_err(at)?,
            t: load_program(t_path).map_err(at)?,
            poc,
            shared: split_shared(shared),
        });
    }
    if jobs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Runs `group` over `args` and returns the parse error, if any.
    fn parse_with<T>(
        args: &[&str],
        target: &mut T,
        group: fn(&str, &mut Cursor, &mut T) -> Result<bool, String>,
    ) -> Result<(), String> {
        let argv = argv(args);
        let mut cur = Cursor { args: argv.iter() };
        while let Some(flag) = cur.next_arg() {
            if !group(flag, &mut cur, target)? {
                return Err(format!("not taken: {flag}"));
            }
        }
        Ok(())
    }

    #[test]
    fn cursor_wording() {
        let mut options = BatchOptions::default();
        assert_eq!(
            parse_with(&["--workers"], &mut options, run_flags),
            Err("missing value for --workers".to_string())
        );
        assert_eq!(
            parse_with(&["--workers", "x"], &mut options, run_flags),
            Err("bad --workers: invalid digit found in string".to_string())
        );
        assert_eq!(
            parse_with(&["--workers", "0"], &mut options, run_flags),
            Err("--workers must be at least 1".to_string())
        );
        assert_eq!(
            parse_with(&["--deadline-secs", "NaN"], &mut options, run_flags),
            Err("--deadline-secs must be positive".to_string())
        );
        // Finite but past `Duration`'s range: an error, not a panic.
        assert!(
            parse_with(&["--deadline-secs", "1e300"], &mut options, run_flags)
                .is_err_and(|e| e.starts_with("bad --deadline-secs: "))
        );
        parse_with(
            &[
                "--workers",
                "3",
                "--deadline-secs",
                "0.5",
                "--cache-dir",
                "c",
            ],
            &mut options,
            run_flags,
        )
        .expect("valid run flags");
        assert_eq!(options.workers, 3);
        assert_eq!(options.deadline, Some(Duration::from_millis(500)));
        assert_eq!(options.cache_dir, Some(PathBuf::from("c")));
    }

    #[test]
    fn engine_flags_fill_the_config() {
        let mut config = PipelineConfig::default();
        parse_with(
            &[
                "--theta",
                "7",
                "--accelerate-loops",
                "--static-cfg",
                "--context-free",
                "--prescreen",
            ],
            &mut config,
            engine_flags,
        )
        .expect("valid engine flags");
        let want = PipelineConfig::default()
            .with_theta(7)
            .accelerate_loops()
            .static_cfg()
            .context_free()
            .with_static_prescreen();
        assert_eq!(format!("{config:?}"), format!("{want:?}"));
    }

    #[test]
    fn groups_refuse_each_others_flags() {
        let mut options = BatchOptions::default();
        assert!(parse_with(&["--theta", "7"], &mut options, run_flags).is_err());
        let mut config = PipelineConfig::default();
        assert!(parse_with(&["--workers", "2"], &mut config, engine_flags).is_err());
    }

    #[test]
    fn shared_names_are_trimmed() {
        assert_eq!(split_shared(" a, b ,,c "), ["a", "b", "c"]);
        assert!(split_shared(", ,").is_empty());
    }

    #[test]
    fn endpoint_defaults_and_exclusion() {
        let default = EndpointArgs::default().endpoint().expect("default");
        assert!(
            matches!(default, Endpoint::Unix(p) if p == std::path::Path::new("octopocsd.sock"))
        );
        let both = EndpointArgs {
            socket: Some("s".into()),
            tcp: Some("t".into()),
        };
        assert_eq!(
            both.endpoint().err().as_deref(),
            Some("--socket and --tcp are mutually exclusive")
        );
    }
}
