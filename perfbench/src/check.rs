//! The known-answer gate and the per-run job accounting behind
//! `attempted`, `failed` and `failed_share`.

use octo_corpus::Expected;

/// Jobs attempted and failed in one run, with a line naming each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs the run submitted.
    pub attempted: u64,
    /// Jobs rejected, unfinished, quarantined, or with a wrong verdict.
    pub failed: u64,
    /// One line per failed job (or failed workload-level check).
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one finished job. `expected` is its hand-written answer, or
    /// `None` for jobs that have none (scan cross-pairs): those only have
    /// to finish without quarantine.
    pub fn job(
        &mut self,
        name: &str,
        verdict: &str,
        quarantined: bool,
        expected: Option<Expected>,
    ) {
        self.attempted += 1;
        if quarantined {
            self.fail(format!("{name}: quarantined with verdict {verdict}"));
        } else if let Some(want) = expected.filter(|e| e.label() != verdict) {
            self.fail(format!(
                "{name}: verdict {verdict}, known answer {}",
                want.label()
            ));
        }
    }

    /// Counts one job that never produced a verdict (refused at
    /// admission, or still unfinished when the run ended).
    pub fn lost(&mut self, name: &str, why: &str) {
        self.attempted += 1;
        self.fail(format!("{name}: {why}"));
    }

    /// Records a failed check that is not a single job's verdict (a
    /// decoy that expanded, a positive that was not retrieved). It counts
    /// as one failed job.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Whether every job and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Share of attempted jobs that failed.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}
