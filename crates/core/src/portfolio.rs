//! Patch prioritisation — §VII "Practical usage" made operational.
//!
//! "Assume that a developer has confirmed that several pieces of
//! propagated vulnerable code exist in their software. At this point, they
//! can use OCTOPOCS to determine which vulnerabilities need to be patched
//! more urgently (i.e., they can prioritize vulnerability patches)."
//!
//! [`crate::batch::run_batch`] verifies the job set;
//! [`crate::batch::BatchReport::by_urgency`] orders it by the [`Urgency`]
//! of each verdict: demonstrated-triggerable clones first (most severe
//! crash class leading), then verification failures (unknown risk), then
//! verified-safe clones. [`render_portfolio`] prints that order with a
//! recommendation per entry.

use crate::batch::BatchEntry;
use crate::verdict::Verdict;

/// The urgency bucket a verified job lands in (ascending = more urgent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Urgency {
    /// Triggered with a memory-corruption class crash (CWE-119 /
    /// CWE-190): patch immediately.
    TriggeredCorruption,
    /// Triggered with any other crash class (DoS-style): patch next.
    TriggeredOther,
    /// Verification failed — the risk is unknown; investigate manually.
    Unknown,
    /// Verified not triggerable — "it must be patched in the end" but can
    /// wait.
    VerifiedSafe,
}

impl Urgency {
    /// Classifies one verdict.
    pub fn of(verdict: &Verdict) -> Urgency {
        match verdict {
            Verdict::Triggered { crash_class, .. } => match *crash_class {
                "CWE-119" | "CWE-190" => Urgency::TriggeredCorruption,
                _ => Urgency::TriggeredOther,
            },
            Verdict::Failure { .. } => Urgency::Unknown,
            Verdict::NotTriggerable { .. } => Urgency::VerifiedSafe,
        }
    }

    /// Human-readable recommendation.
    pub fn recommendation(self) -> &'static str {
        match self {
            Urgency::TriggeredCorruption => "patch immediately (exploitable memory corruption)",
            Urgency::TriggeredOther => "patch soon (demonstrated denial of service)",
            Urgency::Unknown => "investigate manually (verification failed)",
            Urgency::VerifiedSafe => "schedule routine patch (verified not triggerable)",
        }
    }
}

/// Renders a prioritised report (for example
/// [`crate::batch::BatchReport::by_urgency`]) as plain text.
pub fn render_portfolio(entries: &[&BatchEntry]) -> String {
    let mut out = String::new();
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "{:>2}. {:<40} {:<10} — {}\n",
            i + 1,
            e.name,
            e.report.verdict.type_label(),
            e.urgency.recommendation()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urgency_ordering_is_total() {
        assert!(Urgency::TriggeredCorruption < Urgency::TriggeredOther);
        assert!(Urgency::TriggeredOther < Urgency::Unknown);
        assert!(Urgency::Unknown < Urgency::VerifiedSafe);
    }
}
