//! Diagnostic records, rule identifiers and rendering.

use std::fmt;

use octo_codec::json_escape;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a fact worth surfacing (e.g. a resolved indirect
    /// jump), not a defect.
    Info,
    /// A likely defect that does not invalidate the program.
    Warning,
    /// The program violates a structural invariant.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable rule identifiers (documented in `docs/static-analysis.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Structural validation failure.
    Val001,
    /// Read of a register that is the implicit zero on every path.
    Ubd001,
    /// Read of a register that is the implicit zero on some path.
    Ubd002,
    /// Unreachable basic block.
    Dead001,
    /// Dead store: pure instruction whose result is never read.
    Dead002,
    /// Branch or switch decided by a propagated constant.
    Cst001,
    /// Indirect jump resolved to an exact target.
    Cst002,
    /// Indirect call resolved to an exact callee.
    Cst003,
    /// Indirect jump with no static resolution (missing CFG edges).
    Cfg001,
    /// Indirect call with no static resolution: the call graph
    /// conservatively lets it reach every function.
    Cfg002,
}

impl Rule {
    /// The rule's identifier string.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Val001 => "VAL001",
            Rule::Ubd001 => "UBD001",
            Rule::Ubd002 => "UBD002",
            Rule::Dead001 => "DEAD001",
            Rule::Dead002 => "DEAD002",
            Rule::Cst001 => "CST001",
            Rule::Cst002 => "CST002",
            Rule::Cst003 => "CST003",
            Rule::Cfg001 => "CFG001",
            Rule::Cfg002 => "CFG002",
        }
    }

    /// The severity every finding of this rule carries.
    pub fn severity(self) -> Severity {
        match self {
            Rule::Val001 => Severity::Error,
            Rule::Ubd001
            | Rule::Ubd002
            | Rule::Dead001
            | Rule::Dead002
            | Rule::Cfg001
            | Rule::Cfg002 => Severity::Warning,
            Rule::Cst001 | Rule::Cst002 | Rule::Cst003 => Severity::Info,
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Function name.
    pub func: String,
    /// Block label, when the finding is block-local.
    pub block: Option<String>,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Severity of the finding (derived from the rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let loc = match &self.block {
            Some(b) => format!("{}/{}", self.func, b),
            None => self.func.clone(),
        };
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.rule.id(),
            loc,
            self.message
        )
    }
}

/// Aggregate counts over one linted program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Functions analysed.
    pub functions: usize,
    /// Unreachable blocks (DEAD001 count).
    pub unreachable_blocks: usize,
    /// Dead stores (DEAD002 count).
    pub dead_stores: usize,
    /// Statically decided branches (CST001 count).
    pub const_branches: usize,
    /// Resolved indirect jumps (CST002 count).
    pub resolved_ijmps: usize,
    /// Resolved indirect calls (CST003 count).
    pub resolved_icalls: usize,
    /// Unresolved indirect jumps (CFG001 count).
    pub unresolved_ijmps: usize,
    /// Unresolved indirect calls (CFG002 count).
    pub unresolved_icalls: usize,
    /// Use-before-def reads (UBD001 + UBD002 count).
    pub use_before_def: usize,
}

/// The result of linting one program.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, ordered by function, then block, then rule.
    pub diags: Vec<Diagnostic>,
    /// Aggregate counts.
    pub summary: LintSummary,
}

impl LintReport {
    /// Findings at or above `min` severity.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.severity() >= min)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.at_least(Severity::Error).count()
    }

    /// Renders the report as human-readable lines plus a summary footer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let s = &self.summary;
        out.push_str(&format!(
            "{} finding(s) across {} function(s): {} error(s), {} warning(s), {} info\n",
            self.diags.len(),
            s.functions,
            self.error_count(),
            self.at_least(Severity::Warning).count() - self.error_count(),
            self.diags.len() - self.at_least(Severity::Warning).count(),
        ));
        out
    }

    /// Renders the report as a JSON object (`{"diagnostics": [...],
    /// "summary": {...}}`), dependency-free like the rest of the
    /// workspace's machine output.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"func\":\"{}\",\"block\":{},\
                 \"message\":\"{}\"}}",
                d.rule.id(),
                d.severity(),
                json_escape(&d.func),
                match &d.block {
                    Some(b) => format!("\"{}\"", json_escape(b)),
                    None => "null".to_string(),
                },
                json_escape(&d.message),
            ));
        }
        let s = &self.summary;
        out.push_str(&format!(
            "],\"summary\":{{\"functions\":{},\"unreachable_blocks\":{},\"dead_stores\":{},\
             \"const_branches\":{},\"resolved_ijmps\":{},\"resolved_icalls\":{},\
             \"unresolved_ijmps\":{},\"unresolved_icalls\":{},\"use_before_def\":{}}}}}",
            s.functions,
            s.unreachable_blocks,
            s.dead_stores,
            s.const_branches,
            s.resolved_ijmps,
            s.resolved_icalls,
            s.unresolved_ijmps,
            s.unresolved_icalls,
            s.use_before_def,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_is_stable() {
        let d = Diagnostic {
            rule: Rule::Dead002,
            func: "main".into(),
            block: Some("entry".into()),
            message: "dead store to r3".into(),
        };
        assert_eq!(
            d.to_string(),
            "warning[DEAD002] main/entry: dead store to r3"
        );
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Rule::Val001.severity(), Severity::Error);
    }

    #[test]
    fn json_escapes_quotes() {
        let report = LintReport {
            diags: vec![Diagnostic {
                rule: Rule::Val001,
                func: "we\"ird".into(),
                block: None,
                message: "x\ry".into(),
            }],
            summary: LintSummary::default(),
        };
        let j = report.render_json();
        assert!(j.contains("we\\\"ird"));
        assert!(j.contains("x\\ry"), "{j}");
        assert!(j.contains("\"block\":null"));
    }
}
