//! Structured findings emitted by the static analyses.
//!
//! Every lint and well-formedness check reports a [`Diagnostic`] carrying a
//! stable [`Code`], a [`Severity`], and the IR index it anchors to. Callers
//! decide how strict to be: the composite constructors run in *deny* mode
//! (any finding at [`Severity::Warn`] or above is fatal) while exploratory
//! tooling can run in *warn* mode (only [`Severity::Error`] is fatal).

use std::fmt;

/// Stable identifier of one diagnostic class.
///
/// Codes are grouped by family: `AVA0xx` are pattern lints for known bug
/// classes, `AVA1xx` are SSA/dataflow well-formedness checks, and `AVA2xx`
/// are static memory-bounds findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A splat (or other whole-register constant) executed while the vector
    /// length is still unknown — the pre-`vsetvl` corruption bug class.
    SplatBeforeSetVl,
    /// A memory access landed in a placeholder arena that no rebase rule
    /// covered, so at run time it would read a buffer that is never
    /// materialised.
    UncoveredPlaceholder,
    /// A buffer carried or linked between composite phases was read after
    /// an overlapping in-place store within the same phase span destroyed
    /// the value it carries.
    ReadAfterDestroy,
    /// A register defined under a narrow vector length is consumed under a
    /// wider one, so its upper lanes are stale.
    NarrowDefWideUse,
    /// A virtual register is read before any instruction defines it.
    UseBeforeDef,
    /// A virtual register is defined more than once, breaking SSA form.
    Redefinition,
    /// A store whose bytes are completely overwritten by a later store with
    /// no intervening load.
    DeadStore,
    /// A register definition whose value is never consumed.
    UnusedDef,
    /// A memory access whose base address falls inside no planned arena.
    OutOfArena,
    /// A memory access that starts inside an arena but runs past its end.
    StraddlesArena,
}

impl Code {
    /// The stable printable code, e.g. `"AVA001"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SplatBeforeSetVl => "AVA001",
            Code::UncoveredPlaceholder => "AVA002",
            Code::ReadAfterDestroy => "AVA003",
            Code::NarrowDefWideUse => "AVA004",
            Code::UseBeforeDef => "AVA101",
            Code::Redefinition => "AVA102",
            Code::DeadStore => "AVA103",
            Code::UnusedDef => "AVA104",
            Code::OutOfArena => "AVA201",
            Code::StraddlesArena => "AVA202",
        }
    }

    /// The severity this code is reported at.
    ///
    /// Everything that corrupts results is an error; the stale-lane and
    /// unused-def findings are warnings because a kernel can be wasteful
    /// without being wrong. Dead stores are informational only: unrolled
    /// solver loops supersede every uncarried intermediate result by
    /// design, so a dead store is expected structure there, not a defect.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            Code::NarrowDefWideUse | Code::UnusedDef => Severity::Warn,
            Code::DeadStore => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a build.
    Info,
    /// Suspicious but possibly intentional; fatal in deny mode.
    Warn,
    /// A result-corrupting defect; fatal in every mode.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered diagnostics and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: Code,
    /// How serious the finding is (usually [`Code::default_severity`]).
    pub severity: Severity,
    /// Index of the IR instruction the finding anchors to.
    pub ir_index: usize,
    /// Human-readable explanation with concrete registers/addresses.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    #[must_use]
    pub fn new(code: Code, ir_index: usize, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            ir_index,
            message: message.into(),
        }
    }

    /// Overrides the severity (used where context softens a finding, e.g.
    /// a dead store superseded by a *later phase* of an unrolled loop).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at ir[{}]: {}",
            self.severity, self.code, self.ir_index, self.message
        )
    }
}

/// All findings for one analyzed kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Name of the kernel that was analyzed.
    pub kernel: String,
    /// Findings sorted by IR index.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True if no finding reaches `min` severity.
    #[must_use]
    pub fn is_clean(&self, min: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < min)
    }

    /// The most severe finding, if any.
    #[must_use]
    pub fn worst(&self) -> Option<&Diagnostic> {
        self.diagnostics.iter().max_by_key(|d| d.severity)
    }

    /// Findings at `min` severity or above, in IR order.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity >= min)
    }

    /// True if any finding carries `code`.
    #[must_use]
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "{}: clean", self.kernel);
        }
        writeln!(f, "{}: {} finding(s)", self.kernel, self.diagnostics.len())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_their_stable_names() {
        assert_eq!(Code::SplatBeforeSetVl.as_str(), "AVA001");
        assert_eq!(Code::UncoveredPlaceholder.as_str(), "AVA002");
        assert_eq!(Code::ReadAfterDestroy.as_str(), "AVA003");
        assert_eq!(Code::NarrowDefWideUse.as_str(), "AVA004");
        assert_eq!(Code::UseBeforeDef.as_str(), "AVA101");
        assert_eq!(Code::Redefinition.as_str(), "AVA102");
        assert_eq!(Code::DeadStore.as_str(), "AVA103");
        assert_eq!(Code::UnusedDef.as_str(), "AVA104");
        assert_eq!(Code::OutOfArena.as_str(), "AVA201");
        assert_eq!(Code::StraddlesArena.as_str(), "AVA202");
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn display_includes_code_and_index() {
        let d = Diagnostic::new(Code::SplatBeforeSetVl, 3, "splat before any vsetvl");
        let s = d.to_string();
        assert!(s.contains("AVA001"), "{s}");
        assert!(s.contains("ir[3]"), "{s}");
        assert!(s.starts_with("error["), "{s}");
    }

    #[test]
    fn report_cleanliness_respects_the_threshold() {
        let mut r = AnalysisReport {
            kernel: "k".into(),
            diagnostics: vec![Diagnostic::new(Code::UnusedDef, 0, "unused")],
        };
        assert!(r.is_clean(Severity::Error));
        assert!(!r.is_clean(Severity::Warn));
        assert_eq!(r.worst().unwrap().code, Code::UnusedDef);
        r.diagnostics.clear();
        assert!(r.is_clean(Severity::Info));
        assert!(r.worst().is_none());
        assert!(r.to_string().contains("clean"));
    }
}
