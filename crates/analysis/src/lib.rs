//! # plim-analysis — static analyzer and lint framework for PLiM artifacts
//!
//! The analyses themselves live in [`plim_compiler::ir::analysis`], so the
//! compiler's own checks and this crate run the same code; this crate
//! re-exports them and adds the lint policy and reporting around them.
//! They cover the compiler's two artifact forms:
//!
//! * the **IR event stream** ([`plim_compiler::ir::IrProgram`]) — analyzed
//!   by [`analyze_events`], one linear dataflow pass tracking per-cell
//!   abstract state;
//! * the **emitted program** ([`plim_compiler::Rm3Program`]) —
//!   analyzed by [`analyze_program`], the one init-discipline dataflow
//!   (`verify::check_init_discipline` is its first instruction finding);
//!
//! plus **resource certification** ([`certify`] / [`cross_check`]): the
//! event stream is replayed through a fresh allocator — independently of
//! the emitter — re-deriving `#I`, `#R`, and the per-cell wear profile,
//! which must agree *exactly* with the recorded
//! [`Rm3Stats`](plim_compiler::Rm3Stats) and the program's static
//! write counts. Any disagreement is a `PA0008` diagnostic: the stats the
//! benchmarks trust no longer describe the artifact.
//!
//! [`analyze_artifact`] bundles all three over a
//! [`plim_compiler::Compilation`]. It is the battery behind both the
//! `lint_clean` benchmark column and `plimc lint`, which wraps it in a CLI
//! with per-lint `--deny`/`--allow` ([`LintConfig`]) and text/JSON
//! reports ([`Report`]).
//!
//! The [`doctor`] module deliberately corrupts event streams (e.g.
//! injecting a write-after-release) so CI can prove the analyzer actually
//! rejects bad artifacts rather than vacuously passing good ones.

use plim_compiler::json::Value as Json;

pub use plim_compiler::ir::analysis::{
    analyze_artifact, analyze_events, analyze_program, cross_check, introduces, lint_counts,
    AnalysisConfig, Diagnostic, Lint, Severity, LINT_COUNT,
};

pub mod doctor;

/// Resource certification: [`certify`] re-derives `#I`, `#R` and the
/// per-cell wear profile (a [`Certificate`]) from the event stream alone,
/// by replaying it through a fresh allocator of the program's strategy —
/// no numbers are taken from the emitter or from
/// [`Rm3Stats`](plim_compiler::Rm3Stats). It returns `None` exactly on the
/// malformed streams [`analyze_events`] reports structural errors on.
pub use plim_compiler::ir::{replay as certify, Replay as Certificate};

/// Per-lint severity policy: `--deny` promotes a lint to [`Severity::Error`],
/// `--allow` suppresses it entirely. Later settings win over earlier ones
/// for the same lint.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    denied: Vec<Lint>,
    allowed: Vec<Lint>,
}

impl LintConfig {
    /// The default policy: every lint at its built-in severity.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Treats `lint` as an error regardless of its default severity.
    pub fn deny(&mut self, lint: Lint) {
        self.allowed.retain(|&l| l != lint);
        if !self.denied.contains(&lint) {
            self.denied.push(lint);
        }
    }

    /// Suppresses `lint` entirely.
    pub fn allow(&mut self, lint: Lint) {
        self.denied.retain(|&l| l != lint);
        if !self.allowed.contains(&lint) {
            self.allowed.push(lint);
        }
    }

    /// The severity `lint` is reported at, or `None` if suppressed.
    pub fn effective(&self, lint: Lint) -> Option<Severity> {
        if self.allowed.contains(&lint) {
            return None;
        }
        if self.denied.contains(&lint) {
            return Some(Severity::Error);
        }
        Some(lint.severity())
    }
}

/// A rendered lint run over one artifact: the diagnostics that survived
/// the [`LintConfig`], each with its effective severity.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was analyzed (a circuit name or file path).
    pub subject: String,
    /// Surviving findings with their effective severities, in input order.
    pub findings: Vec<(Severity, Diagnostic)>,
    /// Number of findings the config suppressed.
    pub suppressed: usize,
}

impl Report {
    /// Applies `config` to raw diagnostics.
    pub fn new(
        subject: impl Into<String>,
        diags: impl IntoIterator<Item = Diagnostic>,
        config: &LintConfig,
    ) -> Report {
        let mut findings = Vec::new();
        let mut suppressed = 0usize;
        for diag in diags {
            match config.effective(diag.lint) {
                Some(severity) => findings.push((severity, diag)),
                None => suppressed += 1,
            }
        }
        Report {
            subject: subject.into(),
            findings,
            suppressed,
        }
    }

    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|(s, _)| *s == Severity::Error)
            .count()
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// `true` if no findings survived — warnings included.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` if the run should fail (any error-level finding).
    pub fn failing(&self) -> bool {
        self.errors() > 0
    }

    /// Renders the report as a JSON object — the `plimc lint --json`
    /// element format. Each diagnostic carries its *effective* severity.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<u64>| match v {
            Some(n) => Json::number(n),
            None => Json::Null,
        };
        let diagnostics = self
            .findings
            .iter()
            .map(|(severity, diag)| {
                Json::object([
                    ("lint", Json::string(diag.lint.code())),
                    ("name", Json::string(diag.lint.name())),
                    ("severity", Json::string(severity.name())),
                    ("event", opt_num(diag.event.map(|e| e as u64))),
                    ("cell", opt_num(diag.cell.map(|c| u64::from(c.0)))),
                    ("node", opt_num(diag.node.map(|n| n.index() as u64))),
                    ("message", Json::string(diag.message.clone())),
                ])
            })
            .collect();
        Json::object([
            ("subject", Json::string(self.subject.clone())),
            ("clean", Json::Bool(self.clean())),
            ("failing", Json::Bool(self.failing())),
            ("errors", Json::number(self.errors() as u64)),
            ("warnings", Json::number(self.warnings() as u64)),
            ("suppressed", Json::number(self.suppressed as u64)),
            ("diagnostics", Json::Array(diagnostics)),
        ])
    }
}

impl std::fmt::Display for Report {
    /// The `plimc lint` text format: a one-line verdict, then one indented
    /// line per finding.
    ///
    /// ```text
    /// adder4: 1 error, 2 warnings
    ///   error[PA0002]: event 17: op writes %3 after its release
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let suppressed = match self.suppressed {
            0 => String::new(),
            n => format!(" ({n} suppressed)"),
        };
        if self.clean() {
            return write!(f, "{}: clean{suppressed}", self.subject);
        }
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        let (errors, warnings) = (self.errors(), self.warnings());
        write!(f, "{}: ", self.subject)?;
        match (errors, warnings) {
            (0, w) => write!(f, "{w} warning{}", plural(w))?,
            (e, 0) => write!(f, "{e} error{}", plural(e))?,
            (e, w) => write!(f, "{e} error{}, {w} warning{}", plural(e), plural(w))?,
        }
        write!(f, "{suppressed}")?;
        for (severity, diag) in &self.findings {
            write!(
                f,
                "\n  {}[{}]: {}",
                severity.name(),
                diag.lint.code(),
                diag.message
            )?;
            if let Some(node) = diag.node {
                write!(f, " (node N{})", node.index())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_config_precedence_is_last_wins() {
        let mut config = LintConfig::new();
        config.deny(Lint::StaleComplement);
        assert_eq!(
            config.effective(Lint::StaleComplement),
            Some(Severity::Error)
        );
        config.allow(Lint::StaleComplement);
        assert_eq!(config.effective(Lint::StaleComplement), None);
        config.deny(Lint::StaleComplement);
        assert_eq!(
            config.effective(Lint::StaleComplement),
            Some(Severity::Error)
        );
        // Untouched lints keep their defaults.
        assert_eq!(config.effective(Lint::DeadWrite), Some(Severity::Warning));
        assert_eq!(
            config.effective(Lint::UseAfterRelease),
            Some(Severity::Error)
        );
    }

    #[test]
    fn report_counts_and_rendering() {
        let diag = |lint: Lint, message: &str| Diagnostic {
            lint,
            event: Some(3),
            cell: None,
            node: None,
            message: message.into(),
        };
        let mut config = LintConfig::new();
        config.allow(Lint::DeadWrite);
        let report = Report::new(
            "adder",
            [
                diag(Lint::UseAfterRelease, "boom"),
                diag(Lint::StaleComplement, "meh"),
                diag(Lint::DeadWrite, "gone"),
            ],
            &config,
        );
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.suppressed, 1);
        assert!(report.failing());
        assert!(!report.clean());
        let text = report.to_string();
        assert!(text.starts_with("adder: 1 error, 1 warning (1 suppressed)"));
        assert!(text.contains("error[PA0002]: boom"));
        assert!(text.contains("warning[PA0005]: meh"));
        assert!(!text.contains("PA0006"));
        let json = report.to_json().to_json();
        assert!(json.contains("\"failing\":true"));
        assert!(json.contains("\"suppressed\":1"));
    }

    #[test]
    fn clean_report_renders_and_passes() {
        let report = Report::new("xor", [], &LintConfig::new());
        assert!(report.clean());
        assert!(!report.failing());
        assert_eq!(report.to_string(), "xor: clean");
        assert!(report.to_json().to_json().contains("\"clean\":true"));
    }
}
