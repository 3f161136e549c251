//! The rule registry. Each rule is one module; `all_rules` is the single
//! place a new rule is wired in (see ANALYSIS.md "Adding a rule").

use crate::engine::{FileMeta, SourceFile};

mod fsync_rename;
mod hash_iter;
mod panic_lib;
mod stdout_leak;
mod wall_clock;

/// A rule-produced finding before engine post-processing (test-region
/// filtering, exemption matching, path stamping).
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// One-line statement of the violation.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

/// One contract rule.
pub trait Rule {
    /// Stable identifier used in output and `allow(...)` directives.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Does the rule scan this file at all?
    fn applies(&self, meta: &FileMeta) -> bool;
    /// Scans the file, appending findings.
    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>);
}

/// Every registered rule, in catalogue order D1..D6 (D3 is retired).
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(hash_iter::HashIterOrder),
        Box::new(wall_clock::WallClockInSim),
        Box::new(panic_lib::PanicInLib),
        Box::new(fsync_rename::FsyncBeforeRename),
        Box::new(stdout_leak::StdoutThreadLeak),
    ]
}

/// Is `rule` a valid target for an `allow(...)` directive?
pub fn is_known_rule(rule: &str) -> bool {
    all_rules().iter().any(|r| r.id() == rule)
}
