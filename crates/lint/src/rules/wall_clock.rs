//! D2 `wall-clock-in-sim`: wall-clock and entropy sources anywhere in the
//! workspace.
//!
//! Every latency the system reports is *simulated* (`SimTime` from the
//! pim-sim cost model), the experiment binaries of `crates/bench` included;
//! the one place that reads real clocks is the `perf/` benchmark harness, a
//! package of its own outside the analyzed tree. A wall-clock read or an
//! entropy source under `crates/` either leaks run-dependent values into
//! outputs or silently replaces the cost model.

use crate::engine::{FileClass, FileMeta, SourceFile};
use crate::lexer::TokKind;
use crate::rules::{RawFinding, Rule};

/// The D2 rule value.
pub struct WallClockInSim;

/// Identifiers that are wall-clock reads only when called as `X::now` (the
/// plain type name also appears in harmless type positions, but importing
/// `Instant` without calling `now` is pointless, so flagging the call site
/// alone keeps the signal precise).
const CLOCK_CALLS: &[&str] = &["Instant", "SystemTime"];

/// Identifiers that are entropy/wall-clock sources wherever they appear.
const ENTROPY: &[&str] = &["UNIX_EPOCH", "thread_rng", "from_entropy", "getrandom", "RandomState"];

impl Rule for WallClockInSim {
    fn id(&self) -> &'static str {
        "wall-clock-in-sim"
    }

    fn summary(&self) -> &'static str {
        "Instant::now/SystemTime/entropy sources in the workspace (wall-clock belongs in perf/)"
    }

    fn applies(&self, meta: &FileMeta) -> bool {
        meta.class != FileClass::Test
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            let flagged = if CLOCK_CALLS.contains(&name) {
                toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == "::")
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident && n.text == "now")
            } else {
                ENTROPY.contains(&name)
            };
            if flagged {
                out.push(RawFinding {
                    line: t.line,
                    message: format!("wall-clock/entropy source `{name}` in simulation code"),
                    hint: "simulated latencies must come from the SimTime cost model; wall-clock \
                           timing belongs in perf/, or justify: \
                           // moctopus-lint: allow(wall-clock-in-sim, reason = \"...\")"
                        .to_string(),
                });
            }
        }
    }
}
