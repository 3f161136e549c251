//! In-memory spans recorded at the layer boundaries, and the self-time
//! arithmetic over them.
//!
//! A span is `(layer, name, start, end, parent, op)` plus the counts the
//! layer reported for that call, so ratios are measured where the work
//! happens. Spans of one timed op share its index. Nothing is written until
//! the run ends ([`Tracer::write_json`]).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of the five simulated phases inside [`Counts::sim_ns`], in the
/// simulator's reporting order.
pub const PHASES: [&str; 5] = ["host", "pim", "cpc", "ipc", "reduce"];

/// What a layer reported for one call. Simulated quantities are exact and
/// repeat bit for bit; none of them is a host time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Simulated nanoseconds per phase, indexed like [`PHASES`].
    pub sim_ns: [f64; 5],
    /// Simulated bytes forwarded between PIM modules.
    pub ipc_bytes: u64,
    /// Simulated bytes over the CPU-PIM bus, both directions.
    pub cpc_bytes: u64,
    /// Simulated forwarded inter-PIM messages.
    pub ipc_messages: u64,
    /// Frontier expansions of a query call.
    pub expansions: u64,
    /// Matched (source, destination) pairs of a query call.
    pub matched_pairs: u64,
    /// Edges an update call actually changed.
    pub edges_applied: u64,
}

impl Counts {
    /// Total simulated nanoseconds, summed in phase order.
    pub fn sim_total_ns(&self) -> f64 {
        self.sim_ns.iter().sum()
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (crate) the call entered: `harness`, `server`, `durable`,
    /// `core`, `rpq`.
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The timed op this call served.
    pub op: u32,
    /// What the layer reported.
    pub counts: Counts,
}

impl Span {
    /// Wall-clock length of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. One per traced pass; engines wrapped at different
/// layers share it through [`SharedTracer`], which is what links a child to
/// the call that caused it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// A tracer shared between the harness loop and the engine adapters (the
/// serving tier requires its engine to be `Send`).
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    /// Creates an empty tracer whose clock starts now.
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))
    }

    /// Sets the op index stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under whichever span is currently open.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            counts: Counts::default(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32, counts: Counts) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.counts = counts;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON array, a span per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{},\"sim_ns\":{},\"expansions\":{},\"edges_applied\":{}}}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.counts.sim_total_ns(),
                s.counts.expansions,
                s.counts.edges_applied
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span (or bare when the pass is untraced).
pub fn spanned<T>(
    tracer: Option<&SharedTracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let Some(tracer) = tracer else { return f() };
    let id = tracer.lock().expect("tracer poisoned").enter(layer, name);
    let out = f();
    tracer.lock().expect("tracer poisoned").exit(id, Counts::default());
    out
}

/// A span's self time: its length minus the part of its interval that its
/// children cover. Children may overlap each other, nest, touch, or stick
/// out of the parent; the covered part is the length of their union clipped
/// to the parent.
pub fn self_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

/// Self time of every span, aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans.iter().zip(&children).map(|(s, c)| self_ns((s.start_ns, s.end_ns), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_ns((10, 110), &[]), 100);
    }

    #[test]
    fn adjacent_children_add_up() {
        assert_eq!(self_ns((0, 100), &[(10, 30), (30, 60)]), 50);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(self_ns((0, 100), &[(10, 50), (40, 70)]), 40);
        // Order of the children does not matter.
        assert_eq!(self_ns((0, 100), &[(40, 70), (10, 50)]), 40);
    }

    #[test]
    fn a_child_nested_in_another_adds_nothing() {
        assert_eq!(self_ns((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_ns((50, 100), &[(0, 60), (90, 200), (300, 400)]), 30);
        assert_eq!(self_ns((50, 100), &[(0, 500)]), 0);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let shared = Tracer::shared();
        let mut t = shared.lock().unwrap();
        t.set_op(3);
        let a = t.enter("server", "execute");
        let b = t.enter("core", "rpq_batch");
        t.exit(b, Counts { expansions: 5, ..Counts::default() });
        let c = t.enter("core", "rpq_batch_planned");
        t.exit(c, Counts::default());
        t.exit(a, Counts::default());
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        assert_eq!(spans[1].counts.expansions, 5);
        let selfs = self_times(spans);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
    }
}
