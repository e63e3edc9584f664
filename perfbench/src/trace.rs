//! The traced run's spans: one root per operation, with a child around
//! the layer call the benchmark makes. Kept in memory during the run and
//! written out as JSON lines when it ends.

use std::io::Write as _;
use std::path::Path;

use crate::gen::KIND_NAMES;

/// Operations per thread whose spans are kept and written out.
pub const SPAN_CAP: usize = 4096;

/// One operation's root span and its child, in nanoseconds since the
/// phase began.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Client thread.
    pub thread: u8,
    /// The thread's operation count when it sent this one.
    pub seq: u64,
    /// Operation kind (index into [`KIND_NAMES`]).
    pub kind: u8,
    /// Key operated on.
    pub key: u32,
    /// The operation as the client thread saw it, checks included.
    pub root: (u64, u64),
    /// The call into the layer under test.
    pub child: (u64, u64),
}

/// A span in flat form: `parent` names the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The causing span; `None` for a root.
    pub parent: Option<u64>,
    /// `op.<kind>` for roots, `<layer>.<kind>` for children.
    pub name: String,
    /// Client thread.
    pub thread: u8,
    /// Key operated on.
    pub key: u32,
    /// Start, ns since the phase began.
    pub start: u64,
    /// End, ns since the phase began.
    pub end: u64,
}

/// Expand records into flat spans; children are named after `layer`.
pub fn flatten(recs: &[SpanRec], layer: &str) -> Vec<Span> {
    let mut out = Vec::with_capacity(recs.len() * 2);
    for r in recs {
        let root = (u64::from(r.thread) << 48) | r.seq << 1;
        let kind = KIND_NAMES[r.kind as usize];
        out.push(Span {
            id: root,
            parent: None,
            name: format!("op.{kind}"),
            thread: r.thread,
            key: r.key,
            start: r.root.0,
            end: r.root.1,
        });
        out.push(Span {
            id: root | 1,
            parent: Some(root),
            name: format!("{layer}.{kind}"),
            thread: r.thread,
            key: r.key,
            start: r.child.0,
            end: r.child.1,
        });
    }
    out
}

/// Check that spans form one tree per operation: every child names an
/// existing root, lies inside it, shares its thread and key, and every
/// root has exactly one child.
pub fn check_nesting(spans: &[Span]) -> Result<usize, String> {
    use std::collections::HashMap;
    let roots: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.id, s))
        .collect();
    let mut children: HashMap<u64, usize> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let p = s.parent.unwrap_or_default();
        let root = roots
            .get(&p)
            .ok_or_else(|| format!("span {} has no root {p}", s.id))?;
        if s.start < root.start || s.end > root.end || s.start > s.end {
            return Err(format!(
                "span {} [{}, {}] escapes its root [{}, {}]",
                s.id, s.start, s.end, root.start, root.end
            ));
        }
        if s.thread != root.thread || s.key != root.key {
            return Err(format!("span {} differs from its root's operation", s.id));
        }
        *children.entry(p).or_default() += 1;
    }
    for id in roots.keys() {
        if children.get(id) != Some(&1) {
            return Err(format!("root {id} has {:?} children", children.get(id)));
        }
    }
    Ok(roots.len())
}

/// Write the spans as JSON lines.
pub fn write(path: &Path, recs: &[SpanRec], layer: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in flatten(recs, layer) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.thread, s.key, s.start, s.end
        )?;
    }
    w.flush()
}
