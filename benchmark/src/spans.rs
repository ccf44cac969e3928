//! Host-time spans recorded by the harness around the calls it makes.
//!
//! The traced repetition runs `Sequential` on one thread, so the recorder
//! is a thread-local: a span is `(name, start, end, parent, workstation)`,
//! the parent is whatever span was open when this one started, and
//! everything stays in memory until the run ends. A layer's self time is
//! its span's duration minus the part of that interval its children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder was
/// switched on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<u32>,
    /// Workstation the work was done for (`u32::MAX` for the root).
    pub ws: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Switches recording on for this thread, discarding any earlier spans.
pub fn start_recording() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Switches recording off and hands back everything recorded.
pub fn finish_recording() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Opens a span under the innermost open one. A no-op (no clock read)
/// while recording is off.
pub fn enter(name: &'static str, ws: u32) -> SpanGuard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return SpanGuard(None);
        };
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied();
        rec.open.push(id);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping lands in the parent's self time.
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            ws,
        });
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.spans[id as usize].end_ns = end_ns;
                rec.open.retain(|&open| open != id);
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children are clipped to the parent's edges and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One JSON line per span, in recording order (ids are line numbers).
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let ws = if s.ws == u32::MAX {
            "null".to_string()
        } else {
            s.ws.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ws\":{ws}}}",
            s.name, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            ws: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children that overlap each other between 30 and 40.
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // A grandchild takes from `a`, not from the root.
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parents_edges() {
        let spans = vec![
            span("parent", 100, 200, None),
            // Starts before and ends after the parent: covers all of it.
            span("wide", 50, 250, Some(0)),
            span("late", 190, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = vec![
            span("parent", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn zero_length_spans_cost_nothing() {
        let spans = vec![
            span("parent", 10, 20, None),
            span("empty", 15, 15, Some(0)),
            span("empty-at-edge", 20, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 0, 0]);
        let spans = vec![span("empty-parent", 5, 5, None), span("kid", 5, 5, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 0]);
    }

    #[test]
    fn recorder_nests_and_is_off_by_default() {
        drop(enter("ignored", 0));
        assert!(finish_recording().is_empty());

        start_recording();
        {
            let _root = enter("root", u32::MAX);
            {
                let _op = enter("op", 3);
                drop(enter("call", 3));
            }
            drop(enter("op", 4));
        }
        let spans = finish_recording();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.ws)).collect();
        assert_eq!(
            shape,
            vec![
                ("root", None, u32::MAX),
                ("op", Some(0), 3),
                ("call", Some(1), 3),
                ("op", Some(0), 4),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(render_jsonl(&spans).lines().count() == 4);
    }
}
