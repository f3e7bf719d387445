//! Spans recorded from the benchmark's own code around its calls into each
//! layer (choosing-metrics §4): name, start, end, the span that caused it
//! and the op it belongs to. Spans stay in memory until the run ends.
//!
//! The recorder is thread-local and off by default: with tracing off,
//! [`span`] is one flag test around the call, so the end-to-end runs and
//! the traced run execute the same benchmark code.

use crate::json::{obj, Value};
use std::cell::{Cell, RefCell};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request, library call, train step) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Runs `f`, recording a span around it when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let (parent, op) = (r.open.last().copied(), r.op);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let index = r.spans.len() - 1;
        r.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[index].end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.open.pop();
    });
    out
}

/// Median duration in ms of the spans with this name recorded on this
/// thread so far (0 when there is none).
pub fn median_ms(name: &str) -> f64 {
    RECORDER.with(|r| crate::stats::median(&durations_ms(&r.borrow().spans, name)))
}

/// Number of spans recorded on this thread so far.
pub fn len() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Drops the spans recorded after the first `len` (none may still be open).
pub fn truncate(len: usize) {
    RECORDER.with(|r| r.borrow_mut().spans.truncate(len));
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap — they are
/// sequential calls on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations in milliseconds of every span with this name.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// The trace file: every span with its self time.
pub fn to_json(spans: &[Span]) -> Value {
    let own = self_times_ns(spans);
    Value::Arr(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                obj([
                    ("id", Value::from(id)),
                    ("name", Value::from(s.name)),
                    ("op", Value::from(s.op)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("self_ns", Value::from(self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ prepare [10,60] ⊃ parse [10,30], raster [30,55];
        // op ⊃ forward [60,95] (sibling of prepare).
        let spans = vec![
            at("op", 0, 100, None),
            at("prepare", 10, 60, Some(0)),
            at("parse", 10, 30, Some(1)),
            at("raster", 30, 55, Some(1)),
            at("forward", 60, 95, Some(0)),
        ];
        // op: 100 − 50 − 35 (grandchildren are not subtracted twice);
        // prepare: 50 − 20 − 25; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![15, 5, 20, 25, 35]);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        let _ = take();
        let out = span("off", || 7);
        assert_eq!(out, 7);
        assert!(take().is_empty(), "a span was recorded with tracing off");

        set_enabled(true);
        set_op(3);
        span("outer", || {
            span("first", || ());
            span("second", || span("inner", || ()));
        });
        set_enabled(false);
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 3),
                ("first", Some(0), 3),
                ("second", Some(0), 3),
                ("inner", Some(2), 3)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let own = self_times_ns(&spans);
        assert!(own[0] <= spans[0].duration_ns());
    }
}
