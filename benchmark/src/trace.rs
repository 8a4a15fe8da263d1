//! Spans around the benchmark's calls into each crate.
//!
//! The driver is single-threaded, so one stack of open spans gives
//! every span its parent. Spans live in memory until the run ends; a
//! span's self time is its duration minus what its children cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Calls, total and self time of every span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: &'static str,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off (the traced pass alternates to
    /// measure what recording costs).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Run `f`, return its result and its wall time in seconds, and —
    /// when recording — keep a span named `name` under the innermost
    /// open span.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled.get() {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                start_us: self.origin.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_us = spans[id].start_us + secs * 1e6;
        (out, secs)
    }

    /// [`Tracer::timed`] for callers that only want the result.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per-name totals, sorted by name.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let spans = self.spans.borrow();
        let mut child_us = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let e = by_name.entry(s.name).or_insert(LayerTime {
                name: s.name,
                calls: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            e.calls += 1;
            e.total_s += dur / 1e6;
            e.self_s += (dur - child_us[i]).max(0.0) / 1e6;
        }
        by_name.into_values().collect()
    }

    /// Every span (`id` = array index) plus the per-name summary.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.borrow();
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("name", Json::str(s.name)),
                                ("start_us", Json::Num(s.start_us)),
                                ("end_us", Json::Num(s.end_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Arr(
                    self.layer_times()
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("name", Json::str(l.name)),
                                ("calls", Json::Num(l.calls as f64)),
                                ("total_s", Json::Num(l.total_s)),
                                ("self_s", Json::Num(l.self_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_parents_are_recorded() {
        let tr = Tracer::new(true);
        tr.span("outer", || {
            std::thread::sleep(Duration::from_millis(4));
            tr.span("inner", || std::thread::sleep(Duration::from_millis(8)));
            tr.span("inner", || std::thread::sleep(Duration::from_millis(8)));
        });
        let layers = tr.layer_times();
        let outer = layers.iter().find(|l| l.name == "outer").unwrap();
        let inner = layers.iter().find(|l| l.name == "inner").unwrap();
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!(inner.total_s >= 0.016);
        assert!(outer.total_s >= inner.total_s + 0.004);
        assert!(outer.self_s < outer.total_s - 0.015);
        let json = tr.to_json("w");
        let spans = json.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(tr.span_count(), 0);
    }
}
