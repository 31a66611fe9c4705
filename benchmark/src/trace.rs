//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own files, around its calls into each layer — name, start,
//! end, parent, request id — kept in memory, and written out when the run
//! ends. Spans inside the product crates are a later change.

use crate::json::{obj, Json};
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request the call belongs to (0: set-up, before any request).
    pub request: u32,
    /// Part of the chain that reproduces the front-door call. Spans off the
    /// chain time a layer in isolation (a coarse engine call the chain
    /// decomposes, a serving step outside the engine) and count toward no
    /// request total.
    pub on_chain: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A position in a [`Recorder`], between two requests.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    spans: usize,
    requests: u32,
}

/// Records spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; time zero is now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next request; spans recorded from here on carry its id.
    pub fn begin_request(&mut self) -> u32 {
        assert!(self.open.is_empty(), "request started inside a span");
        self.request += 1;
        self.request
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        on_chain: bool,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
            on_chain,
        });
        self.open.push(index);
        let start = self.now_ns();
        let value = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        value
    }

    /// Time `f` as a span on the request's chain; spans opened inside `f`
    /// become its children.
    pub fn chain<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.record(name, true, f)
    }

    /// Time `f` as a span beside the chain.
    pub fn aside<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.record(name, false, f)
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span from index `from` on: its duration minus the
    /// part its children cover. `from` must not split a span from its
    /// children (any point between two requests will do).
    fn self_times_ns(&self, from: usize) -> Vec<u64> {
        let tail = &self.spans[from..];
        let mut own: Vec<u64> = tail.iter().map(Span::duration_ns).collect();
        for span in tail {
            if let Some(p) = span.parent {
                let p = p as usize - from;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// A point between two requests, to reduce only what follows it.
    pub fn mark(&self) -> Mark {
        assert!(self.open.is_empty(), "mark taken inside a span");
        Mark {
            spans: self.spans.len(),
            requests: self.request,
        }
    }

    /// Per layer: the median, over the requests in which the layer ran, of
    /// the layer's total self time in that request — in nanoseconds.
    pub fn layer_medians_ns(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times_ns(0);
        let mut per_request: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *per_request.entry((span.name, span.request)).or_default() += own;
        }
        let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_request {
            per_layer.entry(name).or_default().push(ns as f64);
        }
        per_layer
            .into_iter()
            .map(|(name, samples)| (name, median(&samples)))
            .collect()
    }

    /// Per request started since `mark`, in order: the sum of the self
    /// times of its chain spans — what the layers say the request took.
    pub fn chain_totals_ns(&self, mark: Mark) -> Vec<u64> {
        let own = self.self_times_ns(mark.spans);
        let mut totals = vec![0u64; (self.request - mark.requests) as usize];
        for (span, own) in self.spans[mark.spans..].iter().zip(own) {
            if span.on_chain && span.request > mark.requests {
                totals[(span.request - mark.requests) as usize - 1] += own;
            }
        }
        totals
    }

    /// The spans as JSON rows `[name, start_ns, end_ns, parent, request,
    /// on_chain]`, at most `limit` of them (the file says how many there
    /// were).
    pub fn to_json(&self, limit: usize) -> Json {
        let rows = self.spans.iter().take(limit).map(|s| {
            Json::Arr(vec![
                Json::from(s.name),
                Json::from(s.start_ns),
                Json::from(s.end_ns),
                s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                Json::from(u64::from(s.request)),
                Json::from(s.on_chain),
            ])
        });
        obj([
            (
                "columns",
                Json::from(vec![
                    "name", "start_ns", "end_ns", "parent", "request", "on_chain",
                ]),
            ),
            ("recorded", Json::from(self.spans.len())),
            ("rows", Json::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, start, end, parent, request, on_chain)`.
    type Row = (&'static str, u64, u64, Option<u32>, u32, bool);

    /// A recorder with hand-written spans, in start order.
    fn recorded(spans: &[Row]) -> Recorder {
        let mut rec = Recorder::new();
        for &(name, start_ns, end_ns, parent, request, on_chain) in spans {
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
                on_chain,
            });
            rec.request = rec.request.max(request);
        }
        rec
    }

    #[test]
    fn spans_nest_and_carry_their_request() {
        let mut rec = Recorder::new();
        let start = rec.mark();
        assert_eq!(rec.begin_request(), 1);
        let value = rec.chain("outer", |rec| {
            rec.chain("inner", |_| ());
            rec.aside("probe", |_| 7)
        });
        assert_eq!(value, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["outer", "inner", "probe"]
        );
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0)]
        );
        assert_eq!(
            spans.iter().map(|s| s.on_chain).collect::<Vec<_>>(),
            [true, true, false]
        );
        assert!(spans.iter().all(|s| s.request == 1));
        // children start and end inside their parent
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert_eq!(rec.chain_totals_ns(start).len(), 1);
        assert_eq!(rec.begin_request(), 2);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = recorded(&[
            // request 1: outer 0..10 ms holds inner 2..5 ms and an aside 6..7 ms
            ("outer", 0, 10_000_000, None, 1, true),
            ("inner", 2_000_000, 5_000_000, Some(0), 1, true),
            ("probe", 6_000_000, 7_000_000, Some(0), 1, false),
            // request 2: one top-level span
            ("outer", 20_000_000, 21_500_000, None, 2, true),
        ]);
        assert_eq!(
            rec.self_times_ns(0),
            [6_000_000, 3_000_000, 1_000_000, 1_500_000]
        );
        // the chain total leaves the aside out: 6 + 3 ms, then 1.5 ms
        let all = Mark {
            spans: 0,
            requests: 0,
        };
        assert_eq!(rec.chain_totals_ns(all), [9_000_000, 1_500_000]);
        // a later mark sees only later requests
        let later = Mark {
            spans: 3,
            requests: 1,
        };
        assert_eq!(rec.chain_totals_ns(later), [1_500_000]);
    }

    #[test]
    fn layer_medians_are_per_request() {
        // two calls of one layer in one request add up; the median is over
        // requests: 2, 4 and 18 ms
        let mut spans = Vec::new();
        for (request, ms) in [(1u32, 1u64), (2, 2), (3, 9)] {
            let base = u64::from(request) * 100_000_000;
            spans.push(("layer", base, base + ms * 1_000_000, None, request, true));
            spans.push((
                "layer",
                base + 50_000_000,
                base + 50_000_000 + ms * 1_000_000,
                None,
                request,
                true,
            ));
        }
        let rec = recorded(&spans);
        assert_eq!(rec.layer_medians_ns()["layer"], 4_000_000.0);
        let json = rec.to_json(4);
        assert_eq!(json.get("recorded").and_then(Json::as_f64), Some(6.0));
        assert_eq!(
            json.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }
}
