//! Std-only observability substrate (the paper's Section 4 methodology as a
//! library).
//!
//! The paper characterizes its code almost entirely through measurement:
//! per-phase wall-clock breakdowns of the time loop, sustained Mflop/s per
//! PE, and communication-vs-compute ratios. This crate provides the
//! counterpart for the reproduction — a per-rank [`Registry`] of
//!
//! - **span timers** with nested scopes ([`Registry::span`] /
//!   [`Registry::enter`]/[`Registry::exit`]): each span accumulates call
//!   count, total wall time and the time spent in *child* spans, so a
//!   breakdown can report exclusive (self) time per phase,
//! - **monotonic counters** and **gauges** ([`Registry::add`],
//!   [`Registry::set`], [`Registry::gauge`]) for flop/byte/cache-event
//!   accounting,
//! - **fixed-bucket log-scale histograms** ([`Registry::observe`]) with
//!   p50/p95/p99 quantile readout,
//! - **NDJSON events** ([`Registry::event`]) for iteration traces
//!   (Gauss-Newton convergence histories, etc.),
//!
//! serialized to NDJSON ([`Registry::ndjson`], the one artifact format),
//! and reduced across SPMD ranks with min/max/mean semantics via
//! `quake-parcomm` ([`reduce::try_reduce_across_ranks`]).
//!
//! # Cost discipline
//!
//! Telemetry is compiled in, never `cfg`'d out, so the *disabled* path must
//! be near-free: every public method checks a single `enabled` flag and
//! returns before touching the `RefCell`. Hot loops additionally intern
//! their span/counter names once ([`Registry::span_id`],
//! [`Registry::counter_id`]) so the steady state performs no string lookups
//! and no allocations — an enabled span costs two `Instant::now` calls and a
//! few integer updates. `bench_step --check-overhead` guards the enabled
//! overhead end to end.
//!
//! A `Registry` is deliberately `Send` but not `Sync`: in SPMD runs each
//! rank owns its registry (exactly like per-rank counters in an MPI code)
//! and cross-rank aggregation is an explicit reduction, not shared state.

#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod reduce;
pub mod trace;

pub use hist::Histogram;
pub use reduce::{try_reduce_across_ranks, ReduceError, Reduced};
pub use trace::{TraceBuffer, TraceEvent, TraceKind};

use trace::{RawEvent, TraceRing};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Interned span handle (see [`Registry::span_id`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// Interned counter handle (see [`Registry::counter_id`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrId(u32);

/// Accumulated statistics of one span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed enter/exit pairs.
    pub count: u64,
    /// Total (inclusive) wall time, nanoseconds.
    pub total_ns: u64,
    /// Wall time spent inside child spans, nanoseconds.
    pub child_ns: u64,
}

impl SpanStats {
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Exclusive (self) time: total minus time attributed to children.
    pub fn self_secs(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

struct Frame {
    id: u32,
    start: Instant,
    /// Nanoseconds accumulated by direct children while this frame was open.
    child_ns: u64,
}

#[derive(Default)]
struct Inner {
    span_ids: BTreeMap<String, u32>,
    span_names: Vec<String>,
    spans: Vec<SpanStats>,
    stack: Vec<Frame>,
    ctr_ids: BTreeMap<String, u32>,
    ctr_names: Vec<String>,
    ctrs: Vec<u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    events: Vec<String>,
    /// Flight recorder, present only after [`Registry::enable_trace`].
    ring: Option<TraceRing>,
}

impl Inner {
    fn span_slot(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.span_ids.get(name) {
            return id;
        }
        let id = self.span_names.len() as u32;
        self.span_ids.insert(name.to_string(), id);
        self.span_names.push(name.to_string());
        self.spans.push(SpanStats::default());
        id
    }

    fn ctr_slot(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ctr_ids.get(name) {
            return id;
        }
        let id = self.ctr_names.len() as u32;
        self.ctr_ids.insert(name.to_string(), id);
        self.ctr_names.push(name.to_string());
        self.ctrs.push(0);
        id
    }
}

/// Per-rank metric registry. See the crate docs for the model.
pub struct Registry {
    enabled: bool,
    rank: usize,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Registry {
    /// An enabled registry for `rank`.
    pub fn new(rank: usize) -> Registry {
        Registry::with_epoch(rank, Instant::now())
    }

    /// An enabled registry whose timestamps (events, trace slices) are
    /// relative to a caller-supplied epoch. SPMD drivers pass one shared
    /// epoch to every rank so the per-rank flight recorders merge onto a
    /// single timeline.
    pub fn with_epoch(rank: usize, epoch: Instant) -> Registry {
        Registry { enabled: true, rank, epoch, inner: RefCell::default() }
    }

    /// A disabled registry: every operation is a checked no-op (one branch).
    pub fn disabled() -> Registry {
        Registry { enabled: false, rank: 0, epoch: Instant::now(), inner: RefCell::default() }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The instant all relative timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the registry epoch to `t` (saturating at zero).
    pub fn since_epoch_ns(&self, t: Instant) -> u64 {
        TraceRing::offset_ns(self.epoch, t)
    }

    // ---- spans ----

    /// Intern a span name; the returned id makes [`Registry::enter`] /
    /// [`Registry::exit`] allocation- and lookup-free. On a disabled
    /// registry the id is a dummy.
    pub fn span_id(&self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        SpanId(self.inner.borrow_mut().span_slot(name))
    }

    /// Open the span. Must be matched by [`Registry::exit`] with the same id
    /// (spans strictly nest; the stack enforces it).
    #[inline]
    pub fn enter(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.borrow_mut();
        g.stack.push(Frame { id: id.0, start: Instant::now(), child_ns: 0 });
    }

    /// Close the span, accumulating its elapsed time and attributing it to
    /// the parent's child-time account.
    #[inline]
    pub fn exit(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.borrow_mut();
        // A missing frame is instrumentation misuse, not a runtime failure:
        // debug builds trip, release builds drop the exit (the span simply
        // never accumulates) rather than aborting a comm/recovery path.
        let Some(frame) = g.stack.pop() else {
            debug_assert!(false, "span exit without matching enter");
            return;
        };
        assert_eq!(frame.id, id.0, "span exit does not match the innermost open span");
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        let s = &mut g.spans[frame.id as usize];
        s.count += 1;
        s.total_ns += elapsed;
        s.child_ns += frame.child_ns;
        if let Some(parent) = g.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        if g.ring.is_some() {
            let t0_ns = TraceRing::offset_ns(self.epoch, frame.start);
            if let Some(ring) = g.ring.as_mut() {
                ring.push(RawEvent {
                    name: frame.id,
                    kind: TraceKind::Slice,
                    t0_ns,
                    dur_ns: elapsed,
                    arg: f64::NAN,
                });
            }
        }
    }

    /// Record an externally timed interval into span `id`: the duration adds
    /// to the span's statistics (and to the currently open span's child-time
    /// account, exactly as a nested enter/exit pair would), and a slice is
    /// pushed to the flight recorder when tracing is on. Used by the
    /// distributed exchange to attribute `wait` vs `copy` sub-intervals it
    /// measured itself; `t0_ns` is nanoseconds from the registry epoch (see
    /// [`Registry::since_epoch_ns`]).
    pub fn record_span(&self, id: SpanId, t0_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.borrow_mut();
        let s = &mut g.spans[id.0 as usize];
        s.count += 1;
        s.total_ns += dur_ns;
        if let Some(parent) = g.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        if let Some(ring) = g.ring.as_mut() {
            ring.push(RawEvent {
                name: id.0,
                kind: TraceKind::Slice,
                t0_ns,
                dur_ns,
                arg: f64::NAN,
            });
        }
    }

    /// RAII convenience: open a span by name, closed on guard drop.
    pub fn span<'a>(&'a self, name: &str) -> SpanGuard<'a> {
        let id = self.span_id(name);
        self.enter(id);
        SpanGuard { reg: self, id }
    }

    /// Statistics of a span by name (`None` if never interned).
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        let g = self.inner.borrow();
        g.span_ids.get(name).map(|&id| g.spans[id as usize])
    }

    // ---- counters / gauges ----

    /// Intern a counter name (same contract as [`Registry::span_id`]).
    pub fn counter_id(&self, name: &str) -> CtrId {
        if !self.enabled {
            return CtrId(u32::MAX);
        }
        CtrId(self.inner.borrow_mut().ctr_slot(name))
    }

    /// Add to an interned counter.
    #[inline]
    pub fn add_id(&self, id: CtrId, n: u64) {
        if !self.enabled {
            return;
        }
        self.inner.borrow_mut().ctrs[id.0 as usize] += n;
    }

    /// Add to a counter by name.
    pub fn add(&self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        let id = self.counter_id(name);
        self.add_id(id, n);
    }

    /// Set a counter to an absolute value (for exporting externally
    /// accumulated statistics, e.g. a pager's cache counters).
    pub fn set(&self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let id = self.counter_id(name);
        self.inner.borrow_mut().ctrs[id.0 as usize] = v;
    }

    /// Counter value by name (`None` if never touched).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let g = self.inner.borrow();
        g.ctr_ids.get(name).map(|&id| g.ctrs[id as usize])
    }

    /// Set a named floating-point gauge (last write wins).
    pub fn gauge(&self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        self.inner.borrow_mut().gauges.insert(name.to_string(), v);
    }

    /// Gauge value by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    // ---- histograms ----

    /// Record one observation into the named log-scale histogram.
    pub fn observe(&self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        self.inner.borrow_mut().hists.entry(name.to_string()).or_default().record(v);
    }

    /// Snapshot of a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().hists.get(name).cloned()
    }

    // ---- events ----

    /// Append an NDJSON event line: monotonic timestamp, rank, event name and
    /// numeric fields. The formatting round-trips `f64` exactly, so traces
    /// are reproducible from the log alone.
    pub fn event(&self, name: &str, fields: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let mut line = String::with_capacity(64 + 16 * fields.len());
        line.push_str("{\"t\":");
        json::push_f64(&mut line, self.epoch.elapsed().as_secs_f64());
        line.push_str(",\"rank\":");
        line.push_str(&self.rank.to_string());
        line.push_str(",\"event\":");
        json::push_str(&mut line, name);
        for (k, v) in fields {
            line.push(',');
            json::push_str(&mut line, k);
            line.push(':');
            json::push_f64(&mut line, *v);
        }
        line.push('}');
        self.inner.borrow_mut().events.push(line);
    }

    /// Number of recorded events.
    pub fn n_events(&self) -> usize {
        self.inner.borrow().events.len()
    }

    // ---- flight recorder ----

    /// Attach a fixed-capacity flight recorder: from now on every span exit
    /// (and [`Registry::record_span`] / [`Registry::trace_mark`]) also pushes
    /// a timestamped event into a preallocated ring that overwrites its
    /// oldest entry once full. No-op on a disabled registry; calling again
    /// replaces the ring.
    pub fn enable_trace(&self, capacity: usize) {
        if !self.enabled {
            return;
        }
        self.inner.borrow_mut().ring = Some(TraceRing::with_capacity(capacity));
    }

    /// Whether a flight recorder is attached (and the registry is enabled).
    pub fn trace_is_enabled(&self) -> bool {
        self.enabled && self.inner.borrow().ring.is_some()
    }

    /// Push an instantaneous mark (timestamped "now") with a payload value
    /// into the flight recorder. The name is a span-table id so marks share
    /// the span interner; a mark never touches the span statistics.
    pub fn trace_mark(&self, id: SpanId, arg: f64) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let mut g = self.inner.borrow_mut();
        if g.ring.is_none() {
            return;
        }
        let t0_ns = TraceRing::offset_ns(self.epoch, now);
        if let Some(ring) = g.ring.as_mut() {
            ring.push(RawEvent { name: id.0, kind: TraceKind::Mark, t0_ns, dur_ns: 0, arg });
        }
    }

    /// Resolve the flight recorder into name-bearing events (oldest →
    /// newest). Empty buffer if tracing was never enabled.
    pub fn trace_buffer(&self) -> TraceBuffer {
        let g = self.inner.borrow();
        let Some(ring) = g.ring.as_ref() else {
            return TraceBuffer { rank: self.rank, ..TraceBuffer::default() };
        };
        let events = ring
            .iter_ordered()
            .map(|ev| TraceEvent {
                name: g.span_names.get(ev.name as usize).cloned().unwrap_or_default(),
                kind: ev.kind,
                t0_ns: ev.t0_ns,
                dur_ns: ev.dur_ns,
                arg: if ev.arg.is_nan() { None } else { Some(ev.arg) },
            })
            .collect();
        TraceBuffer { rank: self.rank, capacity: ring.capacity(), dropped: ring.dropped(), events }
    }

    /// Fold every metric of `other` into this registry: span statistics and
    /// counters add, gauges take `other`'s value, histograms merge bucket-wise,
    /// events append in order. Used to merge a sub-component's registry (e.g.
    /// a solver workspace's) into a run-level one. No-op when either side is
    /// disabled; `other` must have no open spans.
    ///
    /// Name sets need not match: the result is the *union* — a metric known
    /// to only one side keeps its value, nothing is dropped. (Cross-rank
    /// reduction is stricter: [`reduce::try_reduce_across_ranks`] requires
    /// identical name sets and returns a typed error otherwise, because a
    /// positional element-wise reduction over diverging sets would silently
    /// pair unrelated metrics.) The flight recorder is per-rank state and is
    /// deliberately not merged here; export it via [`Registry::trace_buffer`]
    /// and merge buffers in [`json::chrome_trace`].
    pub fn absorb(&self, other: &Registry) {
        if !self.enabled || !other.enabled || std::ptr::eq(self, other) {
            return;
        }
        let o = other.inner.borrow();
        assert!(o.stack.is_empty(), "absorb of a registry with open spans");
        let mut g = self.inner.borrow_mut();
        for (name, &oid) in &o.span_ids {
            let os = o.spans[oid as usize];
            let id = g.span_slot(name);
            let s = &mut g.spans[id as usize];
            s.count += os.count;
            s.total_ns += os.total_ns;
            s.child_ns += os.child_ns;
        }
        for (name, &oid) in &o.ctr_ids {
            let id = g.ctr_slot(name);
            g.ctrs[id as usize] += o.ctrs[oid as usize];
        }
        for (name, &v) in &o.gauges {
            g.gauges.insert(name.clone(), v);
        }
        for (name, h) in &o.hists {
            g.hists.entry(name.clone()).or_default().merge(h);
        }
        g.events.extend(o.events.iter().cloned());
    }

    // ---- reset / snapshot / serialization ----

    /// Clear all accumulated statistics and events, keeping interned ids
    /// valid (e.g. to discard a warm-up trial).
    pub fn reset(&self) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.borrow_mut();
        assert!(g.stack.is_empty(), "reset with open spans");
        for s in g.spans.iter_mut() {
            *s = SpanStats::default();
        }
        for c in g.ctrs.iter_mut() {
            *c = 0;
        }
        g.gauges.clear();
        g.hists.clear();
        g.events.clear();
        if let Some(ring) = g.ring.as_mut() {
            ring.clear();
        }
    }

    /// Flat, name-sorted numeric snapshot of every metric — the unit of
    /// cross-rank reduction. Spans contribute `secs`/`self_secs`/`count`,
    /// counters and gauges their value, histograms count/mean/quantiles.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.borrow();
        let mut entries: Vec<(String, f64)> = Vec::new();
        for (name, &id) in &g.span_ids {
            let s = &g.spans[id as usize];
            entries.push((format!("span.{name}.secs"), s.total_secs()));
            entries.push((format!("span.{name}.self_secs"), s.self_secs()));
            entries.push((format!("span.{name}.count"), s.count as f64));
        }
        for (name, &id) in &g.ctr_ids {
            entries.push((format!("ctr.{name}"), g.ctrs[id as usize] as f64));
        }
        for (name, &v) in &g.gauges {
            entries.push((format!("gauge.{name}"), v));
        }
        for (name, h) in &g.hists {
            entries.push((format!("hist.{name}.count"), h.count() as f64));
            entries.push((format!("hist.{name}.mean"), h.mean()));
            entries.push((format!("hist.{name}.p50"), h.quantile(0.50)));
            entries.push((format!("hist.{name}.p95"), h.quantile(0.95)));
            entries.push((format!("hist.{name}.p99"), h.quantile(0.99)));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }

    /// NDJSON dump: one line per span/counter/gauge/histogram, then every
    /// recorded event line in order.
    pub fn ndjson(&self) -> String {
        let g = self.inner.borrow();
        let mut out = String::new();
        for (name, &id) in &g.span_ids {
            let sp = &g.spans[id as usize];
            out.push_str("{\"type\":\"span\",\"rank\":");
            out.push_str(&self.rank.to_string());
            out.push_str(",\"name\":");
            json::push_str(&mut out, name);
            out.push_str(",\"count\":");
            out.push_str(&sp.count.to_string());
            out.push_str(",\"secs\":");
            json::push_f64(&mut out, sp.total_secs());
            out.push_str(",\"self_secs\":");
            json::push_f64(&mut out, sp.self_secs());
            out.push_str("}\n");
        }
        for (name, &id) in &g.ctr_ids {
            out.push_str("{\"type\":\"counter\",\"rank\":");
            out.push_str(&self.rank.to_string());
            out.push_str(",\"name\":");
            json::push_str(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&g.ctrs[id as usize].to_string());
            out.push_str("}\n");
        }
        for (name, &v) in &g.gauges {
            out.push_str("{\"type\":\"gauge\",\"rank\":");
            out.push_str(&self.rank.to_string());
            out.push_str(",\"name\":");
            json::push_str(&mut out, name);
            out.push_str(",\"value\":");
            json::push_f64(&mut out, v);
            out.push_str("}\n");
        }
        for (name, h) in &g.hists {
            out.push_str("{\"type\":\"histogram\",\"rank\":");
            out.push_str(&self.rank.to_string());
            out.push_str(",\"name\":");
            json::push_str(&mut out, name);
            out.push_str(",\"stats\":");
            out.push_str(&h.to_json());
            out.push_str("}\n");
        }
        for e in &g.events {
            out.push_str(e);
            out.push('\n');
        }
        out
    }
}

/// RAII span guard returned by [`Registry::span`].
pub struct SpanGuard<'a> {
    reg: &'a Registry,
    id: SpanId,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.reg.exit(self.id);
    }
}

/// Flat, name-sorted numeric view of a registry (see [`Registry::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<(String, f64)>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)).ok().map(|i| self.entries[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_account_child_time_within_parent() {
        let reg = Registry::new(0);
        for _ in 0..5 {
            let _outer = reg.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = reg.span("outer/work");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            {
                let _inner = reg.span("outer/other");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let outer = reg.span_stats("outer").unwrap();
        let work = reg.span_stats("outer/work").unwrap();
        let other = reg.span_stats("outer/other").unwrap();
        assert_eq!(outer.count, 5);
        assert_eq!(work.count, 5);
        // Child time is fully contained in the parent's total...
        assert!(work.total_ns + other.total_ns <= outer.total_ns);
        // ...and equals the parent's child account exactly.
        assert_eq!(outer.child_ns, work.total_ns + other.total_ns);
        // Self time is positive (the parent slept 2ms per iteration itself).
        assert!(outer.self_secs() > 0.0);
        assert!(outer.self_secs() <= outer.total_secs());
        // Leaf spans have no children.
        assert_eq!(work.child_ns, 0);
    }

    #[test]
    fn interned_ids_match_string_api() {
        let reg = Registry::new(3);
        let id = reg.span_id("phase");
        reg.enter(id);
        reg.exit(id);
        let _g = reg.span("phase");
        drop(_g);
        assert_eq!(reg.span_stats("phase").unwrap().count, 2);
        let c = reg.counter_id("flops");
        reg.add_id(c, 10);
        reg.add("flops", 5);
        assert_eq!(reg.counter("flops"), Some(15));
        reg.set("flops", 7);
        assert_eq!(reg.counter("flops"), Some(7));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        {
            let _g = reg.span("anything");
            reg.add("ctr", 5);
            reg.gauge("g", 1.0);
            reg.observe("h", 2.0);
            reg.event("e", &[("x", 1.0)]);
        }
        assert!(reg.span_stats("anything").is_none());
        assert!(reg.counter("ctr").is_none());
        assert!(reg.gauge_value("g").is_none());
        assert!(reg.histogram("h").is_none());
        assert_eq!(reg.n_events(), 0);
        assert!(reg.snapshot().entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_exit_panics() {
        let reg = Registry::new(0);
        let a = reg.span_id("a");
        let b = reg.span_id("b");
        reg.enter(a);
        reg.exit(b);
    }

    #[test]
    fn events_serialize_as_ndjson() {
        let reg = Registry::new(1);
        reg.event("gn_iter", &[("iter", 0.0), ("misfit", 1.25e-3)]);
        reg.event("gn_iter", &[("iter", 1.0), ("misfit", 6.0e-4)]);
        let nd = reg.ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"gn_iter\""));
        assert!(lines[0].contains("\"iter\":0"));
        assert!(lines[1].contains("\"misfit\":0.0006"));
        assert!(lines[0].contains("\"rank\":1"));
    }

    #[test]
    fn snapshot_is_sorted_and_searchable() {
        let reg = Registry::new(0);
        reg.add("z_ctr", 3);
        reg.gauge("a_gauge", 2.5);
        {
            let _g = reg.span("mid");
        }
        reg.observe("h", 4.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.get("ctr.z_ctr"), Some(3.0));
        assert_eq!(snap.get("gauge.a_gauge"), Some(2.5));
        assert_eq!(snap.get("hist.h.count"), Some(1.0));
        assert_eq!(snap.get("span.mid.count"), Some(1.0));
        assert!(snap.get("nope").is_none());
    }

    #[test]
    fn reset_clears_stats_but_keeps_ids() {
        let reg = Registry::new(0);
        let id = reg.span_id("s");
        reg.enter(id);
        reg.exit(id);
        reg.add("c", 4);
        reg.event("e", &[]);
        reg.reset();
        assert_eq!(reg.span_stats("s").unwrap().count, 0);
        assert_eq!(reg.counter("c"), Some(0));
        assert_eq!(reg.n_events(), 0);
        // The old id is still valid after reset.
        reg.enter(id);
        reg.exit(id);
        assert_eq!(reg.span_stats("s").unwrap().count, 1);
    }

    #[test]
    fn absorb_merges_every_metric_kind() {
        let a = Registry::new(0);
        let b = Registry::new(0);
        for reg in [&a, &b] {
            let _g = reg.span("shared");
            reg.add("n", 10);
            reg.observe("h", 4.0);
        }
        {
            let _g = b.span("only_b");
        }
        a.gauge("g", 1.0);
        b.gauge("g", 2.0);
        b.event("ev", &[("x", 1.0)]);
        a.absorb(&b);
        // Spans sum by name; names unknown to `a` are interned.
        assert_eq!(a.span_stats("shared").unwrap().count, 2);
        assert_eq!(a.span_stats("only_b").unwrap().count, 1);
        // Counters add, gauges take the absorbed value, histograms merge,
        // events append.
        assert_eq!(a.counter("n"), Some(20));
        assert_eq!(a.gauge_value("g"), Some(2.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(a.n_events(), 1);
        // `b` is untouched, and self/disabled absorbs are no-ops.
        assert_eq!(b.counter("n"), Some(10));
        a.absorb(&a);
        assert_eq!(a.counter("n"), Some(20));
        a.absorb(&Registry::disabled());
        Registry::disabled().absorb(&a);
        assert_eq!(a.counter("n"), Some(20));
    }

    #[test]
    fn absorb_of_partially_overlapping_registries_is_a_union() {
        // Regression shape for the reduce-mismatch fix: merging registries
        // whose histogram/span/counter name sets only partially overlap must
        // keep everything (union), never silently drop the non-shared names.
        let a = Registry::new(0);
        let b = Registry::new(0);
        a.observe("shared_hist", 1.0);
        b.observe("shared_hist", 3.0);
        a.observe("only_a_hist", 10.0);
        b.observe("only_b_hist", 20.0);
        a.add("only_a_ctr", 1);
        b.add("only_b_ctr", 2);
        a.absorb(&b);
        assert_eq!(a.histogram("shared_hist").unwrap().count(), 2);
        assert_eq!(a.histogram("only_a_hist").unwrap().count(), 1);
        assert_eq!(a.histogram("only_b_hist").unwrap().count(), 1);
        assert_eq!(a.counter("only_a_ctr"), Some(1));
        assert_eq!(a.counter("only_b_ctr"), Some(2));
        // The union is visible in the snapshot (what reduction would see).
        let snap = a.snapshot();
        assert!(snap.get("hist.only_a_hist.count").is_some());
        assert!(snap.get("hist.only_b_hist.count").is_some());
    }

    #[test]
    fn span_exits_feed_the_flight_recorder() {
        let reg = Registry::new(1);
        reg.enable_trace(16);
        assert!(reg.trace_is_enabled());
        for _ in 0..3 {
            let _outer = reg.span("step");
            let _inner = reg.span("step/fill");
        }
        let buf = reg.trace_buffer();
        assert_eq!(buf.rank, 1);
        assert_eq!(buf.capacity, 16);
        assert_eq!(buf.dropped, 0);
        // Children exit before parents: fill, step, fill, step, ...
        let names: Vec<&str> = buf.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["step/fill", "step", "step/fill", "step", "step/fill", "step"]);
        assert!(buf.events.iter().all(|e| e.kind == TraceKind::Slice));
        // Timestamps are monotone in exit order for nested spans on one rank.
        assert!(buf.events.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns + w[1].dur_ns));
        // A child slice lies inside its parent slice.
        let (fill, step) = (&buf.events[0], &buf.events[1]);
        assert!(fill.t0_ns >= step.t0_ns);
        assert!(fill.t0_ns + fill.dur_ns <= step.t0_ns + step.dur_ns);
    }

    #[test]
    fn record_span_attributes_like_a_nested_span() {
        let reg = Registry::new(0);
        reg.enable_trace(8);
        let outer = reg.span_id("exchange");
        let wait = reg.span_id("exchange/wait");
        reg.enter(outer);
        reg.record_span(wait, 5, 1000);
        reg.exit(outer);
        let w = reg.span_stats("exchange/wait").unwrap();
        assert_eq!((w.count, w.total_ns), (1, 1000));
        // The recorded interval lands in the open parent's child account.
        let o = reg.span_stats("exchange").unwrap();
        assert_eq!(o.child_ns, 1000);
        let buf = reg.trace_buffer();
        assert_eq!(buf.events[0].name, "exchange/wait");
        assert_eq!((buf.events[0].t0_ns, buf.events[0].dur_ns), (5, 1000));
    }

    #[test]
    fn trace_marks_and_reset() {
        let reg = Registry::new(0);
        reg.enable_trace(4);
        let id = reg.span_id("imbalance");
        reg.trace_mark(id, 1.25);
        let buf = reg.trace_buffer();
        assert_eq!(buf.events.len(), 1);
        assert_eq!(buf.events[0].kind, TraceKind::Mark);
        assert_eq!(buf.events[0].arg, Some(1.25));
        reg.reset();
        assert!(reg.trace_buffer().events.is_empty());
        assert!(reg.trace_is_enabled(), "reset keeps the ring attached");
        // Disabled registries and ring-less registries ignore trace calls.
        let off = Registry::disabled();
        off.enable_trace(4);
        assert!(!off.trace_is_enabled());
        assert!(off.trace_buffer().events.is_empty());
        let no_ring = Registry::new(0);
        no_ring.trace_mark(no_ring.span_id("x"), 0.0);
        assert!(no_ring.trace_buffer().events.is_empty());
    }

    #[test]
    fn shared_epoch_aligns_ranks() {
        let epoch = Instant::now();
        let r0 = Registry::with_epoch(0, epoch);
        let r1 = Registry::with_epoch(1, epoch);
        r0.enable_trace(4);
        r1.enable_trace(4);
        {
            let _a = r0.span("a");
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _b = r1.span("b");
        }
        let (b0, b1) = (r0.trace_buffer(), r1.trace_buffer());
        // Rank 1's slice started after rank 0's on the shared timebase.
        assert!(b1.events[0].t0_ns > b0.events[0].t0_ns);
    }
}
