//! Flight recorder — a fixed-capacity ring buffer of timestamped trace
//! events, the timeline counterpart to the aggregate span statistics.
//!
//! Aggregates (spans/counters/histograms) answer *how much*; the flight
//! recorder answers *when*: it keeps the last `capacity` span slices and
//! instant marks so that a crash, a watchdog abort, or a Perfetto timeline
//! can reconstruct the recent past of each rank. The design constraints
//! mirror the rest of the crate:
//!
//! - **allocation-free in steady state** — the ring is preallocated at
//!   [`crate::Registry::enable_trace`] time; recording overwrites the oldest
//!   slot once full (`dropped` counts the overwritten events),
//! - **gated by the same `enabled` check as spans** — a registry without a
//!   ring (the default) pays one `Option` test per span exit,
//! - **compact raw events** — an interned name id plus two `u64` timestamps
//!   (nanoseconds from the registry epoch), resolved to strings only at
//!   export time ([`crate::Registry::trace_buffer`]).
//!
//! Sizing: one [`RawEvent`] is 32 bytes, so the default capacity used by the
//! distributed driver (65536) is 2 MiB per rank — roughly 4000 steps of the
//! instrumented elastic loop (step + 7 phases + exchange wait/copy slices
//! per step) before the ring wraps.

use std::time::Instant;

use crate::json::Json;

/// What a trace event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A duration slice (a completed span, or an externally timed interval
    /// recorded via [`crate::Registry::record_span`]).
    Slice,
    /// An instantaneous mark with an attached value (e.g. a per-step
    /// imbalance sample or a watchdog violation).
    Mark,
}

/// Compact in-ring event: interned name + epoch-relative timestamps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawEvent {
    /// Interned span-table id (resolved to a string at export time).
    pub name: u32,
    pub kind: TraceKind,
    /// Start, nanoseconds since the registry epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Mark payload (NaN = absent).
    pub arg: f64,
}

/// Fixed-capacity overwrite-oldest ring of [`RawEvent`]s.
pub(crate) struct TraceRing {
    events: Vec<RawEvent>,
    /// Index of the oldest event once the ring is full.
    head: usize,
    dropped: u64,
    cap: usize,
}

impl TraceRing {
    pub(crate) fn with_capacity(capacity: usize) -> TraceRing {
        let cap = capacity.max(1);
        TraceRing { events: Vec::with_capacity(cap), head: 0, dropped: 0, cap }
    }

    // The record path runs once per span exit in the instrumented time loop
    // and allocates nothing (the root `alloc_free` tests step with a trace).
    /// Record one event, overwriting the oldest once the ring is full.
    pub(crate) fn push(&mut self, ev: RawEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Nanoseconds from `epoch` to `t` (saturating at zero). Wall-clock by
    /// construction: trace timestamps are observability metadata and never
    /// feed back into the numerics.
    pub(crate) fn offset_ns(epoch: Instant, t: Instant) -> u64 {
        t.saturating_duration_since(epoch).as_nanos() as u64
    }

    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Events oldest → newest.
    pub(crate) fn iter_ordered(&self) -> impl Iterator<Item = &RawEvent> {
        let (wrapped, recent) = self.events.split_at(self.head.min(self.events.len()));
        recent.iter().chain(wrapped.iter())
    }
}

/// One resolved trace event (names looked up, ready for export).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    pub kind: TraceKind,
    /// Start, nanoseconds since the registry epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Mark payload, if any.
    pub arg: Option<f64>,
}

/// A rank's resolved flight-recorder contents (oldest → newest), the unit
/// the Chrome exporter ([`crate::json::chrome_trace`]) merges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBuffer {
    pub rank: usize,
    /// Ring capacity the buffer was recorded with.
    pub capacity: usize,
    /// Events overwritten because the ring wrapped.
    pub dropped: u64,
    pub events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// NDJSON rendering (one `{"type":"trace",...}` line per event) of the
    /// last `last_n` events — the tail of a recoverable distributed run's
    /// post-mortems.
    pub fn ndjson_tail(&self, last_n: usize) -> String {
        let skip = self.events.len().saturating_sub(last_n);
        let mut out = String::new();
        for ev in &self.events[skip..] {
            let kind = match ev.kind {
                TraceKind::Slice => "slice",
                TraceKind::Mark => "mark",
            };
            let mut fields = vec![
                ("type", "trace".into()),
                ("rank", self.rank.into()),
                ("name", ev.name.as_str().into()),
                ("kind", kind.into()),
                ("t0_ns", ev.t0_ns.into()),
                ("dur_ns", ev.dur_ns.into()),
            ];
            fields.extend(ev.arg.map(|a| ("arg", a.into())));
            out.push_str(&Json::obj(fields).line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: u32, t0: u64) -> RawEvent {
        RawEvent { name, kind: TraceKind::Slice, t0_ns: t0, dur_ns: 1, arg: f64::NAN }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = TraceRing::with_capacity(3);
        for i in 0..5 {
            r.push(raw(i, u64::from(i)));
        }
        assert_eq!(r.dropped(), 2);
        let order: Vec<u32> = r.iter_ordered().map(|e| e.name).collect();
        assert_eq!(order, vec![2, 3, 4]);
        r.clear();
        assert_eq!(r.iter_ordered().count(), 0);
        assert_eq!(r.dropped(), 0);
        // Capacity survives a clear; refill works.
        r.push(raw(7, 0));
        assert_eq!(r.iter_ordered().map(|e| e.name).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn ring_under_capacity_preserves_insertion_order() {
        let mut r = TraceRing::with_capacity(8);
        for i in 0..4 {
            r.push(raw(i, u64::from(i)));
        }
        assert_eq!(r.dropped(), 0);
        let order: Vec<u32> = r.iter_ordered().map(|e| e.name).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ndjson_tail_takes_last_n() {
        let buf = TraceBuffer {
            rank: 2,
            capacity: 8,
            dropped: 0,
            events: (0..5)
                .map(|i| TraceEvent {
                    name: format!("ev{i}"),
                    kind: if i == 4 { TraceKind::Mark } else { TraceKind::Slice },
                    t0_ns: i * 10,
                    dur_ns: 3,
                    arg: if i == 4 { Some(1.5) } else { None },
                })
                .collect(),
        };
        let nd = buf.ndjson_tail(2);
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"ev3\""));
        assert!(lines[1].contains("\"kind\":\"mark\""));
        assert!(lines[1].contains("\"arg\":1.5"));
        assert!(lines[1].contains("\"rank\":2"));
    }
}
