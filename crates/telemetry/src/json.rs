//! Minimal JSON emission helpers (std-only; this workspace is offline).
//!
//! Only what the telemetry serializers and the bench reports need: escaped
//! strings, `f64` values that round-trip, and [`Json`], a document that
//! renders itself as a pretty report or a one-line NDJSON record. Rust's `{}` formatting of `f64` already produces the
//! shortest digit string that parses back to the same bits, so numeric
//! trace lines are lossless.

/// Append `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) are emitted as `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest round-trip formatting; integral values get a ".0" so the
        // token is unambiguously a float for typed readers.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{v:.1}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        out.push_str("null");
    }
}

use crate::trace::{TraceBuffer, TraceKind};

/// Merge per-rank flight-recorder buffers into one Chrome `trace_event`
/// JSON document, loadable in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`. One process ("quake"), one track per rank (`tid` =
/// rank): span slices become complete events (`ph:"X"`, microsecond
/// timestamps measured from the shared registry epoch), marks become
/// thread-scoped instant events (`ph:"i"`) carrying their value in `args`.
/// Buffers that wrapped announce the overwritten-event count in the track
/// name, and every rank's ring stats (`capacity`/`dropped`/retained event
/// count) are emitted in the document's top-level `metadata` object — a
/// truncated timeline is machine-detectable, never mistaken for a complete
/// one.
pub fn chrome_trace(buffers: &[TraceBuffer]) -> String {
    let meta = |name: &str, tid: usize, args: Json| {
        let head = [("ph", "M".into()), ("name", name.into()), ("pid", 0usize.into())];
        Json::obj(head.into_iter().chain([("tid", tid.into()), ("args", args)]))
    };
    let mut events = vec![meta("process_name", 0, Json::obj([("name", "quake".into())]))];
    for buf in buffers {
        let track = match buf.dropped {
            0 => format!("rank {}", buf.rank),
            n => format!("rank {} (ring wrapped, {n} dropped)", buf.rank),
        };
        events.push(meta("thread_name", buf.rank, Json::obj([("name", track.into())])));
        let sort = Json::obj([("sort_index", buf.rank.into())]);
        events.push(meta("thread_sort_index", buf.rank, sort));
        for ev in &buf.events {
            let mut e = vec![
                ("name", ev.name.as_str().into()),
                ("cat", "quake".into()),
                ("pid", 0usize.into()),
                ("tid", buf.rank.into()),
                ("ts", (ev.t0_ns as f64 / 1e3).into()),
            ];
            e.extend(match ev.kind {
                TraceKind::Slice => [("ph", "X".into()), ("dur", (ev.dur_ns as f64 / 1e3).into())],
                TraceKind::Mark => [("ph", "i".into()), ("s", "t".into())],
            });
            e.extend(ev.arg.map(|a| ("args", Json::obj([("value", a.into())]))));
            events.push(Json::obj(e));
        }
    }
    // Top-level metadata: per-rank flight-recorder ring accounting, so a
    // consumer (or Perfetto's info pane) can see how many events each rank
    // overwrote without parsing track names.
    let rings = buffers.iter().map(|b| {
        Json::obj([
            ("rank", b.rank.into()),
            ("capacity", b.capacity.into()),
            ("events", b.events.len().into()),
            ("dropped", b.dropped.into()),
        ])
    });
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
        ("metadata", Json::obj([("quake_rings", Json::arr(rings))])),
    ])
    .line()
}

/// Append `s` as a quoted, escaped JSON string.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON document, built by a report and rendered once (there is no
/// parser). Objects keep their fields in insertion order. Integers render
/// as integers; floats go through [`push_f64`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything that converts to JSON.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The document as pretty-printed text with a trailing newline. An
    /// array or object whose members are all scalars stays on one line (an
    /// object padded as `{ "a": 1 }`); any other nests its members one per
    /// line, indented by two spaces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The document on one line with no whitespace, as an NDJSON record.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Append the document, pretty-printed at `indent` or compact if `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Num(v) => return push_f64(out, *v),
            Json::Str(s) => return push_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        let items: Vec<String> = members
            .iter()
            .map(|(key, value)| {
                let mut item = String::new();
                if let Some(key) = key {
                    push_str(&mut item, key);
                    item.push_str(if indent.is_some() { ": " } else { ":" });
                }
                value.write(&mut item, indent.map(|i| i + 2));
                item
            })
            .collect();
        let nested = members.iter().any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        out.push(open);
        match indent {
            None => out.push_str(&items.join(",")),
            Some(i) if nested => {
                let pad = " ".repeat(i);
                out.push_str(&format!("\n{pad}  {}\n{pad}", items.join(&format!(",\n{pad}  "))));
            }
            Some(_) if open == '{' && !items.is_empty() => {
                out.push_str(&format!(" {} ", items.join(", ")));
            }
            Some(_) => out.push_str(&items.join(", ")),
        }
        out.push(close);
    }
}

macro_rules! json_from {
    ($($t:ty => |$x:ident| $variant:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $variant
            }
        }
    )*};
}

json_from!(
    bool => |b| Json::Bool(b),
    u64 => |i| Json::Int(i),
    usize => |i| Json::Int(i as u64),
    f64 => |v| Json::Num(v),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
);

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(f(0.0), "0.0");
        assert_eq!(f(-3.0), "-3.0");
        assert_eq!(f(0.1), "0.1");
        let v = 1.2345678901234567e-8;
        assert_eq!(f(v).parse::<f64>().unwrap(), v);
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_specials() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn documents_render_pretty_or_on_one_line() {
        let doc = Json::obj([
            ("n", Json::from(3usize)),
            ("ok", true.into()),
            ("row", Json::obj([("rate", Json::from(2.5)), ("name", "a\"b".into())])),
            ("factors", Json::arr([1u64, 2, 4])),
            (
                "rows",
                Json::arr([Json::obj([("x", Json::from(1.0))]), Json::arr(Vec::<u64>::new())]),
            ),
            ("none", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"n\": 3,\n  \"ok\": true,\n  \"row\": { \"rate\": 2.5, \"name\": \"a\\\"b\" },\n  \
             \"factors\": [1, 2, 4],\n  \"rows\": [\n    { \"x\": 1.0 },\n    []\n  ],\n  \
             \"none\": {}\n}\n"
        );
        assert_eq!(
            doc.line(),
            "{\"n\":3,\"ok\":true,\"row\":{\"rate\":2.5,\"name\":\"a\\\"b\"},\
             \"factors\":[1,2,4],\"rows\":[{\"x\":1.0},[]],\"none\":{}}"
        );
    }

    #[test]
    fn chrome_trace_merges_ranks_into_tracks() {
        use crate::trace::{TraceEvent, TraceKind};
        let mk = |rank: usize, dropped: u64, events: Vec<TraceEvent>| TraceBuffer {
            rank,
            capacity: 8,
            dropped,
            events,
        };
        let slice = |name: &str, t0: u64, dur: u64| TraceEvent {
            name: name.to_string(),
            kind: TraceKind::Slice,
            t0_ns: t0,
            dur_ns: dur,
            arg: None,
        };
        let mark = TraceEvent {
            name: "imbalance".to_string(),
            kind: TraceKind::Mark,
            t0_ns: 2500,
            dur_ns: 0,
            arg: Some(1.5),
        };
        let j = chrome_trace(&[
            mk(0, 0, vec![slice("step", 1000, 3000)]),
            mk(1, 2, vec![slice("step/exchange/wait", 1500, 500), mark]),
        ]);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Per-rank tracks with metadata names.
        assert!(j.contains("\"name\":\"rank 0\""));
        assert!(j.contains("rank 1 (ring wrapped, 2 dropped)"));
        // Slices carry microsecond ts/dur on the right track.
        assert!(j.contains("\"tid\":0,\"ts\":1.0,\"ph\":\"X\",\"dur\":3.0"));
        assert!(j.contains("\"name\":\"step/exchange/wait\""));
        // Marks become instant events with their value attached.
        assert!(j.contains("\"ph\":\"i\",\"s\":\"t\",\"args\":{\"value\":1.5}"));
        // Ring accounting is structured metadata, one record per rank.
        assert!(j.contains(
            "\"metadata\":{\"quake_rings\":[\
             {\"rank\":0,\"capacity\":8,\"events\":1,\"dropped\":0},\
             {\"rank\":1,\"capacity\":8,\"events\":2,\"dropped\":2}]}"
        ));
    }
}
