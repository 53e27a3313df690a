//! JSONL (de)serialization for [`Registry`] — the cross-process leg of
//! the observability layer.
//!
//! A worker process captures a registry, encodes it with [`encode`],
//! and ships the text to its parent (over a pipe, a file, or the
//! `gridd` frame protocol); the parent decodes with [`parse`] and folds
//! the result into its own registry via [`Registry::merge_from`]. The
//! contract is **deterministic-merge round-trip**: decoding an encoded
//! registry reproduces it exactly (`parse(encode(r)) == r`), so merging
//! decoded copies is indistinguishable from merging the originals —
//! telemetry aggregated across process boundaries equals telemetry
//! aggregated in one process.
//!
//! The wire form is the repo's integer-JSON dialect, which lives in
//! [`crate::json`]: numbers are unsigned integers only, objects keep
//! insertion order so encoding is deterministic, strings escape
//! quotes/backslashes/control characters. Records are built and read
//! as [`Json`] values. An event record is [`event_to_json`]'s object
//! behind the `"t"` tag, the same object the grid's trace artifacts
//! carry per event.
//!
//! One record per line, tagged by `"t"`:
//!
//! ```text
//! {"t":"reg","codec":1,"dropped_events":0,"spilled_events":0}
//! {"t":"span","name":"cell/compile","calls":2,"total_nanos":900, ...}
//! {"t":"counter","name":"cache/miss","n":34}
//! {"t":"event","kind":"run_end","fields":[["status","completed"]]}
//! ```
//!
//! Histograms are serialized sparsely (exact tallies plus the nonzero
//! buckets), which both keeps worker lines small and makes the
//! round-trip exact — see [`crate::Histogram::from_parts`].

use crate::json::Json;
use crate::{Event, Histogram, PhaseStats, Registry, Value};
use std::fmt;

/// Version tag on the header line; bump on any wire-format change so a
/// mixed-version worker fleet fails loudly instead of merging garbage.
pub const CODEC_VERSION: u64 = 1;

/// Why a registry text failed to decode (with its 1-based line number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub message: String,
    /// 1-based line the error occurred on.
    pub line: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Registry <-> JSONL
// ---------------------------------------------------------------------

/// Encodes one event as `{"kind":…,"fields":[[name,value],…]}` — the
/// event object of both the registry codec (behind its `"t"` tag) and
/// the grid's trace artifacts.
pub fn event_to_json(ev: &Event) -> Json {
    let fields = ev
        .fields
        .iter()
        .map(|(k, v)| {
            let value = match v {
                Value::U64(n) => Json::UInt(*n),
                Value::Str(s) => Json::Str(s.clone()),
            };
            Json::Arr(vec![Json::Str(k.clone()), value])
        })
        .collect();
    Json::obj(vec![
        ("kind", Json::Str(ev.kind.clone())),
        ("fields", Json::Arr(fields)),
    ])
}

/// Decodes an event object written by [`event_to_json`] (extra keys,
/// such as the codec's `"t"` tag, are ignored).
///
/// # Errors
///
/// A message naming the missing or mistyped part.
pub fn event_from_json(rec: &Json) -> Result<Event, String> {
    let kind = str_field(rec, "kind")?;
    let Some(Json::Arr(items)) = rec.get("fields") else {
        return Err("missing or non-array field 'fields'".into());
    };
    let mut fields = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            Json::Arr(p) if p.len() == 2 => p,
            _ => return Err("event field is not a [name, value] pair".into()),
        };
        let key = pair[0].as_str().ok_or("non-string event field name")?;
        let value = match &pair[1] {
            Json::UInt(n) => Value::U64(*n),
            Json::Str(s) => Value::Str(s.clone()),
            _ => return Err("event field value is not uint or string".into()),
        };
        fields.push((key.to_string(), value));
    }
    Ok(Event {
        kind: kind.to_string(),
        fields,
    })
}

fn span_record(name: &str, stats: &PhaseStats) -> Json {
    let buckets: Vec<Json> = stats
        .hist
        .nonzero_buckets()
        .map(|(i, c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(c)]))
        .collect();
    Json::obj(vec![
        ("t", Json::Str("span".into())),
        ("name", Json::Str(name.into())),
        ("calls", Json::UInt(stats.calls)),
        ("total_nanos", Json::UInt(stats.total_nanos)),
        ("count", Json::UInt(stats.hist.count())),
        ("sum", Json::UInt(stats.hist.sum())),
        ("min", Json::UInt(stats.hist.min())),
        ("max", Json::UInt(stats.hist.max())),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Serializes a registry to JSONL: a header line, then one line per
/// span (in name order), counter (in name order), and event (in
/// emission order). Deterministic: equal registries encode to equal
/// bytes.
pub fn encode(reg: &Registry) -> String {
    let mut out = String::new();
    let mut push = |v: Json| {
        v.encode_into(&mut out);
        out.push('\n');
    };
    push(Json::obj(vec![
        ("t", Json::Str("reg".into())),
        ("codec", Json::UInt(CODEC_VERSION)),
        ("dropped_events", Json::UInt(reg.dropped_events)),
        ("spilled_events", Json::UInt(reg.spilled_events)),
    ]));
    for (name, stats) in &reg.spans {
        push(span_record(name, stats));
    }
    for (name, n) in &reg.counters {
        push(Json::obj(vec![
            ("t", Json::Str("counter".into())),
            ("name", Json::Str(name.clone())),
            ("n", Json::UInt(*n)),
        ]));
    }
    for ev in &reg.events {
        let mut rec = vec![("t".to_string(), Json::Str("event".into()))];
        if let Json::Obj(pairs) = event_to_json(ev) {
            rec.extend(pairs);
        }
        push(Json::Obj(rec));
    }
    out
}

fn u64_field(rec: &Json, key: &str) -> Result<u64, String> {
    rec.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn str_field<'a>(rec: &'a Json, key: &str) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn decode_span(rec: &Json, reg: &mut Registry) -> Result<(), String> {
    let name = str_field(rec, "name")?;
    let Some(Json::Arr(items)) = rec.get("buckets") else {
        return Err("missing or non-array field 'buckets'".into());
    };
    let mut sparse = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            Json::Arr(p) if p.len() == 2 => p,
            _ => return Err("bucket entry is not an [index, count] pair".into()),
        };
        let idx = pair[0]
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("non-integer bucket index")?;
        let c = pair[1].as_u64().ok_or("non-integer bucket count")?;
        sparse.push((idx, c));
    }
    let hist = Histogram::from_parts(
        u64_field(rec, "count")?,
        u64_field(rec, "sum")?,
        u64_field(rec, "min")?,
        u64_field(rec, "max")?,
        &sparse,
    )
    .ok_or("inconsistent histogram parts")?;
    let stats = PhaseStats {
        calls: u64_field(rec, "calls")?,
        total_nanos: u64_field(rec, "total_nanos")?,
        hist,
    };
    if reg.spans.insert(name.to_string(), stats).is_some() {
        return Err(format!("duplicate span '{name}'"));
    }
    Ok(())
}

/// Parses a registry serialized by [`encode`].
///
/// # Errors
///
/// A [`CodecError`] naming the offending line: syntax errors, a
/// missing or foreign-version header, unknown record tags, duplicate
/// keys, or inconsistent histogram parts. Garbage input is an error,
/// never a panic — worker output crosses a process boundary.
pub fn parse(text: &str) -> Result<Registry, CodecError> {
    let mut reg = Registry::default();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let at = |message: String| CodecError {
            message,
            line: i + 1,
        };
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| at(e.to_string()))?;
        let tag = str_field(&rec, "t").map_err(at)?.to_string();
        if !saw_header {
            if tag != "reg" {
                return Err(at("first record must be the 'reg' header".into()));
            }
            let version = u64_field(&rec, "codec").map_err(at)?;
            if version != CODEC_VERSION {
                return Err(at(format!(
                    "codec version {version} (this build reads {CODEC_VERSION})"
                )));
            }
            reg.dropped_events = u64_field(&rec, "dropped_events").map_err(at)?;
            reg.spilled_events = u64_field(&rec, "spilled_events").map_err(at)?;
            saw_header = true;
            continue;
        }
        match tag.as_str() {
            "reg" => return Err(at("duplicate 'reg' header".into())),
            "span" => decode_span(&rec, &mut reg).map_err(at)?,
            "counter" => {
                let name = str_field(&rec, "name").map_err(at)?;
                let n = u64_field(&rec, "n").map_err(at)?;
                if reg.counters.insert(name.to_string(), n).is_some() {
                    return Err(at(format!("duplicate counter '{name}'")));
                }
            }
            "event" => reg.events.push_back(event_from_json(&rec).map_err(at)?),
            other => return Err(at(format!("unknown record tag '{other}'"))),
        }
    }
    if !saw_header {
        return Err(CodecError {
            message: "empty input (no 'reg' header)".into(),
            line: 1,
        });
    }
    if reg.events.len() > crate::MAX_EVENTS {
        return Err(CodecError {
            message: format!(
                "{} events exceed the {} ring cap",
                reg.events.len(),
                crate::MAX_EVENTS
            ),
            line: 1,
        });
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the deterministic fuzz driver (same recurrence as
    /// the service-frame and soundness fuzzes).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn label(&mut self) -> String {
            const POOL: [&str; 8] = [
                "cell/compile",
                "cell/emulate",
                "job/run/Schematic/crc/10000",
                "cache/hit",
                "dæmon/ünïcode",
                "quote\"back\\slash",
                "ctrl\n\t\u{1}",
                "emoji \u{1F600}",
            ];
            format!("{}#{}", POOL[self.below(8) as usize], self.below(4))
        }

        fn registry(&mut self) -> Registry {
            let mut reg = Registry::default();
            for _ in 0..self.below(5) {
                let name = self.label();
                let stats = reg.spans.entry(name).or_default();
                for _ in 0..(1 + self.below(6)) {
                    // Spread samples across the full bucket range.
                    let v = self.next() >> self.below(64);
                    stats.calls += 1;
                    stats.total_nanos = stats.total_nanos.saturating_add(v);
                    stats.hist.record(v);
                }
            }
            for _ in 0..self.below(5) {
                let name = self.label();
                // Bounded increments: counters add on merge, and the
                // production sites count events, not raw u64 noise.
                *reg.counters.entry(name).or_default() += self.below(1 << 40);
            }
            for _ in 0..self.below(6) {
                let kind = self.label();
                let mut fields = Vec::new();
                for _ in 0..self.below(4) {
                    let key = self.label();
                    let value = if self.below(2) == 0 {
                        Value::U64(self.next())
                    } else {
                        Value::Str(self.label())
                    };
                    fields.push((key, value));
                }
                reg.events.push_back(Event { kind, fields });
            }
            reg.dropped_events = self.below(3);
            reg.spilled_events = self.below(3);
            reg
        }
    }

    #[test]
    fn empty_registry_roundtrips() {
        let reg = Registry::default();
        let text = encode(&reg);
        assert_eq!(parse(&text).unwrap(), reg);
    }

    #[test]
    fn fuzz_roundtrip_is_exact() {
        let mut rng = Rng(0x0B5C0DEC);
        for round in 0..200 {
            let reg = rng.registry();
            let text = encode(&reg);
            let back = parse(&text).unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(back, reg, "round {round}");
            // Encoding is deterministic.
            assert_eq!(encode(&back), text, "round {round}");
        }
    }

    #[test]
    fn fuzz_merge_parity_across_the_wire() {
        // Folding decoded copies must equal folding the originals: the
        // property that makes daemon-side aggregation of worker
        // registries indistinguishable from in-process aggregation.
        let mut rng = Rng(0x4D45_5247);
        for round in 0..100 {
            let parts: Vec<Registry> = (0..(1 + rng.below(4))).map(|_| rng.registry()).collect();
            let mut direct = Registry::default();
            let mut via_wire = Registry::default();
            for part in &parts {
                direct.merge_from(part.clone());
                via_wire.merge_from(parse(&encode(part)).unwrap());
            }
            assert_eq!(via_wire, direct, "round {round}");
            // And the merged result itself still round-trips.
            assert_eq!(parse(&encode(&direct)).unwrap(), direct, "round {round}");
        }
    }

    #[test]
    fn fuzz_garbage_never_panics() {
        let mut rng = Rng(0xBADBAD);
        for _ in 0..500 {
            let len = rng.below(128) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
            let text = String::from_utf8_lossy(&bytes);
            // Whatever comes back, it must be a value, not a panic.
            let _ = parse(&text);
        }
        // Structured near-misses.
        for bad in [
            "",
            "\n\n",
            "{\"t\":\"span\"}",
            "{\"t\":\"reg\",\"codec\":99,\"dropped_events\":0,\"spilled_events\":0}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n{\"t\":\"wat\"}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n\
             {\"t\":\"span\",\"name\":\"s\",\"calls\":1,\"total_nanos\":1,\"count\":2,\
             \"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[0,1]]}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n\
             {\"t\":\"counter\",\"name\":\"x\",\"n\":1}\n{\"t\":\"counter\",\"name\":\"x\",\"n\":2}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n{\"t\":\"event\"}",
            "[1,2,3]",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":-1,\"spilled_events\":0}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn truncation_of_valid_text_never_panics() {
        let mut rng = Rng(0x7A7A);
        let reg = rng.registry();
        let text = encode(&reg);
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                let _ = parse(&text[..cut]);
            }
        }
    }

    #[test]
    fn mebibyte_fields_roundtrip() {
        // One 1 MiB event field value and one 1 MiB counter name, mixing
        // raw runs with every escape class the writer emits.
        let long = "run of text \"q\" \\ \n \u{1} † \u{1F600} ".repeat(1 << 15);
        let long = &long[..long.floor_char_boundary(1 << 20)];
        let mut reg = Registry::default();
        reg.counters.insert(long.to_string(), 1);
        reg.events.push_back(Event {
            kind: "run_end".into(),
            fields: vec![("note".into(), Value::Str(long.to_string()))],
        });
        let text = encode(&reg);
        assert_eq!(parse(&text).unwrap(), reg);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut reg = Registry::default();
        reg.counters.insert(
            "quote\" slash\\ nl\n tab\t nul\u{0} uni † \u{1F600}".into(),
            7,
        );
        let text = encode(&reg);
        assert_eq!(parse(&text).unwrap(), reg);
        // The encoded form is a single well-formed line per record.
        assert_eq!(text.lines().count(), 2);
    }
}
