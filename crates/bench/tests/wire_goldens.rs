//! Byte-exact goldens for the three text artifacts that cross process
//! boundaries: the telemetry registry codec, the trace artifact, and
//! the cell artifact.
//!
//! The fuzz suites prove each codec round-trips; these pin the *bytes*,
//! so a refactor of the shared JSON dialect cannot silently change what
//! an older reader (a cached artifact, a worker of the previous build)
//! would see. Every fixture carries strings that exercise the escaper:
//! `"`, `\`, `\n`, a C0 control, the footnote dagger `†` and an
//! astral-plane emoji. The spill-chunk golden lives beside these in
//! `goldens/trace_spill.jsonl` and is checked by `trace`'s unit tests
//! (the chunk encoder is private).

use schematic_bench::grid::{CellStore, CellValue, Job};
use schematic_bench::trace::{self, CellTrace, PhaseLine};
use schematic_bench::{CellOutcome, Scenario};
use schematic_emu::{Metrics, RunStatus};
use schematic_energy::Energy;
use schematic_obs::{codec, Event, Registry, Value};

/// A name exercising every escaping class the dialect distinguishes.
const TRICKY: &str = "q\"b\\n\nc\u{1}d†e😀";

fn golden(name: &str) -> String {
    let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn tricky_event(kind: &str) -> Event {
    Event {
        kind: kind.into(),
        fields: vec![
            ("comp_pj".into(), Value::U64(u64::MAX)),
            ("name".into(), Value::Str(TRICKY.into())),
            (TRICKY.into(), Value::U64(0)),
        ],
    }
}

fn fixed_registry() -> Registry {
    let mut reg = Registry::default();
    for nanos in [0, 1, 17, 900, 65_536, 1 << 40] {
        reg.record_span("cell/compile", nanos);
    }
    reg.record_span(TRICKY, 5);
    reg.counters.insert("cache/hit".into(), 34);
    reg.counters.insert(TRICKY.into(), u64::MAX);
    reg.events.push_back(tricky_event("run_end"));
    reg.events.push_back(Event {
        kind: TRICKY.into(),
        fields: Vec::new(),
    });
    reg.dropped_events = 2;
    reg.spilled_events = 3;
    reg
}

#[test]
fn registry_codec_bytes_match_golden() {
    let reg = fixed_registry();
    let text = codec::encode(&reg);
    assert_eq!(text, golden("registry.jsonl"));
    assert_eq!(codec::parse(&text).unwrap(), reg);
}

fn fixed_trace() -> CellTrace {
    CellTrace {
        job: Job::run_scenario(
            "Schematic",
            "crc",
            Scenario::parse("stoch:10000:2000:3").unwrap(),
        ),
        wall_nanos: 123_456_789,
        phases: vec![PhaseLine {
            name: TRICKY.into(),
            calls: 2,
            total_nanos: 900,
            p50_nanos: 400,
            p95_nanos: 500,
        }],
        counters: vec![("alloc/picks".into(), 7), (TRICKY.into(), 1)],
        events: vec![tricky_event("boot"), tricky_event(TRICKY)],
        dropped_events: 1,
        spilled_events: 0,
    }
}

#[test]
fn trace_line_bytes_match_golden() {
    let t = fixed_trace();
    let text = trace::to_jsonl(std::slice::from_ref(&t));
    assert_eq!(text, golden("trace.jsonl"));
    assert_eq!(trace::from_jsonl(&text).unwrap(), vec![t]);
}

fn fixed_cells() -> CellStore {
    let metrics = Metrics {
        computation: Energy::from_pj(95_832_500),
        save: Energy::from_pj(1),
        restore: Energy::from_pj(2),
        reexecution: Energy::from_pj(3),
        active_cycles: 4_000_000_000,
        power_failures: 5,
        peak_vm_bytes: 2048,
        insts_retired: u64::MAX,
        ..Metrics::default()
    };
    let mut store = CellStore::new();
    let cells = [
        (
            Job::run("Schematic", "crc", 10_000),
            CellValue::Run {
                outcome: Some(CellOutcome {
                    status: RunStatus::Completed,
                    correct: true,
                    metrics: metrics.clone(),
                }),
                reason: None,
            },
        ),
        (
            Job::run("Mementos", "aes", 1_000),
            CellValue::Run {
                outcome: None,
                reason: Some(TRICKY.into()),
            },
        ),
        (
            Job::fig7("All-NVM", "dijkstra"),
            CellValue::Measured {
                metrics: Some(metrics),
                note: Some(TRICKY.into()),
            },
        ),
    ];
    for (job, value) in cells {
        store.insert(job, value).unwrap();
    }
    store
}

#[test]
fn cell_artifact_bytes_match_golden() {
    let store = fixed_cells();
    let text = store.to_jsonl();
    assert_eq!(text, golden("cells.jsonl"));
    assert_eq!(CellStore::from_jsonl(&text).unwrap(), store);
}
