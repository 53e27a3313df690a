//! Grid tracing: per-cell observation capture, the trace artifact
//! codec, and the `tracereport` renderers.
//!
//! [`capture_grid`] evaluates a job list like
//! [`CellStore::compute`](crate::grid::CellStore::compute) while
//! collecting, per cell, the compiler/driver phase timings
//! ([`schematic_obs`] spans), decision counters, and the emulator's
//! lifecycle event stream ([`schematic_emu::trace`]). Because every
//! job runs wholly on one worker thread and its observations are
//! scoped with [`schematic_obs::capture`], the per-cell traces are
//! identical regardless of worker count or scheduling — and the cell
//! *values* are bit-identical to an untraced run (tracing only turns
//! off the emulator's fused dispatch, which is metrics-neutral by
//! construction).
//!
//! Traces serialize through the same offline JSON dialect as the cell
//! artifacts ([`schematic_obs::json`]): one JSON object per cell per
//! line, each event in the registry codec's event object
//! ([`codec::event_to_json`]).
//! `gridrun --trace F` writes the artifact; the `tracereport` binary
//! renders it — a phase-time table across the grid, the top-K hottest
//! cells, and a per-run epoch timeline whose final row reproduces the
//! cell's Fig. 6 energy split exactly from the event stream alone.
//!
//! Event streams used to be hard-capped at [`obs::MAX_EVENTS`] per
//! cell (ring semantics: oldest dropped). [`capture_grid_streaming`]
//! lifts the cap by spilling: when a cell's resident buffer fills, the
//! oldest half is written to the artifact *immediately* as a
//! `{"spill":{job,seq,events}}` chunk line, and [`from_jsonl`]
//! reassembles chunks (by per-cell sequence number) back in front of
//! the cell's resident tail — so `tracereport` sees the complete,
//! ordered stream no matter how long the run was, while peak memory
//! stays bounded at the cap.

use crate::grid::{self, evaluate, CellStore, GridError, Job, JobKind};
use crate::json::Json;
use crate::parallel::par_map;
use crate::{render_table, uj};
use schematic_energy::{CostTable, Energy};
use schematic_obs::{self as obs, codec};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregated timings of one span name within one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Span name (e.g. `"cell/emulate"` or `"analyze/rcg"`).
    pub name: String,
    /// Completed spans under this name.
    pub calls: u64,
    /// Total wall-clock nanoseconds (inclusive; spans may nest).
    pub total_nanos: u64,
    /// Median per-call nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile per-call nanoseconds.
    pub p95_nanos: u64,
}

/// Everything one traced cell recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// The cell's grid key.
    pub job: Job,
    /// Wall-clock nanoseconds of the whole cell evaluation.
    pub wall_nanos: u64,
    /// Per-phase timings, sorted by span name.
    pub phases: Vec<PhaseLine>,
    /// Decision counters (e.g. `alloc/picks`), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Structured events in emission order (compiler decision log +
    /// emulator lifecycle stream), capped at [`obs::MAX_EVENTS`].
    pub events: Vec<obs::Event>,
    /// Events discarded past the cap.
    pub dropped_events: u64,
    /// Events streamed to the artifact as spill chunks instead of
    /// dropped (streaming captures only; [`from_jsonl`] reassembles
    /// them back into [`CellTrace::events`]).
    pub spilled_events: u64,
}

impl CellTrace {
    fn from_registry(job: Job, wall_nanos: u64, reg: obs::Registry) -> CellTrace {
        let phases = reg
            .spans
            .iter()
            .map(|(name, s)| PhaseLine {
                name: name.clone(),
                calls: s.calls,
                total_nanos: s.total_nanos,
                p50_nanos: s.hist.quantile(50, 100),
                p95_nanos: s.hist.quantile(95, 100),
            })
            .collect();
        CellTrace {
            job,
            wall_nanos,
            phases,
            counters: reg.counters.into_iter().collect(),
            events: reg.events.into(),
            dropped_events: reg.dropped_events,
            spilled_events: reg.spilled_events,
        }
    }
}

/// The shared artifact writer streaming captures spill into: worker
/// threads serialize chunk writes through the mutex.
type SharedSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Captures one cell's evaluation. With a `sink`, a spill hook is
/// installed for the duration: whenever the cell's event buffer hits
/// [`obs::MAX_EVENTS`], the oldest half is written to the sink as one
/// `{"spill":…}` chunk line instead of being ring-dropped.
fn capture_cell<T>(job: &Job, sink: Option<&SharedSink>, f: impl FnOnce() -> T) -> (T, CellTrace) {
    let start = Instant::now();
    let prev_spill = sink.map(|sink| {
        let sink = Arc::clone(sink);
        let job = job.clone();
        let mut seq = 0u64;
        obs::set_spill(Some(Box::new(move |events: Vec<obs::Event>| {
            let chunk = spill_to_json(&job, seq, &events);
            seq += 1;
            if let Ok(mut w) = sink.lock() {
                let _ = writeln!(w, "{}", chunk.encode());
            }
        })))
    });
    let (value, reg) = obs::capture(f);
    if prev_spill.is_some() {
        obs::set_spill(prev_spill.flatten());
    }
    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (value, CellTrace::from_registry(job.clone(), wall, reg))
}

fn capture_grid_with_sink(jobs: &[Job], sink: Option<&SharedSink>) -> (CellStore, Vec<CellTrace>) {
    let prev_obs = obs::enabled();
    let prev_forced = schematic_emu::trace::forced();
    obs::set_enabled(true);
    schematic_emu::trace::set_forced(true);
    let table = CostTable::msp430fr5969();
    let results = par_map(jobs, |job| {
        capture_cell(job, sink, || evaluate(job, &table))
    });
    schematic_emu::trace::set_forced(prev_forced);
    obs::set_enabled(prev_obs);
    let mut store = CellStore::new();
    let mut traces = Vec::with_capacity(jobs.len());
    for (job, (value, trace)) in jobs.iter().zip(results) {
        store
            .insert(job.clone(), value)
            .expect("computed cells are deterministic");
        traces.push(trace);
    }
    (store, traces)
}

/// Evaluates `jobs` with observation capture enabled: the cell store
/// (bit-identical to [`CellStore::compute`]) plus one [`CellTrace`]
/// per job, in job order. Per-cell event streams keep the in-memory
/// ring cap (oldest dropped past [`obs::MAX_EVENTS`]); use
/// [`capture_grid_streaming`] to lift it.
///
/// Enables the [`schematic_obs`] collector and forces emulator
/// lifecycle tracing ([`schematic_emu::trace::set_forced`]) for the
/// duration of the call, restoring both flags afterwards.
pub fn capture_grid(jobs: &[Job]) -> (CellStore, Vec<CellTrace>) {
    capture_grid_with_sink(jobs, None)
}

/// Like [`capture_grid`], but writes the complete artifact to `writer`
/// incrementally: overflow event chunks stream out *during* capture
/// (so no event is ever dropped and peak memory stays at the cap), and
/// the per-cell trace lines follow once evaluation finishes. The
/// returned traces hold only each cell's resident tail —
/// [`from_jsonl`] on the written artifact reassembles the full
/// streams.
///
/// # Errors
///
/// The underlying writer error from the trailing trace lines; chunk
/// writes during capture are best-effort (a torn artifact still parses
/// up to the tear).
pub fn capture_grid_streaming(
    jobs: &[Job],
    writer: impl Write + Send + 'static,
) -> std::io::Result<(CellStore, Vec<CellTrace>)> {
    let sink: SharedSink = Arc::new(Mutex::new(Box::new(writer)));
    let (store, traces) = capture_grid_with_sink(jobs, Some(&sink));
    let mut w = sink.lock().expect("no worker holds the sink any more");
    for t in &traces {
        writeln!(w, "{}", trace_to_json(t).encode())?;
    }
    w.flush()?;
    Ok((store, traces))
}

// ---------------------------------------------------------------------
// Artifact codec
// ---------------------------------------------------------------------

/// Decodes the `events` array of a trace line or spill chunk.
fn events_field(json: &Json) -> Result<Vec<obs::Event>, GridError> {
    match json.get("events") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|e| codec::event_from_json(e).map_err(GridError))
            .collect(),
        _ => Err(GridError("missing or non-array field 'events'".into())),
    }
}

/// Encodes one trace as a JSON object (one artifact line).
pub fn trace_to_json(t: &CellTrace) -> Json {
    Json::obj(vec![
        (
            "job",
            Json::obj({
                let mut fields = vec![
                    ("kind", Json::Str(t.job.kind.name().into())),
                    ("technique", Json::Str(t.job.technique.clone())),
                    ("benchmark", Json::Str(t.job.benchmark.clone())),
                ];
                // Same scenario encoding as the cell artifact codec:
                // legacy numeric `tbpf` for periodic, a `scenario`
                // spelling otherwise.
                match &t.job.scenario {
                    crate::Scenario::Periodic { tbpf } => fields.push(("tbpf", Json::UInt(*tbpf))),
                    other => fields.push(("scenario", Json::Str(other.to_string()))),
                }
                fields
            }),
        ),
        ("wall_nanos", Json::UInt(t.wall_nanos)),
        (
            "phases",
            Json::Arr(
                t.phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::Str(p.name.clone())),
                            ("calls", Json::UInt(p.calls)),
                            ("total_nanos", Json::UInt(p.total_nanos)),
                            ("p50_nanos", Json::UInt(p.p50_nanos)),
                            ("p95_nanos", Json::UInt(p.p95_nanos)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Arr(
                t.counters
                    .iter()
                    .map(|(k, n)| Json::Arr(vec![Json::Str(k.clone()), Json::UInt(*n)]))
                    .collect(),
            ),
        ),
        (
            "events",
            Json::Arr(t.events.iter().map(codec::event_to_json).collect()),
        ),
        ("dropped_events", Json::UInt(t.dropped_events)),
        ("spilled_events", Json::UInt(t.spilled_events)),
    ])
}

/// Encodes one spill chunk (a streamed-out slice of a cell's event
/// buffer) as an artifact line: `{"spill":{"job":…,"seq":N,"events":…}}`.
fn spill_to_json(job: &Job, seq: u64, events: &[obs::Event]) -> Json {
    Json::obj(vec![(
        "spill",
        Json::obj(vec![
            ("job", Json::Str(job.to_string())),
            ("seq", Json::UInt(seq)),
            (
                "events",
                Json::Arr(events.iter().map(codec::event_to_json).collect()),
            ),
        ]),
    )])
}

/// Decodes a spill chunk line into `(job key, seq, events)`.
fn spill_from_json(json: &Json) -> Result<(String, u64, Vec<obs::Event>), GridError> {
    let job = grid::str_field(json, "job")?;
    let seq = grid::u64_field(json, "seq")?;
    Ok((job, seq, events_field(json)?))
}

/// Decodes one artifact line back into a trace.
///
/// # Errors
///
/// A [`GridError`] describing the missing or mistyped field.
pub fn trace_from_json(json: &Json) -> Result<CellTrace, GridError> {
    let job_json = json
        .get("job")
        .ok_or_else(|| GridError("missing field 'job'".into()))?;
    let kind_name = grid::str_field(job_json, "kind")?;
    let kind = JobKind::from_name(&kind_name)
        .ok_or_else(|| GridError(format!("unknown cell kind '{kind_name}'")))?;
    let scenario = match job_json.get("scenario") {
        Some(Json::Str(s)) => crate::Scenario::parse(s).map_err(GridError)?,
        Some(_) => return Err(GridError("field 'scenario' is not a string".into())),
        None => crate::Scenario::periodic(grid::u64_field(job_json, "tbpf")?),
    };
    let job = Job {
        kind,
        technique: grid::str_field(job_json, "technique")?,
        benchmark: grid::str_field(job_json, "benchmark")?,
        scenario,
    };
    let phases_json = match json.get("phases") {
        Some(Json::Arr(items)) => items,
        _ => return Err(GridError("missing or non-array field 'phases'".into())),
    };
    let mut phases = Vec::with_capacity(phases_json.len());
    for p in phases_json {
        phases.push(PhaseLine {
            name: grid::str_field(p, "name")?,
            calls: grid::u64_field(p, "calls")?,
            total_nanos: grid::u64_field(p, "total_nanos")?,
            p50_nanos: grid::u64_field(p, "p50_nanos")?,
            p95_nanos: grid::u64_field(p, "p95_nanos")?,
        });
    }
    let counters_json = match json.get("counters") {
        Some(Json::Arr(items)) => items,
        _ => return Err(GridError("missing or non-array field 'counters'".into())),
    };
    let mut counters = Vec::with_capacity(counters_json.len());
    for item in counters_json {
        let pair = match item {
            Json::Arr(p) if p.len() == 2 => p,
            _ => return Err(GridError("counter must be a [name, count] pair".into())),
        };
        let name = pair[0]
            .as_str()
            .ok_or_else(|| GridError("counter name must be a string".into()))?;
        let n = pair[1]
            .as_u64()
            .ok_or_else(|| GridError("counter value must be an unsigned integer".into()))?;
        counters.push((name.to_string(), n));
    }
    let events = events_field(json)?;
    Ok(CellTrace {
        job,
        wall_nanos: grid::u64_field(json, "wall_nanos")?,
        phases,
        counters,
        events,
        dropped_events: grid::u64_field(json, "dropped_events")?,
        // Absent in pre-streaming artifacts: default to 0.
        spilled_events: json
            .get("spilled_events")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Serializes traces, one JSON object per line, in the given order.
pub fn to_jsonl(traces: &[CellTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&trace_to_json(t).encode());
        out.push('\n');
    }
    out
}

/// Parses a trace artifact produced by [`to_jsonl`] or
/// [`capture_grid_streaming`] (blank lines tolerated). Spill chunk
/// lines (`{"spill":…}`) are reassembled: each cell's chunks are
/// ordered by sequence number and spliced back in front of the cell's
/// resident event tail, so the returned traces carry the complete
/// streams.
///
/// # Errors
///
/// A [`GridError`] naming the offending line, a chunk whose cell has
/// no trace line, or a missing chunk in a cell's sequence.
pub fn from_jsonl(text: &str) -> Result<Vec<CellTrace>, GridError> {
    let mut traces: Vec<CellTrace> = Vec::new();
    let mut chunks: BTreeMap<String, Vec<(u64, Vec<obs::Event>)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        fn err(lineno: usize, e: impl std::fmt::Display) -> GridError {
            GridError(format!("line {}: {e}", lineno + 1))
        }
        let json = Json::parse(line).map_err(|e| err(lineno, e))?;
        match json.get("spill") {
            Some(spill) => {
                let (job, seq, events) = spill_from_json(spill).map_err(|e| err(lineno, e))?;
                chunks.entry(job).or_default().push((seq, events));
            }
            None => traces.push(trace_from_json(&json).map_err(|e| err(lineno, e))?),
        }
    }
    for (job, mut cell_chunks) in chunks {
        let trace = traces
            .iter_mut()
            .find(|t| t.job.to_string() == job)
            .ok_or_else(|| GridError(format!("spill chunks for '{job}' have no trace line")))?;
        cell_chunks.sort_by_key(|(seq, _)| *seq);
        let mut events = Vec::new();
        for (i, (seq, chunk)) in cell_chunks.into_iter().enumerate() {
            if seq != i as u64 {
                return Err(GridError(format!(
                    "spill chunk {i} for '{job}' missing (next has seq {seq})"
                )));
            }
            events.extend(chunk);
        }
        events.append(&mut trace.events);
        trace.events = events;
    }
    Ok(traces)
}

/// Parses a grid cell key in the artifact spelling
/// `kind/technique/benchmark/scenario` (the [`Job`] display form, e.g.
/// `run/Schematic/crc/10000` or `run/Schematic/crc/stoch:10000:2000:3`).
pub fn parse_job_key(key: &str) -> Option<Job> {
    Job::parse(key).ok()
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// The emulator lifecycle event kinds, in no particular order (see
/// [`schematic_emu::trace`] for the schema).
pub const EMU_EVENT_KINDS: [&str; 11] = [
    "run_start",
    "boot",
    "checkpoint_commit",
    "checkpoint_torn",
    "checkpoint_skip",
    "sleep",
    "wakeup",
    "migrate",
    "power_failure",
    "restore",
    "run_end",
];

/// The snapshot fields every emulator event carries.
const SNAPSHOT_KEYS: [&str; 5] = ["comp_pj", "save_pj", "restore_pj", "reexec_pj", "cycles"];

fn ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

fn us_per_call(total_nanos: u64, calls: u64) -> String {
    if calls == 0 {
        return "-".into();
    }
    format!("{:.2}", total_nanos as f64 / calls as f64 / 1e3)
}

/// Renders the phase-time table aggregated across all traces: calls,
/// total milliseconds, mean microseconds per call, and each phase's
/// share of the summed span time. Spans nest (the RCG span runs inside
/// the analyze span), so shares are of inclusive time and need not add
/// up to 100.
pub fn render_phase_table(traces: &[CellTrace]) -> String {
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for t in traces {
        for p in &t.phases {
            let e = agg.entry(&p.name).or_default();
            e.0 += p.calls;
            e.1 += p.total_nanos;
        }
    }
    if agg.is_empty() {
        return "no spans recorded\n".to_string();
    }
    let grand: u64 = agg.values().map(|(_, total)| *total).sum();
    let mut order: Vec<(&str, u64, u64)> = agg
        .into_iter()
        .map(|(name, (calls, total))| (name, calls, total))
        .collect();
    order.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let headers = vec![
        "phase".to_string(),
        "calls".to_string(),
        "total ms".to_string(),
        "us/call".to_string(),
        "share %".to_string(),
    ];
    let rows: Vec<Vec<String>> = order
        .iter()
        .map(|&(name, calls, total)| {
            vec![
                name.to_string(),
                calls.to_string(),
                ms(total),
                us_per_call(total, calls),
                format!("{:.1}", total as f64 * 100.0 / grand as f64),
            ]
        })
        .collect();
    render_table(&headers, &rows)
}

/// Renders the `k` cells with the largest wall-clock time, with each
/// cell's dominant phase.
pub fn render_hot_cells(traces: &[CellTrace], k: usize) -> String {
    let mut order: Vec<&CellTrace> = traces.iter().collect();
    order.sort_by(|a, b| b.wall_nanos.cmp(&a.wall_nanos).then(a.job.cmp(&b.job)));
    let headers = vec![
        "cell".to_string(),
        "wall ms".to_string(),
        "dominant phase".to_string(),
    ];
    let rows: Vec<Vec<String>> = order
        .iter()
        .take(k)
        .map(|t| {
            let dominant = t
                .phases
                .iter()
                .max_by_key(|p| p.total_nanos)
                .map(|p| format!("{} ({} ms)", p.name, ms(p.total_nanos)))
                .unwrap_or_else(|| "-".to_string());
            vec![t.job.to_string(), ms(t.wall_nanos), dominant]
        })
        .collect();
    render_table(&headers, &rows)
}

fn snapshot_of(ev: &obs::Event) -> [u64; 5] {
    let mut s = [0u64; 5];
    for (i, key) in SNAPSHOT_KEYS.iter().enumerate() {
        s[i] = ev.u64_field(key).unwrap_or(0);
    }
    s
}

fn detail_of(ev: &obs::Event) -> String {
    let parts: Vec<String> = ev
        .fields
        .iter()
        .filter(|(k, _)| !SNAPSHOT_KEYS.contains(&k.as_str()))
        .map(|(k, v)| match v {
            obs::Value::U64(n) => format!("{k}={n}"),
            obs::Value::Str(s) => format!("{k}={s}"),
        })
        .collect();
    parts.join(" ")
}

/// Renders the epoch timeline of one traced cell: every lifecycle
/// event of the cell's *last* emulator run (a cell may run the
/// emulator several times — profiling runs inside compilation, the
/// measured run last), with the Fig. 6 energy delta each
/// inter-checkpoint segment consumed. The closing `run_end` row's
/// cumulative split equals the run's metrics exactly, so the final
/// "Fig. 6 split" line reproduces the cell's energy breakdown from
/// the event stream alone.
pub fn render_timeline(trace: &CellTrace) -> String {
    let events: Vec<&obs::Event> = trace
        .events
        .iter()
        .filter(|e| EMU_EVENT_KINDS.contains(&e.kind.as_str()))
        .collect();
    let mut out = format!("Timeline for {}\n", trace.job);
    if events.is_empty() {
        out.push_str("no emulator events recorded\n");
        return out;
    }
    let runs = events.iter().filter(|e| e.kind == "run_start").count();
    let last_start = events
        .iter()
        .rposition(|e| e.kind == "run_start")
        .unwrap_or(0);
    let segment = &events[last_start..];
    out.push_str(&format!(
        "{} emulator run(s) in this cell; showing the last ({} events)\n",
        runs.max(1),
        segment.len()
    ));
    if trace.dropped_events > 0 {
        out.push_str(&format!(
            "warning: event stream truncated ({} events dropped past the cap)\n",
            trace.dropped_events
        ));
    }
    let headers = vec![
        "event".to_string(),
        "detail".to_string(),
        "d-comp uJ".to_string(),
        "d-save uJ".to_string(),
        "d-restore uJ".to_string(),
        "d-reexec uJ".to_string(),
        "cycles".to_string(),
    ];
    let mut prev = [0u64; 5];
    let mut rows = Vec::with_capacity(segment.len());
    for ev in segment {
        let snap = snapshot_of(ev);
        rows.push(vec![
            ev.kind.clone(),
            detail_of(ev),
            uj(Energy::from_pj(snap[0].saturating_sub(prev[0]))),
            uj(Energy::from_pj(snap[1].saturating_sub(prev[1]))),
            uj(Energy::from_pj(snap[2].saturating_sub(prev[2]))),
            uj(Energy::from_pj(snap[3].saturating_sub(prev[3]))),
            snap[4].to_string(),
        ]);
        prev = snap;
    }
    out.push_str(&render_table(&headers, &rows));
    match segment.last() {
        Some(end) if end.kind == "run_end" => {
            let s = snapshot_of(end);
            out.push_str(&format!(
                "Fig. 6 split: computation {} uJ | save {} uJ | restore {} uJ | re-execution {} uJ\n",
                uj(Energy::from_pj(s[0])),
                uj(Energy::from_pj(s[1])),
                uj(Energy::from_pj(s[2])),
                uj(Energy::from_pj(s[3])),
            ));
        }
        _ => out.push_str("run did not reach run_end (event stream truncated?)\n"),
    }
    out
}

/// Renders the full observability report: the grid-wide phase table,
/// the `top_k` hottest cells, and — when `cell` names a traced job —
/// that cell's epoch timeline.
pub fn render_trace_report(traces: &[CellTrace], cell: Option<&Job>, top_k: usize) -> String {
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = traces.iter().map(|t| t.dropped_events).sum();
    let spilled: u64 = traces.iter().map(|t| t.spilled_events).sum();
    let mut out = format!(
        "Observability report: {} cells, {} events\n",
        traces.len(),
        total_events
    );
    if spilled > 0 {
        out.push_str(&format!(
            "({spilled} events streamed to the artifact as spill chunks)\n"
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            "({dropped} events dropped past the per-cell cap)\n"
        ));
    }
    out.push_str("\n== Phase times across the grid ==\n");
    out.push_str(&render_phase_table(traces));
    out.push_str("\n== Hottest cells ==\n");
    out.push_str(&render_hot_cells(traces, top_k));
    if let Some(job) = cell {
        out.push('\n');
        match traces.iter().find(|t| t.job == *job) {
            Some(t) => out.push_str(&render_timeline(t)),
            None => out.push_str(&format!("no trace recorded for cell {job}\n")),
        }
    }
    out
}

/// Compares two trace artifacts phase-by-phase and cell-by-cell:
/// `tracereport --diff BASELINE CANDIDATE`. Wall-clock times are
/// compared per cell (matched by grid key) and per aggregated phase;
/// a cell whose wall time grew by more than `threshold` (a fraction,
/// e.g. `0.25` for +25 %) is *flagged* as regressed. Returns the
/// rendered report and whether any cell was flagged, so the binary
/// can exit nonzero for CI gating.
///
/// Timings are wall-clock and host-sensitive — the threshold exists
/// precisely so jitter does not flag; compare artifacts captured on
/// the same host, and treat single-cell flags as a prompt to re-run,
/// not a verdict.
pub fn render_trace_diff(
    baseline: &[CellTrace],
    candidate: &[CellTrace],
    threshold: f64,
) -> (String, bool) {
    let mut out = format!(
        "Trace diff: {} baseline cell(s) vs {} candidate cell(s), flagging > +{:.0} %\n",
        baseline.len(),
        candidate.len(),
        threshold * 100.0
    );

    // Phase-by-phase: aggregate each side like the phase table does.
    let agg = |traces: &[CellTrace]| {
        let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for t in traces {
            for p in &t.phases {
                let e = m.entry(p.name.clone()).or_default();
                e.0 += p.calls;
                e.1 += p.total_nanos;
            }
        }
        m
    };
    let (a, b) = (agg(baseline), agg(candidate));
    let names: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    let delta_pct = |old: u64, new: u64| -> String {
        if old == 0 {
            return if new == 0 { "-".into() } else { "new".into() };
        }
        format!("{:+.1}", (new as f64 - old as f64) * 100.0 / old as f64)
    };
    out.push_str("\n== Phase times (aggregated) ==\n");
    let headers = vec![
        "phase".to_string(),
        "base ms".to_string(),
        "cand ms".to_string(),
        "delta %".to_string(),
        "base calls".to_string(),
        "cand calls".to_string(),
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|name| {
            let (ac, at) = a.get(*name).copied().unwrap_or((0, 0));
            let (bc, bt) = b.get(*name).copied().unwrap_or((0, 0));
            vec![
                (*name).clone(),
                ms(at),
                ms(bt),
                delta_pct(at, bt),
                ac.to_string(),
                bc.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));

    // Cell-by-cell wall clock, flagging regressions past the threshold.
    let index: BTreeMap<&Job, &CellTrace> = baseline.iter().map(|t| (&t.job, t)).collect();
    let mut regressed: Vec<(String, u64, u64, f64)> = Vec::new();
    let mut only_candidate = 0usize;
    for t in candidate {
        match index.get(&t.job) {
            Some(base) => {
                let grew = t.wall_nanos as f64 - base.wall_nanos as f64;
                let frac = if base.wall_nanos == 0 {
                    f64::INFINITY
                } else {
                    grew / base.wall_nanos as f64
                };
                if frac > threshold {
                    regressed.push((t.job.to_string(), base.wall_nanos, t.wall_nanos, frac));
                }
            }
            None => only_candidate += 1,
        }
    }
    let candidate_keys: std::collections::BTreeSet<&Job> =
        candidate.iter().map(|t| &t.job).collect();
    let only_baseline = baseline
        .iter()
        .filter(|t| !candidate_keys.contains(&t.job))
        .count();
    regressed.sort_by(|x, y| y.3.total_cmp(&x.3).then(x.0.cmp(&y.0)));
    out.push_str("\n== Regressed cells ==\n");
    if regressed.is_empty() {
        out.push_str(&format!(
            "none (no common cell grew by more than +{:.0} %)\n",
            threshold * 100.0
        ));
    } else {
        let headers = vec![
            "cell".to_string(),
            "base ms".to_string(),
            "cand ms".to_string(),
            "delta %".to_string(),
        ];
        let rows: Vec<Vec<String>> = regressed
            .iter()
            .map(|(key, base, cand, frac)| {
                vec![
                    key.clone(),
                    ms(*base),
                    ms(*cand),
                    format!("{:+.1}", frac * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(&headers, &rows));
    }
    if only_baseline > 0 || only_candidate > 0 {
        out.push_str(&format!(
            "(cells without a counterpart: {only_baseline} baseline-only, \
             {only_candidate} candidate-only)\n"
        ));
    }
    let flagged = !regressed.is_empty();
    out.push_str(&format!(
        "verdict: {}\n",
        if flagged {
            "REGRESSED — at least one cell exceeded the threshold"
        } else {
            "OK — no cell exceeded the threshold"
        }
    ));
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_key_roundtrips_display_form() {
        let job = Job::run("Schematic", "crc", 10_000);
        assert_eq!(parse_job_key(&job.to_string()), Some(job));
        assert_eq!(parse_job_key("run/Schematic/crc"), None);
        assert_eq!(parse_job_key("nope/Schematic/crc/0"), None);
        assert_eq!(parse_job_key("run/Schematic/crc/zero"), None);
    }

    /// A sink handing its bytes back through a shared buffer, so the
    /// test can read what streaming capture wrote.
    struct VecSink(Arc<Mutex<Vec<u8>>>);

    impl Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_capture_spills_past_the_cap_and_reassembles() {
        let was = obs::enabled();
        obs::set_enabled(true);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink: SharedSink = Arc::new(Mutex::new(Box::new(VecSink(Arc::clone(&buf)))));
        // Past the cap by 1.5 buffers: two spill batches of half a
        // buffer each must stream out, the rest stays resident.
        let total = 2 * obs::MAX_EVENTS;
        let job = Job::bare("crc");
        let ((), trace) = capture_cell(&job, Some(&sink), || {
            for i in 0..total {
                obs::event("tick", vec![("i", obs::Value::U64(i as u64))]);
            }
        });
        obs::set_enabled(was);
        assert_eq!(trace.spilled_events as usize + trace.events.len(), total);
        assert!(trace.spilled_events > 0, "flood past the cap must spill");
        assert_eq!(trace.dropped_events, 0, "spilling replaces dropping");

        // The artifact = streamed chunks + the trace line; reassembly
        // restores the full ordered stream.
        let mut text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text.push_str(&trace_to_json(&trace).encode());
        text.push('\n');
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].events.len(), total);
        for (i, ev) in back[0].events.iter().enumerate() {
            assert_eq!(ev.u64_field("i"), Some(i as u64), "event {i} out of order");
        }
    }

    #[test]
    fn spill_chunks_reassemble_by_seq_regardless_of_line_order() {
        let ev = |i: u64| obs::Event {
            kind: "tick".into(),
            fields: vec![("i".into(), obs::Value::U64(i))],
        };
        let job = Job::bare("crc");
        let trace = CellTrace {
            job: job.clone(),
            wall_nanos: 1,
            phases: Vec::new(),
            counters: Vec::new(),
            events: vec![ev(4), ev(5)],
            dropped_events: 0,
            spilled_events: 4,
        };
        // Chunks written out of order (seq 1 before seq 0) still
        // splice back in sequence, ahead of the resident tail.
        let text = format!(
            "{}\n{}\n{}\n",
            spill_to_json(&job, 1, &[ev(2), ev(3)]).encode(),
            trace_to_json(&trace).encode(),
            spill_to_json(&job, 0, &[ev(0), ev(1)]).encode(),
        );
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        let got: Vec<u64> = back[0]
            .events
            .iter()
            .map(|e| e.u64_field("i").unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);

        // An orphan chunk (no trace line for its cell) is an error…
        let orphan = format!(
            "{}\n",
            spill_to_json(&Job::bare("fft"), 0, &[ev(0)]).encode()
        );
        let e = from_jsonl(&orphan).unwrap_err();
        assert!(e.to_string().contains("no trace line"), "got: {e}");

        // …and so is a gap in the sequence.
        let gap = format!(
            "{}\n{}\n",
            spill_to_json(&job, 1, &[ev(2)]).encode(),
            trace_to_json(&trace).encode(),
        );
        let e = from_jsonl(&gap).unwrap_err();
        assert!(e.to_string().contains("missing"), "got: {e}");
    }

    #[test]
    fn spill_chunk_bytes_match_golden() {
        let ev = |kind: &str| obs::Event {
            kind: kind.into(),
            fields: vec![
                ("i".into(), obs::Value::U64(u64::MAX)),
                (
                    "name".into(),
                    obs::Value::Str("q\"b\\n\nc\u{1}d†e😀".into()),
                ),
            ],
        };
        let events = [ev("tick"), ev("q\"b\\n\nc\u{1}d†e😀")];
        let line = format!(
            "{}\n",
            spill_to_json(&Job::bare("crc"), 3, &events).encode()
        );
        assert_eq!(line, include_str!("../tests/goldens/trace_spill.jsonl"));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = CellTrace {
            job: Job::bare("crc"),
            wall_nanos: 42,
            phases: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        };
        let text = to_jsonl(std::slice::from_ref(&t));
        assert_eq!(from_jsonl(&text).unwrap(), vec![t]);
    }

    #[test]
    fn renderers_tolerate_empty_input() {
        assert!(render_phase_table(&[]).contains("no spans"));
        let t = CellTrace {
            job: Job::bare("crc"),
            wall_nanos: 1,
            phases: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        };
        assert!(render_timeline(&t).contains("no emulator events"));
        let report = render_trace_report(&[t], Some(&Job::bare("fft")), 3);
        assert!(report.contains("no trace recorded for cell bare/-/fft/0"));
    }

    fn cell(name: &str, wall: u64, phase_nanos: u64) -> CellTrace {
        CellTrace {
            job: Job::bare(name),
            wall_nanos: wall,
            phases: vec![PhaseLine {
                name: "cell/emulate".into(),
                calls: 1,
                total_nanos: phase_nanos,
                p50_nanos: phase_nanos,
                p95_nanos: phase_nanos,
            }],
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        }
    }

    #[test]
    fn diff_flags_only_cells_past_the_threshold() {
        let base = vec![
            cell("crc", 1_000_000, 900_000),
            cell("fft", 1_000_000, 900_000),
        ];
        // crc +50 % (flagged at a 25 % threshold), fft +10 % (not).
        let cand = vec![
            cell("crc", 1_500_000, 1_400_000),
            cell("fft", 1_100_000, 990_000),
        ];
        let (report, flagged) = render_trace_diff(&base, &cand, 0.25);
        assert!(flagged);
        assert!(report.contains("bare/-/crc/0"));
        assert!(!report.contains("bare/-/fft/0"));
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("cell/emulate"));

        let (report, flagged) = render_trace_diff(&base, &cand, 0.60);
        assert!(!flagged);
        assert!(report.contains("OK — no cell exceeded the threshold"));
    }

    #[test]
    fn diff_tolerates_one_sided_cells_and_empty_artifacts() {
        let base = vec![cell("crc", 100, 90), cell("dijkstra", 100, 90)];
        let cand = vec![cell("crc", 100, 90), cell("fft", 100, 90)];
        let (report, flagged) = render_trace_diff(&base, &cand, 0.25);
        assert!(!flagged);
        assert!(report.contains("1 baseline-only, 1 candidate-only"));

        // Wholly new cells (zero-wall baseline is impossible for a real
        // capture, but the renderer must not divide by zero).
        let (report, flagged) = render_trace_diff(&[], &cand, 0.25);
        assert!(!flagged);
        assert!(report.contains("0 baseline cell(s) vs 2 candidate cell(s)"));
        let (_, flagged) = render_trace_diff(&[cell("crc", 0, 0)], &[cell("crc", 1, 1)], 0.25);
        assert!(
            flagged,
            "growth from a zero-wall baseline counts as regressed"
        );
    }
}
