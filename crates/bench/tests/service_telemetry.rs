//! Telemetry neutrality over the real quick grid: capturing per-job
//! worker registries (the `gridrun --jobs` telemetry path the `gridd`
//! service merges) must not change a single byte of the computed cells
//! or the rendered reports, and the captured registries must merge
//! deterministically regardless of arrival order — the contract that
//! lets the daemon fold worker telemetry from any dispatch interleaving.

use schematic_bench::cache::{self, WorkerTelemetry};
use schematic_bench::experiments::render_all;
use schematic_bench::grid::{evaluate_traced, CellStore, GridMode, GridSpec};
use schematic_energy::CostTable;
use schematic_obs::Registry;

#[test]
fn telemetry_capture_is_invisible_to_grid_output() {
    let spec = GridSpec::full_grid(GridMode::Quick);
    let table = CostTable::msp430fr5969();

    // Telemetry off: plain evaluation.
    schematic_obs::set_enabled(false);
    let mut off = CellStore::new();
    let mut off_cells = Vec::new();
    for job in spec.jobs() {
        let (value, ims) = evaluate_traced(job, &table);
        off_cells.push((job.clone(), value.clone(), ims));
        off.insert(job.clone(), value).unwrap();
    }
    let off_render = render_all(&off, GridMode::Quick);

    // Telemetry on: capture a registry per job exactly as `gridrun
    // --jobs` does (synthetic wall time keeps the artifact lines
    // deterministic).
    schematic_obs::set_enabled(true);
    let mut on = CellStore::new();
    let mut on_lines = Vec::new();
    let mut telemetry = Vec::new();
    for job in spec.jobs() {
        let ((value, ims), mut registry) = schematic_obs::capture(|| evaluate_traced(job, &table));
        registry.record_span(&format!("job/{job}"), 1);
        let t = WorkerTelemetry {
            wall_nanos: 1,
            registry,
        };
        on_lines.push(cache::worker_line(job, &value, &ims, &t));
        telemetry.push(t);
        on.insert(job.clone(), value).unwrap();
    }
    schematic_obs::set_enabled(false);

    // Byte parity: same cells, same reports.
    assert_eq!(on.to_jsonl(), off.to_jsonl());
    assert_eq!(render_all(&on, GridMode::Quick), off_render);

    // Every worker line parses back to the telemetry-off cell and
    // program digests, and round-trips its registry exactly.
    for ((cell, line), t) in off_cells.iter().zip(&on_lines).zip(&telemetry) {
        let (job, value, ims, parsed) = cache::parse_worker_line(line).unwrap();
        assert_eq!((&job, &value, &ims), (&cell.0, &cell.1, &cell.2));
        assert_eq!(parsed.wall_nanos, t.wall_nanos);
        assert_eq!(parsed.registry, t.registry);
    }

    // Every job captured real phase spans, and merging the fleet's
    // registries is order-independent: the aggregates (spans, counters,
    // histograms) are byte-identical however the lines arrive, and the
    // event log — inherently ordered — carries the same multiset.
    let mut forward = Registry::default();
    for t in &telemetry {
        forward.merge_from(t.registry.clone());
    }
    let mut reverse = Registry::default();
    for t in telemetry.iter().rev() {
        reverse.merge_from(t.registry.clone());
    }
    let mut fwd_events: Vec<String> = forward.events.iter().map(|e| format!("{e:?}")).collect();
    let mut rev_events: Vec<String> = reverse.events.iter().map(|e| format!("{e:?}")).collect();
    fwd_events.sort();
    rev_events.sort();
    assert_eq!(fwd_events, rev_events);
    forward.events.clear();
    reverse.events.clear();
    assert_eq!(
        schematic_obs::codec::encode(&forward),
        schematic_obs::codec::encode(&reverse)
    );
    assert_eq!(
        forward
            .spans
            .keys()
            .filter(|k| k.starts_with("job/"))
            .count(),
        spec.len()
    );
    assert!(forward.spans.keys().any(|k| k.starts_with("cell/")));
}
