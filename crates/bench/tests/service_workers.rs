//! A real worker fan-out: [`service::run_workers`] spawns two `gridrun
//! --jobs` processes over five cheap jobs. Every line they write must
//! parse, carry the same cell and program digests as an in-process
//! evaluation, and ship a registry holding the job's wall span; the
//! scratch directory must be gone afterwards.

use schematic_bench::cache::parse_worker_line;
use schematic_bench::grid::{evaluate_traced, GridMode, Job};
use schematic_bench::service;
use schematic_energy::CostTable;
use std::path::Path;

#[test]
fn two_workers_return_every_cell_with_telemetry() {
    let jobs = vec![
        Job::support("Schematic", "crc"),
        Job::support("Schematic", "fft"),
        Job::bare("crc"),
        Job::bare("fft"),
        Job::run("Schematic", "crc", 10_000),
    ];
    let scratch = std::env::temp_dir().join(format!("service-workers-{}", std::process::id()));
    let outputs = service::run_workers(
        Path::new(env!("CARGO_BIN_EXE_gridrun")),
        GridMode::Quick,
        &jobs,
        2,
        scratch.clone(),
    )
    .expect("workers succeed");
    assert_eq!(outputs.len(), 2, "one artifact per worker");
    assert!(!scratch.exists(), "scratch directory removed");

    let table = CostTable::msp430fr5969();
    let mut seen = Vec::new();
    for line in outputs.iter().flat_map(|text| text.lines()) {
        let (job, value, ims, telemetry) = parse_worker_line(line).expect("line parses");
        assert_eq!((value, ims), evaluate_traced(&job, &table), "{job}");
        assert!(
            telemetry.registry.spans.contains_key(&format!("job/{job}")),
            "{job} carries its wall span"
        );
        seen.push(job);
    }
    seen.sort();
    let mut expected = jobs;
    expected.sort();
    assert_eq!(seen, expected);
}
