//! Shard/merge parity: splitting the quick grid across shards, round-
//! tripping every shard through the JSONL artifact format and merging
//! must reproduce the unsharded all-reports render byte-for-byte — the
//! same observational-invisibility contract `parallel_parity` pins for
//! the in-process worker count, lifted to the multi-process pipeline.
//! Each report's own slice (what `gridrun --report NAME` computes) must
//! render its section alone.

use schematic_bench::experiments::{render_all, render_report};
use schematic_bench::grid::{CellStore, GridMode, GridSpec, ALL_REPORTS};

#[test]
fn sharded_merge_renders_byte_identical_exp_all() {
    let spec = GridSpec::full_grid(GridMode::Quick);
    // Unsharded reference run.
    let reference_store = CellStore::compute(spec.jobs());
    let reference = render_all(&reference_store, GridMode::Quick);
    assert!(reference.contains("Table I"), "a real report rendered");
    assert!(reference.contains("soundcheck"), "all sections rendered");

    // N = 2: recompute each shard from scratch — exactly what two
    // `gridrun --shard i/2` processes do — round-trip both artifacts
    // through JSONL, and merge in reverse order (merge must not depend
    // on arrival order).
    let artifacts: Vec<String> = (0..2)
        .map(|i| CellStore::compute(&spec.shard(i, 2)).to_jsonl())
        .collect();
    let mut merged = CellStore::new();
    for text in artifacts.iter().rev() {
        merged
            .merge_from(CellStore::from_jsonl(text).expect("artifact parses"))
            .expect("no conflicting cells");
    }
    assert!(merged.missing(spec.jobs()).is_empty(), "full coverage");
    assert_eq!(render_all(&merged, GridMode::Quick), reference);

    // N ∈ {1, 3, 7}: shard partitioning, artifact codec and merge
    // determinism over the same grid. Cell values come from the
    // reference store — per-shard recomputation determinism is already
    // pinned by the N = 2 case above and by `parallel_parity`.
    for n in [1usize, 3, 7] {
        let mut merged = CellStore::new();
        for i in (0..n).rev() {
            let mut shard = CellStore::new();
            for job in spec.shard(i, n) {
                let value = reference_store.value(&job).clone();
                shard.insert(job, value).expect("jobs are unique");
            }
            merged
                .merge_from(CellStore::from_jsonl(&shard.to_jsonl()).expect("artifact parses"))
                .expect("no conflicting cells");
        }
        assert!(merged.missing(spec.jobs()).is_empty(), "n = {n}");
        assert_eq!(render_all(&merged, GridMode::Quick), reference, "n = {n}");
    }

    // Every report's slice is complete: restricted to its own jobs, the
    // reference store renders exactly that report's section.
    let mut sections = String::new();
    for report in ALL_REPORTS {
        let mut slice = CellStore::new();
        for job in GridSpec::for_report(report, GridMode::Quick).jobs() {
            let value = reference_store.value(job).clone();
            slice.insert(job.clone(), value).expect("jobs are unique");
        }
        let (text, pass) = render_report(report, &slice, GridMode::Quick);
        assert!(pass, "{} passes", report.name());
        sections.push_str(&format!(
            "\n================ {} ================\n\n{text}",
            report.name()
        ));
    }
    assert_eq!(sections, reference);
}

/// A merged store missing cells is rejected before rendering — the
/// coverage check `gridrun --merge` relies on.
#[test]
fn partial_merge_reports_missing_cells() {
    let spec = GridSpec::full_grid(GridMode::Quick);
    let store = CellStore::new();
    let missing = store.missing(spec.jobs());
    assert_eq!(missing.len(), spec.len());
}
