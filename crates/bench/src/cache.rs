//! Content-addressed cell cache: skip re-evaluating grid cells whose
//! inputs have not changed.
//!
//! A cell's value is a pure function of four things: the job key, the
//! platform cost table, the configurations the kernel compiles and runs
//! with, and the compiled programs themselves. The cache captures that
//! dependency chain with **two** content-addressed record kinds instead
//! of one, so the warm path can skip the compile too:
//!
//! * A **memo** record maps the *compile inputs* — job, cost table,
//!   configs, and the stable digest of the benchmark's *source* module —
//!   to the digests of every [`InstrumentedModule`] the kernel produced
//!   ([`memo_key`]). Building a source module and hashing it costs
//!   microseconds; compiling and placing checkpoints does not.
//! * A **cell** record maps the *evaluation inputs* — job, cost table,
//!   configs, and the instrumented-module digests — to the cell's value
//!   ([`cell_key`]). Routing the cell key through the memo's digests
//!   means an edited benchmark or perturbed platform constant misses the
//!   memo, which misses the cell, which recomputes — no staleness by
//!   construction.
//!
//! Both keys also fold in [`KEY_SCHEMA_VERSION`]; bump it whenever the
//! *kernel code* changes what a cell means (the one input content
//! addressing cannot see).
//!
//! The store is an append-only JSONL file (one record per line, via
//! [`crate::json`]). Loading is tolerant: unparsable or truncated lines
//! — a crashed writer's torn tail — and records from another schema are
//! skipped, never fatal; the cache is advisory and a lost record only
//! costs a recompute. Duplicate keys resolve last-writer-wins, and
//! [`CellCache::open`] compacts the file (rewrite-then-rename) when more
//! than a third of its lines are dead. Single-writer discipline is the
//! caller's job: `gridrun` child shards run with the cache off, and in
//! daemon mode `gridd` is the sole writer.

use crate::grid::{
    cell_from_json, cell_to_json, evaluate_traced, write_job_identity, CellStore, CellValue,
    GridError, Job,
};
use crate::json::Json;
use crate::parallel::par_map;
use schematic_energy::CostTable;
use schematic_ir::hash::{hash_module, Digest, StableHasher};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version of the key derivation *and* of the meaning of the kernels
/// behind it. Bump on any change to what a cell computes that the
/// content-addressed inputs cannot express (kernel edits, metric
/// semantics); every old record then misses and the grid recomputes.
///
/// v2: index-sensitive WAR analysis (per-element footprints, region
/// downgrades, re-execution bounds) changed soundness verdicts.
///
/// v3: the pluggable power-scenario layer replaced the raw `tbpf` job
/// field with a [`crate::Scenario`] (periodic / stochastic / recorded
/// trace) in keys and artifact lines.
pub const KEY_SCHEMA_VERSION: u64 = 3;

/// Identity of the static soundness analysis the cells' verdicts come
/// from, folded into every key: cells computed under the
/// index-insensitive analysis invalidate by construction instead of
/// replaying stale region classifications.
pub const ANALYSIS_VERSION: &str = "anomaly/index-sensitive-v1";

/// Shared prefix of both keys: schema version, analysis tag, domain
/// separator, the full job key, the platform identity, and every
/// configuration the job's kernel will compile or run with.
fn write_key_prefix(h: &mut StableHasher, domain: &str, job: &Job, table: &CostTable) {
    h.write_u64(KEY_SCHEMA_VERSION);
    h.write_str(ANALYSIS_VERSION);
    h.write_str(domain);
    h.write_str(job.kind.name());
    h.write_str(&job.technique);
    h.write_str(&job.benchmark);
    job.scenario.identity_into(h);
    table.identity_into(h);
    write_job_identity(job, table, h);
}

/// The compile-memo key: everything that determines *which instrumented
/// modules* a job's kernel produces — including `source`, the
/// [`hash_module`] digest of the benchmark's built module.
pub fn memo_key(job: &Job, table: &CostTable, source: Digest) -> Digest {
    let mut h = StableHasher::new();
    write_key_prefix(&mut h, "memo", job, table);
    h.write_u64(source.hi);
    h.write_u64(source.lo);
    h.finish()
}

/// The cell-value key: everything that determines a job's value given
/// the compiled programs — `ims` are the instrumented-module digests the
/// kernel reported (in kernel order; empty when nothing compiled).
pub fn cell_key(job: &Job, table: &CostTable, ims: &[Digest]) -> Digest {
    let mut h = StableHasher::new();
    write_key_prefix(&mut h, "cell", job, table);
    h.write_u64(ims.len() as u64);
    for d in ims {
        h.write_u64(d.hi);
        h.write_u64(d.lo);
    }
    h.finish()
}

/// Per-process memo of benchmark source digests: building a module and
/// hashing it is cheap but not free, and the warm path does it once per
/// benchmark, not once per cell.
#[derive(Debug, Default)]
pub struct SourceDigests {
    map: BTreeMap<String, Digest>,
}

impl SourceDigests {
    /// An empty memo.
    pub fn new() -> SourceDigests {
        SourceDigests::default()
    }

    /// The stable digest of `benchmark`'s built source module.
    ///
    /// # Panics
    ///
    /// On an unknown benchmark name (same contract as the grid kernels).
    pub fn digest(&mut self, benchmark: &str) -> Digest {
        if let Some(d) = self.map.get(benchmark) {
            return *d;
        }
        let b = schematic_benchsuite::by_name(benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark '{benchmark}'"));
        let d = hash_module(&(b.build)(crate::SEED));
        self.map.insert(benchmark.to_string(), d);
        d
    }
}

fn hex(d: Digest) -> Json {
    Json::Str(d.to_hex())
}

fn digest_field(json: &Json, key: &str) -> Option<Digest> {
    Digest::from_hex(json.get(key)?.as_str()?)
}

/// The disk-backed cache: memo and cell records keyed by digest.
#[derive(Debug)]
pub struct CellCache {
    path: PathBuf,
    memos: BTreeMap<Digest, Vec<Digest>>,
    cells: BTreeMap<Digest, (Job, CellValue)>,
    /// Lines in the backing file that are not live records (superseded
    /// duplicates, torn tails, foreign schemas) — the compaction
    /// trigger.
    dead: usize,
}

impl CellCache {
    /// Opens (or creates on first write) the cache at `path`, loading
    /// every live record. Never fails: an unreadable file or line is an
    /// empty/shorter cache, not an error. Compacts the file in place
    /// when dead lines outnumber a third of the total.
    pub fn open(path: impl AsRef<Path>) -> CellCache {
        let path = path.as_ref().to_path_buf();
        let mut cache = CellCache {
            path,
            memos: BTreeMap::new(),
            cells: BTreeMap::new(),
            dead: 0,
        };
        let text = fs::read_to_string(&cache.path).unwrap_or_default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if !cache.load_line(line) {
                cache.dead += 1;
            }
        }
        let live = cache.memos.len() + cache.cells.len();
        if cache.dead > 0 && cache.dead * 2 > live {
            let _ = cache.compact();
        }
        cache
    }

    /// Parses one record line into the in-memory maps; `false` when the
    /// line is not a live record of this schema.
    fn load_line(&mut self, line: &str) -> bool {
        let json = match Json::parse(line) {
            Ok(j) => j,
            Err(_) => return false,
        };
        if json.get("schema").and_then(Json::as_u64) != Some(KEY_SCHEMA_VERSION) {
            return false;
        }
        let Some(key) = digest_field(&json, "k") else {
            return false;
        };
        match json.get("t").and_then(Json::as_str) {
            Some("memo") => {
                let Some(Json::Arr(items)) = json.get("ims") else {
                    return false;
                };
                let mut ims = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str().and_then(Digest::from_hex) {
                        Some(d) => ims.push(d),
                        None => return false,
                    }
                }
                if self.memos.insert(key, ims).is_some() {
                    self.dead += 1; // superseded duplicate
                }
                true
            }
            Some("cell") => {
                let Some(cell) = json.get("cell") else {
                    return false;
                };
                let Ok((job, value)) = cell_from_json(cell) else {
                    return false;
                };
                if self.cells.insert(key, (job, value)).is_some() {
                    self.dead += 1;
                }
                true
            }
            _ => false,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live `(memo, cell)` record counts.
    pub fn len(&self) -> (usize, usize) {
        (self.memos.len(), self.cells.len())
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.memos.is_empty() && self.cells.is_empty()
    }

    /// The instrumented-module digests memoized for a compile-inputs
    /// key.
    pub fn memo_get(&self, key: Digest) -> Option<&[Digest]> {
        self.memos.get(&key).map(Vec::as_slice)
    }

    /// Records a compile memo and appends it to the backing file
    /// (best-effort: an append failure costs a future recompute, never
    /// the current run).
    pub fn memo_put(&mut self, key: Digest, ims: Vec<Digest>) {
        let record = Json::obj(vec![
            ("schema", Json::UInt(KEY_SCHEMA_VERSION)),
            ("t", Json::Str("memo".into())),
            ("k", hex(key)),
            ("ims", Json::Arr(ims.iter().map(|&d| hex(d)).collect())),
        ]);
        if self.memos.insert(key, ims).is_some() {
            self.dead += 1;
        }
        self.append(&record);
    }

    /// The cached value for a cell key.
    pub fn cell_get(&self, key: Digest) -> Option<&CellValue> {
        self.cells.get(&key).map(|(_, v)| v)
    }

    /// Records a cell value and appends it to the backing file
    /// (best-effort, like [`CellCache::memo_put`]).
    pub fn cell_put(&mut self, key: Digest, job: &Job, value: CellValue) {
        let record = Json::obj(vec![
            ("schema", Json::UInt(KEY_SCHEMA_VERSION)),
            ("t", Json::Str("cell".into())),
            ("k", hex(key)),
            ("cell", cell_to_json(job, &value)),
        ]);
        if self.cells.insert(key, (job.clone(), value)).is_some() {
            self.dead += 1;
        }
        self.append(&record);
    }

    fn append(&self, record: &Json) {
        let mut line = record.encode();
        line.push('\n');
        let opened = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path);
        if let Ok(mut f) = opened {
            let _ = f.write_all(line.as_bytes());
        }
    }

    /// Rewrites the backing file with only the live records (memos
    /// first, then cells, in key order), via a temporary file and an
    /// atomic rename so a crash never leaves a half-written cache.
    ///
    /// # Errors
    ///
    /// The underlying filesystem error, if any.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let mut out = String::new();
        for (&key, ims) in &self.memos {
            let record = Json::obj(vec![
                ("schema", Json::UInt(KEY_SCHEMA_VERSION)),
                ("t", Json::Str("memo".into())),
                ("k", hex(key)),
                ("ims", Json::Arr(ims.iter().map(|&d| hex(d)).collect())),
            ]);
            out.push_str(&record.encode());
            out.push('\n');
        }
        for (&key, (job, value)) in &self.cells {
            let record = Json::obj(vec![
                ("schema", Json::UInt(KEY_SCHEMA_VERSION)),
                ("t", Json::Str("cell".into())),
                ("k", hex(key)),
                ("cell", cell_to_json(job, value)),
            ]);
            out.push_str(&record.encode());
            out.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &self.path)?;
        self.dead = 0;
        Ok(())
    }
}

/// Pass 1 of a cached evaluation (serial, cheap): splits `jobs` into
/// cache hits (with their values) and misses, tallying both on the
/// process-global `cache/hit` / `cache/miss` counters. Shared by
/// [`compute_cached`] and the daemon's worker-dispatch path, which
/// resolves hits locally and farms only the misses out.
pub fn resolve(
    jobs: &[Job],
    cache: &CellCache,
    table: &CostTable,
    sources: &mut SourceDigests,
) -> (Vec<(Job, CellValue)>, Vec<Job>) {
    let mut hits: Vec<(Job, CellValue)> = Vec::new();
    let mut misses: Vec<Job> = Vec::new();
    let mut hit_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut miss_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for job in jobs {
        let source = sources.digest(&job.benchmark);
        let cached = cache
            .memo_get(memo_key(job, table, source))
            .map(|ims| cell_key(job, table, ims))
            .and_then(|ck| cache.cell_get(ck));
        match cached {
            Some(value) => {
                *hit_kinds.entry(job.kind.name()).or_default() += 1;
                hits.push((job.clone(), value.clone()));
            }
            None => {
                *miss_kinds.entry(job.kind.name()).or_default() += 1;
                misses.push(job.clone());
            }
        }
    }
    schematic_obs::gcount("cache/hit", hits.len() as u64);
    schematic_obs::gcount("cache/miss", misses.len() as u64);
    // Per-report-kind tallies drive the service renderer's hit-rate
    // table; the aggregates above stay the queue-accounting invariant
    // (hits + misses == resolved jobs).
    for (kind, n) in hit_kinds {
        schematic_obs::gcount(&format!("cache/hit/{kind}"), n);
    }
    for (kind, n) in miss_kinds {
        schematic_obs::gcount(&format!("cache/miss/{kind}"), n);
    }
    (hits, misses)
}

/// Tallies of one [`compute_cached`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from the cache.
    pub hits: usize,
    /// Cells evaluated from scratch (and written back).
    pub computed: usize,
}

/// Evaluates `jobs` into a [`CellStore`], answering from `cache` where
/// possible and writing every miss back. With `cache = None` this is
/// exactly [`CellStore::compute_with_progress`]. `progress(done, total)`
/// reports *computed* cells only — hits are effectively free and would
/// drown the signal.
///
/// With `verify` set, cache hits are additionally recomputed and
/// compared — the paranoia mode `gridrun --cache-verify` exposes; any
/// divergence (a stale or corrupt cache that content addressing should
/// have made impossible) is a hard error naming the cells.
///
/// # Errors
///
/// A [`GridError`] listing mismatched cells in verify mode.
pub fn compute_cached(
    jobs: &[Job],
    cache: Option<&mut CellCache>,
    verify: bool,
    progress: &(impl Fn(usize, usize) + Sync),
) -> Result<(CellStore, CacheStats), GridError> {
    let Some(cache) = cache else {
        let store = CellStore::compute_with_progress(jobs, progress);
        let stats = CacheStats {
            hits: 0,
            computed: jobs.len(),
        };
        return Ok((store, stats));
    };
    let table = CostTable::msp430fr5969();
    let mut sources = SourceDigests::new();
    let (hits, misses) = resolve(jobs, cache, &table, &mut sources);

    // Pass 2 (parallel): evaluate the misses — and, in verify mode,
    // re-evaluate the hits to cross-check the cache.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let total = misses.len();
    let done = AtomicUsize::new(0);
    let computed: Vec<(CellValue, Vec<Digest>)> = par_map(&misses, |job| {
        let out = evaluate_traced(job, &table);
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        out
    });
    if verify {
        schematic_obs::gcount("cache/verify", hits.len() as u64);
        let fresh = par_map(&hits, |(job, _)| evaluate_traced(job, &table).0);
        let mismatched: Vec<String> = hits
            .iter()
            .zip(&fresh)
            .filter(|((_, cached), fresh)| *cached != **fresh)
            .map(|((job, _), _)| job.to_string())
            .collect();
        if !mismatched.is_empty() {
            return Err(GridError(format!(
                "cache verification failed: {} stale cell(s): {}",
                mismatched.len(),
                mismatched.join(", ")
            )));
        }
    }

    // Pass 3 (serial): write misses back and assemble the store.
    let mut store = CellStore::new();
    for (job, value) in &hits {
        store
            .insert(job.clone(), value.clone())
            .expect("cached cells are deterministic");
    }
    for (job, (value, ims)) in misses.iter().zip(computed) {
        let source = sources.digest(&job.benchmark);
        let ck = cell_key(job, &table, &ims);
        cache.memo_put(memo_key(job, &table, source), ims);
        cache.cell_put(ck, job, value.clone());
        store
            .insert(job.clone(), value)
            .expect("computed cells are deterministic");
    }
    Ok((
        store,
        CacheStats {
            hits: hits.len(),
            computed: misses.len(),
        },
    ))
}

/// Per-job telemetry a worker attaches to its artifact line: the job's
/// wall-clock nanoseconds plus everything the job's [`schematic_obs`]
/// capture recorded (phase spans, counters, events).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Wall-clock nanoseconds the worker spent evaluating the job.
    pub wall_nanos: u64,
    /// The job's captured observation registry.
    pub registry: schematic_obs::Registry,
}

/// Encodes one worker-shard output line: the cell plus its
/// instrumented-module digests, so a parent with the cache (the daemon)
/// can append both record kinds without recompiling anything.
pub fn worker_line(job: &Job, value: &CellValue, ims: &[Digest]) -> String {
    worker_record(job, value, ims, None).encode()
}

/// [`worker_line`] with per-job telemetry attached: the registry rides
/// the line as an embedded [`schematic_obs::codec`] string, so the
/// digest-carrying artifact stream doubles as the telemetry channel —
/// no second file, no second protocol.
pub fn worker_line_telemetry(
    job: &Job,
    value: &CellValue,
    ims: &[Digest],
    telemetry: &WorkerTelemetry,
) -> String {
    worker_record(job, value, ims, Some(telemetry)).encode()
}

fn worker_record(
    job: &Job,
    value: &CellValue,
    ims: &[Digest],
    telemetry: Option<&WorkerTelemetry>,
) -> Json {
    let mut pairs = vec![
        ("cell", cell_to_json(job, value)),
        ("ims", Json::Arr(ims.iter().map(|&d| hex(d)).collect())),
    ];
    if let Some(t) = telemetry {
        pairs.push(("wall_nanos", Json::UInt(t.wall_nanos)));
        pairs.push((
            "telemetry",
            Json::Str(schematic_obs::codec::encode(&t.registry)),
        ));
    }
    Json::obj(pairs)
}

/// Decodes a [`worker_line`], ignoring any telemetry fields — the
/// cell-folding path a parent without a registry uses.
///
/// # Errors
///
/// A [`GridError`] describing the malformed field.
pub fn parse_worker_line(line: &str) -> Result<(Job, CellValue, Vec<Digest>), GridError> {
    parse_worker_line_telemetry(line).map(|(job, value, ims, _)| (job, value, ims))
}

/// Decodes a worker line including its optional telemetry: `None` when
/// the line came from a telemetry-off worker (both spellings stay
/// parseable so mixed fleets interoperate).
///
/// # Errors
///
/// A [`GridError`] describing the malformed field — including a
/// present-but-corrupt telemetry payload, which must not silently
/// vanish from service aggregates.
pub fn parse_worker_line_telemetry(
    line: &str,
) -> Result<(Job, CellValue, Vec<Digest>, Option<WorkerTelemetry>), GridError> {
    let json = Json::parse(line).map_err(|e| GridError(e.to_string()))?;
    let cell = json
        .get("cell")
        .ok_or_else(|| GridError("missing field 'cell'".into()))?;
    let (job, value) = cell_from_json(cell)?;
    let Some(Json::Arr(items)) = json.get("ims") else {
        return Err(GridError("missing or non-array field 'ims'".into()));
    };
    let mut ims = Vec::with_capacity(items.len());
    for item in items {
        let d = item
            .as_str()
            .and_then(Digest::from_hex)
            .ok_or_else(|| GridError("field 'ims' holds a non-digest entry".into()))?;
        ims.push(d);
    }
    let telemetry = match (json.get("wall_nanos"), json.get("telemetry")) {
        (None, None) => None,
        (Some(wall), Some(text)) => {
            let wall_nanos = wall
                .as_u64()
                .ok_or_else(|| GridError("non-integer field 'wall_nanos'".into()))?;
            let encoded = text
                .as_str()
                .ok_or_else(|| GridError("non-string field 'telemetry'".into()))?;
            let registry = schematic_obs::codec::parse(encoded)
                .map_err(|e| GridError(format!("bad telemetry payload: {e}")))?;
            Some(WorkerTelemetry {
                wall_nanos,
                registry,
            })
        }
        _ => {
            return Err(GridError(
                "fields 'wall_nanos' and 'telemetry' must appear together".into(),
            ))
        }
    };
    Ok((job, value, ims, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("schematic-cache-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn quick_jobs() -> Vec<Job> {
        vec![
            Job::support("Schematic", "crc"),
            Job::support("Mementos", "crc"),
            Job::bare("crc"),
            Job::run("Schematic", "crc", 10_000),
        ]
    }

    #[test]
    fn keys_are_sensitive_to_every_input() {
        let table = CostTable::msp430fr5969();
        let job = Job::run("Schematic", "crc", 10_000);
        let src = Digest { hi: 1, lo: 2 };
        let base = memo_key(&job, &table, src);
        // Same inputs, same key.
        assert_eq!(base, memo_key(&job, &table, src));
        // Any job field.
        assert_ne!(
            base,
            memo_key(&Job::run("Ratchet", "crc", 10_000), &table, src)
        );
        assert_ne!(
            base,
            memo_key(&Job::run("Schematic", "fft", 10_000), &table, src)
        );
        assert_ne!(
            base,
            memo_key(&Job::run("Schematic", "crc", 1_000), &table, src)
        );
        // The source module.
        assert_ne!(base, memo_key(&job, &table, Digest { hi: 1, lo: 3 }));
        // A platform constant.
        let mut perturbed = CostTable::msp430fr5969();
        perturbed.nvm_write_pj += 1;
        assert_ne!(base, memo_key(&job, &perturbed, src));
        // Memo and cell keys are domain-separated even over identical
        // trailing digests.
        assert_ne!(base, cell_key(&job, &table, &[src]));
        // The cell key sees the compiled programs.
        let ims = [Digest { hi: 9, lo: 9 }];
        assert_ne!(cell_key(&job, &table, &ims), cell_key(&job, &table, &[]));
    }

    #[test]
    fn warm_run_computes_nothing_and_matches_cold() {
        let path = tmp("warm.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        let (cold, s1) = compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        assert_eq!((s1.hits, s1.computed), (0, jobs.len()));
        // Reopen from disk: everything must hit, and byte-identically.
        let mut cache = CellCache::open(&path);
        assert_eq!(cache.len(), (jobs.len(), jobs.len()));
        let (warm, s2) = compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        assert_eq!((s2.hits, s2.computed), (jobs.len(), 0));
        assert_eq!(cold.to_jsonl(), warm.to_jsonl());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn poisoned_memo_invalidates_exactly_one_cell() {
        let path = tmp("poison.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        let (cold, _) = compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        // Simulate an edited benchmark: the victim's memo now names a
        // compile output that has no cached cell.
        let table = CostTable::msp430fr5969();
        let victim = &jobs[3];
        let src = SourceDigests::new().digest(&victim.benchmark);
        cache.memo_put(
            memo_key(victim, &table, src),
            vec![Digest {
                hi: 0xDEAD,
                lo: 0xBEEF,
            }],
        );
        let (warm, stats) = compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        assert_eq!((stats.hits, stats.computed), (jobs.len() - 1, 1));
        // The recompute repairs the memo and reproduces the value.
        assert_eq!(cold.to_jsonl(), warm.to_jsonl());
        let (_, healed) = compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        assert_eq!((healed.hits, healed.computed), (jobs.len(), 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn verify_mode_accepts_a_consistent_cache() {
        let path = tmp("verify.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        let (_, stats) = compute_cached(&jobs, Some(&mut cache), true, &|_, _| {}).unwrap();
        assert_eq!(stats.hits, jobs.len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_and_foreign_lines_are_skipped_then_compacted() {
        let path = tmp("torn.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false, &|_, _| {}).unwrap();
        let live = cache.len();
        // A crashed writer's torn tail, garbage, and a foreign schema.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json at all\n{\"schema\":99,\"t\":\"memo\"}\n{\"schema\":1,\"t\":\"ce")
            .unwrap();
        drop(f);
        let cache = CellCache::open(&path);
        assert_eq!(cache.len(), live);
        // 3 dead lines > (live/2 is 4 for 8 live... ) — force-check the
        // compaction path explicitly instead of relying on the ratio.
        let mut cache = cache;
        cache.compact().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), live.0 + live.1);
        assert_eq!(CellCache::open(&path).len(), live);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn worker_line_roundtrips() {
        let job = Job::run("Schematic", "crc", 10_000);
        let value = CellValue::Run {
            outcome: None,
            reason: Some("no sound placement: x".into()),
        };
        let ims = vec![Digest { hi: 5, lo: 6 }];
        let line = worker_line(&job, &value, &ims);
        let (j2, v2, i2) = parse_worker_line(&line).unwrap();
        assert_eq!((j2, v2, i2), (job.clone(), value.clone(), ims.clone()));
        // A plain line carries no telemetry.
        let (_, _, _, t) = parse_worker_line_telemetry(&line).unwrap();
        assert!(t.is_none());
        assert!(parse_worker_line("garbage").is_err());
        assert!(parse_worker_line("{\"cell\":{}}").is_err());

        // The telemetry spelling round-trips registry and wall time.
        let mut registry = schematic_obs::Registry::default();
        registry.record_span("cell/compile", 1234);
        registry.record_span(&format!("job/{job}"), 5678);
        *registry.counters.entry("cells".into()).or_default() += 1;
        let telemetry = WorkerTelemetry {
            wall_nanos: 5678,
            registry,
        };
        let line = worker_line_telemetry(&job, &value, &ims, &telemetry);
        let (j2, v2, i2, t2) = parse_worker_line_telemetry(&line).unwrap();
        assert_eq!((j2, v2, i2), (job, value, ims));
        assert_eq!(t2, Some(telemetry));
        // The telemetry-blind parser still folds the cell.
        assert!(parse_worker_line(&line).is_ok());
        // A corrupt telemetry payload is an error, not a silent drop.
        assert!(parse_worker_line_telemetry(
            &line.replace("\\\"t\\\":\\\"reg\\\"", "\\\"t\\\":\\\"wat\\\"")
        )
        .is_err());
    }
}
