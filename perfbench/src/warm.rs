//! `warm-service`: the developer's re-render loop through the grid
//! daemon.
//!
//! Set-up fills a cache with the `cold-grid` job set. One operation is
//! one client round against a fresh in-process `service::Daemon`
//! (workers = 0) served on one thread over one loopback connection:
//! open the cache, start the daemon, send `submit` (all hits), `fetch`
//! and `stats`, rebuild the client-side store and `render_all` it.

use crate::cold::{self, JobSet};
use crate::harness::{self, time_ms, Args, WorkDir};
use crate::ledger::{self, count, span_if};
use crate::stats::median;
use crate::{layer_metrics, Outcome};
use schematic_bench::cache::{self, CellCache};
use schematic_bench::experiments::render_all;
use schematic_bench::grid::{CellStore, GridMode};
use schematic_bench::json::Json;
use schematic_bench::service::{read_frame, request, write_frame, Daemon, StatsSnapshot};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Everything a round's checks compare against.
struct Reference {
    set: JobSet,
    submit: Json,
    jsonl: String,
    render: String,
    sim_energy_uj: f64,
}

/// Fills a fresh cache at `path` with the cold-grid job set.
fn fill(seed: u64, path: &Path) -> Result<Reference, String> {
    let set = cold::job_set(seed)?;
    let _ = std::fs::remove_file(path);
    let mut cache = CellCache::open(path);
    let (store, _) = cache::compute_cached(&set.jobs, Some(&mut cache), false, &|_, _| {})
        .map_err(|e| e.to_string())?;
    cold::check_store(&store, &set)?;
    let keys = set.jobs.iter().map(|j| Json::Str(j.to_string())).collect();
    let submit = Json::Obj(vec![
        ("op".into(), Json::Str("submit".into())),
        ("jobs".into(), Json::Arr(keys)),
    ]);
    Ok(Reference {
        sim_energy_uj: cold::sim_energy_uj(&store)?,
        jsonl: store.to_jsonl(),
        render: render_all(&store, GridMode::Full),
        set,
        submit,
    })
}

/// A stream that counts the bytes it carries.
struct Counted<'a> {
    inner: &'a mut TcpStream,
    bytes: u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Serves one connection until the client closes it.
fn serve(daemon: &mut Daemon, listener: &TcpListener) -> Result<(), String> {
    let (mut stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .map_err(|e| format!("timeouts: {e}"))?;
    while let Some(req) = read_frame(&mut stream).map_err(|e| format!("server read: {e}"))? {
        let (resp, _) = daemon.handle(&req);
        write_frame(&mut stream, &resp).map_err(|e| format!("server write: {e}"))?;
    }
    Ok(())
}

/// What the client saw in one round.
struct Round {
    submit: Json,
    stats: Json,
    store: CellStore,
    render: String,
}

/// The client side of a round. `trace` wraps each step in its layer's
/// span.
fn client(addr: std::net::SocketAddr, reference: &Reference, trace: bool) -> Result<Round, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut conn = Counted {
        inner: &mut stream,
        bytes: 0,
    };
    let mut ask = |req: &Json| request(&mut conn, req).map_err(|e| format!("request: {e}"));
    let op = |name: &str| Json::Obj(vec![("op".into(), Json::Str(name.into()))]);
    let submit = span_if(trace, "bench.service.submit", || ask(&reference.submit))?;
    let fetch = span_if(trace, "bench.service.fetch", || ask(&op("fetch")))?;
    let stats = span_if(trace, "bench.service.stats", || ask(&op("stats")))?;
    let frame_bytes = conn.bytes;
    drop(stream);
    let Some(Json::Arr(cells)) = fetch.get("cells") else {
        return Err(format!("fetch failed: {}", fetch.encode()));
    };
    let encode = || {
        let mut artifact = String::new();
        for cell in cells {
            artifact.push_str(&cell.encode());
            artifact.push('\n');
        }
        artifact
    };
    let artifact = span_if(trace, "bench.json.encode", encode);
    let parse = || CellStore::from_jsonl(&artifact).map_err(|e| e.to_string());
    let store = span_if(trace, "bench.json.parse", parse)?;
    let draw = || render_all(&store, GridMode::Full);
    let render = span_if(trace, "bench.experiments.render", draw);
    if trace {
        count("bench.service.frame_bytes", frame_bytes as f64);
        count("bench.json.bytes", artifact.len() as f64);
    }
    Ok(Round {
        submit,
        stats,
        store,
        render,
    })
}

/// One round: open the cache, start a daemon, serve one client.
fn round(
    listener: &TcpListener,
    path: &Path,
    reference: &Reference,
    trace: bool,
) -> Result<Round, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let cache = span_if(trace, "bench.cache.open", || CellCache::open(path));
    let mut daemon = Daemon::new(GridMode::Full, Some(cache), 0);
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&mut daemon, listener));
        let out = client(addr, reference, trace);
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let out = out?;
        served?;
        Ok(out)
    })
}

/// Checks a round's responses and rebuilt store.
fn check(r: &Round, reference: &Reference) -> Result<(), String> {
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64);
    if r.submit.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("submit failed: {}", r.submit.encode()));
    }
    let jobs = reference.set.jobs.len() as u64;
    if field(&r.submit, "computed") != Some(0) || field(&r.submit, "hits") != Some(jobs) {
        return Err(format!("submit was not all hits: {}", r.submit.encode()));
    }
    StatsSnapshot::parse(&r.stats).map_err(|e| format!("stats: {e}"))?;
    if r.store.to_jsonl() != reference.jsonl {
        return Err("fetched store differs from the cold-grid store".into());
    }
    if r.render != reference.render {
        return Err("client render differs from the cold-grid render".into());
    }
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new("warm-service").map_err(|e| format!("work dir: {e}"))?;
    let path = work.file("cells.jsonl");
    let (setup, setup_s) = harness::repeat_setup(3, || {
        let reference = fill(args.seed, &path)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok::<_, String>((reference, listener))
    });
    let (reference, listener) = setup?;
    let cache_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut lines = vec![
        format!(
            "input: {} jobs per submit, cache {cache_bytes} B, one client, one server thread",
            reference.set.jobs.len()
        ),
        format!(
            "counts per round: cache bytes {cache_bytes} | hits {} | computed 0 | store digest {}",
            reference.set.jobs.len(),
            {
                let mut h = schematic_ir::hash::StableHasher::new();
                h.write_str(&reference.jsonl);
                h.finish().to_hex()
            }
        ),
    ];
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    ledger::take();
    let batch = if args.trace { 2 } else { 1 };
    let log = harness::run_ops(args.seconds, batch, |i| {
        let trace = args.trace && i % 2 == 1;
        let (out, ms) = time_ms(|| {
            span_if(trace, ledger::FRAME, || {
                round(&listener, &path, &reference, trace)
            })
        });
        if trace {
            traced_ms.push(ms);
            if let Ok(r) = &out {
                let jobs = reference.set.jobs.len() as f64;
                count("bench.cache.gets", jobs);
                let hits = r.submit.get("hits").and_then(Json::as_u64).unwrap_or(0);
                count("bench.cache.hits", hits as f64);
                count("bench.cache.bytes", cache_bytes as f64);
            }
        } else {
            untraced_ms.push(ms);
        }
        (ms, out.and_then(|r| check(&r, &reference)))
    });
    if !args.trace {
        let energy = reference.sim_energy_uj;
        return Ok(Outcome::end_to_end(&setup_s, log, energy, lines));
    }
    let ops = ledger::take();
    let overhead = 100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0);
    lines.push(format!(
        "traced: {} untraced / {} traced rounds; traced rounds pass the same checks",
        untraced_ms.len(),
        traced_ms.len()
    ));
    Ok(Outcome {
        log,
        metrics: layer_metrics(&ledger::Ledger::default(), &ops, traced_ms.len(), overhead),
        lines,
    })
}
