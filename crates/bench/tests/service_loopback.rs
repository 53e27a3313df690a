//! The grid service over a real loopback socket: an in-process daemon
//! (workers = 0) behind a `127.0.0.1:0` listener, driven through
//! `service::request` the way `gridrun --connect` drives `gridd`. The
//! fetched cells must be byte-equal to an in-process computation of the
//! same `--quick` jobs, and the `fetch` response must be byte-equal to
//! the older text round trip (store → JSONL → parse → encode).

use schematic_bench::cache::{self, CellCache};
use schematic_bench::grid::{GridMode, GridSpec};
use schematic_bench::json::Json;
use schematic_bench::service::{self, Daemon, StatsSnapshot};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn op(name: &str) -> Json {
    Json::Obj(vec![("op".into(), Json::Str(name.into()))])
}

/// Reads one frame's payload as raw text.
fn read_raw_frame(stream: &mut TcpStream) -> String {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    String::from_utf8(body).unwrap()
}

#[test]
fn loopback_daemon_serves_the_in_process_store() {
    let spec = GridSpec::full_grid(GridMode::Quick);
    let path = std::env::temp_dir().join(format!("service-loopback-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // In process: compute the quick jobs, filling the cache the daemon
    // then serves from.
    let mut cache = CellCache::open(&path);
    let (store, _) =
        cache::compute_cached(spec.jobs(), Some(&mut cache), false, &|_, _| {}).unwrap();
    drop(cache);
    let jsonl = store.to_jsonl();
    // The fetch response as the text round trip spelled it.
    let parsed = jsonl.lines().map(|l| Json::parse(l).unwrap()).collect();
    let old_fetch = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("cells".into(), Json::Arr(parsed)),
    ])
    .encode();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut daemon = Daemon::new(GridMode::Quick, Some(CellCache::open(&path)), 0);
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let (mut conn, _) = listener.accept().unwrap();
            service::prepare_connection(&conn, Duration::from_secs(60)).unwrap();
            service::serve_connection(&mut daemon, &mut conn)
        });

        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        let jobs = spec.jobs().iter().map(|j| Json::Str(j.to_string()));
        let submit = Json::Obj(vec![
            ("op".into(), Json::Str("submit".into())),
            ("jobs".into(), Json::Arr(jobs.collect())),
        ]);
        let resp = service::request(&mut client, &submit).unwrap();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64);
        assert_eq!(
            field(&resp, "hits"),
            Some(spec.len() as u64),
            "{}",
            resp.encode()
        );
        assert_eq!(field(&resp, "computed"), Some(0));

        let status = service::request(&mut client, &op("status")).unwrap();
        assert_eq!(field(&status, "cells"), Some(spec.len() as u64));

        service::write_frame(&mut client, &op("fetch")).unwrap();
        let fetch = read_raw_frame(&mut client);
        assert!(
            fetch == old_fetch,
            "fetch bytes differ from the text round trip"
        );
        let Some(Json::Arr(cells)) = Json::parse(&fetch).unwrap().get("cells").cloned() else {
            panic!("fetch returns cells");
        };
        let refetched: String = cells.iter().map(|c| c.encode() + "\n").collect();
        assert!(
            refetched == jsonl,
            "fetched cells differ from the in-process store"
        );

        let stats = service::request(&mut client, &op("stats")).unwrap();
        let snap = StatsSnapshot::parse(&stats).unwrap();
        assert_eq!(snap.cells, spec.len() as u64);
        assert_eq!(snap.hits, spec.len() as u64);

        let resp = service::request(&mut client, &op("shutdown")).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert!(server.join().unwrap(), "serve_connection saw the shutdown");
    });
    let _ = std::fs::remove_file(&path);
}
