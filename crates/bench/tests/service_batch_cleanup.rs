//! A failed `gridd` worker batch must clean up after itself.
//!
//! An in-process daemon with two workers dispatches its misses to
//! `gridrun` processes found beside the running executable. A test
//! binary has no `gridrun` beside it, so the spawn fails: `submit` must
//! answer with an error and leave no `gridd-<pid>-batch*` scratch
//! directory behind under the temp dir.

use schematic_bench::grid::GridMode;
use schematic_bench::json::Json;
use schematic_bench::service::Daemon;

#[test]
fn failed_worker_spawn_removes_the_batch_directory() {
    let mut daemon = Daemon::new(GridMode::Quick, None, 2);
    let submit = Json::Obj(vec![
        ("op".into(), Json::Str("submit".into())),
        (
            "jobs".into(),
            Json::Arr(vec![
                Json::Str("bare/-/crc/0".into()),
                Json::Str("bare/-/fft/0".into()),
            ]),
        ),
    ]);
    let (resp, shutdown) = daemon.handle(&submit);
    assert!(!shutdown);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        resp.encode()
    );
    let error = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("spawn"), "unexpected error: {error}");

    let prefix = format!("gridd-{}-batch", std::process::id());
    let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(leaked.is_empty(), "leaked batch directories: {leaked:?}");
}
