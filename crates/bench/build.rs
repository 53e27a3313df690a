//! Computes `SCHEMATIC_CODE_DIGEST`: a hash of every Rust source file of
//! the crates whose code decides a grid cell's value. The cell cache
//! folds it into every key, so any edit to compiler, emulator or harness
//! code — comments included — misses every cached record instead of
//! replaying a stale one.
//!
//! Dependency-free by design: FNV-1a (128-bit) over each file's path
//! relative to `crates/` and its bytes, in sorted path order, so the
//! digest depends on content alone, not on where the tree is checked
//! out.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose sources are hashed, relative to `crates/`.
const CRATES: [&str; 7] = [
    "ir",
    "energy",
    "emu",
    "core",
    "baselines",
    "benchsuite",
    "bench",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(h: &mut u128, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u128::from(b)).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B);
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let crates_dir = manifest.parent().expect("crates/bench has a parent");
    let mut files = Vec::new();
    for name in CRATES {
        let src = crates_dir.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        rust_files(&src, &mut files);
    }
    let mut keyed: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(crates_dir).expect("under crates/");
            (rel.to_string_lossy().replace('\\', "/"), p)
        })
        .collect();
    keyed.sort();
    let mut h: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
    for (rel, path) in &keyed {
        let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Length-prefix both fields so no two file sets hash alike by
        // shifting bytes across a boundary.
        fnv1a(&mut h, &(rel.len() as u64).to_le_bytes());
        fnv1a(&mut h, rel.as_bytes());
        fnv1a(&mut h, &(bytes.len() as u64).to_le_bytes());
        fnv1a(&mut h, &bytes);
    }
    println!("cargo:rustc-env=SCHEMATIC_CODE_DIGEST={h:032x}");
}
