//! The short mode runs every workload at small sizes, untraced and
//! traced, with every answer check on; a broken workload or check fails
//! here before a long run would show it. Each result line must carry
//! exactly the metrics BENCHMARK.json registers.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Names registered under `key` in BENCHMARK.json (the arrays are in the
/// order workloads, end_to_end, per_layer).
fn registered(bench: &str, key: &str) -> BTreeSet<String> {
    let start = bench.find(&format!("\"{key}\"")).expect("key present");
    let rest = &bench[start..];
    let end = if key == "end_to_end" {
        rest.find("\"per_layer\"")
            .expect("per_layer follows end_to_end")
    } else {
        rest.len()
    };
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Metric names of one result line.
fn printed(line: &str) -> BTreeSet<String> {
    let parts: Vec<&str> = line.split(": {\"value\"").collect();
    // every part but the last ends with the next metric's quoted name
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit_once('"').map(|(head, _)| head))
        .filter_map(|head| head.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

#[test]
fn short_mode_passes_every_check_and_prints_every_registered_metric() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--short")
        .current_dir(dir)
        .output()
        .expect("run perfbench --short");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bench = std::fs::read_to_string(Path::new(dir).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e = registered(&bench, "end_to_end");
    let per_layer = registered(&bench, "per_layer");
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .collect();
    assert_eq!(results.len(), 8, "{stdout}");
    for (i, line) in results.iter().enumerate() {
        let want = if i % 2 == 0 { &e2e } else { &per_layer };
        assert_eq!(&printed(line), want, "result line {i}");
    }
}
