//! perfbench — the end-to-end and per-layer benchmark of the mammoth
//! engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --short
//! ```
//!
//! One run sets the workload up three times (reporting the median
//! set-up time), then drives it with one closed-loop client for
//! `--seconds`, checking every answer against the benchmark's own model.
//! The last line of standard output is the result as one JSON object:
//! with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer split of a separate, traced run. `--short` runs every
//! workload at small sizes, untraced and traced, with every check on.
//! See README.md for the workloads, the metrics and the layer map.

mod cluster;
mod common;
mod layers;
mod model;
mod olap;
mod oltp;
mod wire;

use common::{host_steal_s, Class, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["oltp_read", "oltp_mixed", "olap_scan", "cluster_wire"];

/// Environment variables that change what the program does; a stray one
/// must not change what is measured.
const PROGRAM_ENV: [&str; 4] = [
    "MAMMOTH_TRACE",
    "MAMMOTH_CHECK_PROPS",
    "MAMMOTH_THREADS",
    "MAMMOTH_NET_FAULT_SEED",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--short") {
        return Ok(None);
    }
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Run one workload. `short` picks the small sizes of the short mode.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    tmp: &Path,
) -> Result<Outcome, String> {
    let setups = if short { 1 } else { SETUPS };
    match workload {
        "oltp_read" | "oltp_mixed" => {
            let sizes = if short {
                oltp::Sizes {
                    rows: 1 << 11,
                    hist_rows: 1 << 8,
                    batch: 512,
                }
            } else {
                oltp::Sizes {
                    rows: 1 << 15,
                    hist_rows: 1 << 12,
                    batch: 512,
                }
            };
            oltp::run(&oltp::Params {
                mixed: workload == "oltp_mixed",
                sizes: &sizes,
                seed,
                seconds,
                setups,
                trace,
                tmp,
            })
        }
        "olap_scan" => {
            let sizes = if short {
                olap::Sizes {
                    fact: 1 << 14,
                    dim: 1 << 10,
                    stage: 1 << 8,
                }
            } else {
                olap::Sizes {
                    fact: 1 << 22,
                    dim: 1 << 16,
                    stage: 1 << 12,
                }
            };
            olap::run(&sizes, seed, seconds, setups, trace)
        }
        "cluster_wire" => {
            let rows = if short { 1 << 11 } else { 1 << 16 };
            cluster::run(rows, seed, seconds, setups, trace)
        }
        w => Err(format!("unknown workload {w}")),
    }
}

/// Print the unregistered figures (throughput, tails, counts) and build
/// the result line.
fn report(workload: &str, out: &Outcome, trace: bool, steal_s: f64) -> String {
    let stmts = out.attempted.max(1) as f64;
    println!(
        "{workload}: attempted {} failed {} wrong {} in {:.2} s; stmts_per_s {:.1}; cpu steal during run {steal_s:.2} s",
        out.attempted,
        out.failed,
        out.wrong,
        out.timed_wall_s,
        out.attempted as f64 / out.timed_wall_s.max(1e-9),
    );
    for (c, s) in &out.lat {
        let p90 = s.quantile(0.90).unwrap_or(0.0);
        let p99 = s.quantile(0.99).unwrap_or(0.0);
        let beyond = s.0.iter().filter(|&&x| x > p99).count();
        println!(
            "  {:<6} n {:>6}  p50 {:>10.1} us  p90 {:>10.1} us  p99 {:>10.1} us  ({beyond} beyond p99)",
            c.name(),
            s.len(),
            s.median().unwrap_or(0.0),
            p90,
            p99,
        );
    }
    for (c, s) in &out.cpu {
        println!(
            "  {:<6} process CPU per statement: p10 {:>10.1} us  p50 {:>10.1} us  p90 {:>10.1} us",
            c.name(),
            s.quantile(0.10).unwrap_or(0.0),
            s.median().unwrap_or(0.0),
            s.quantile(0.90).unwrap_or(0.0),
        );
    }
    let mut setups = out.setups.clone();
    setups.sort_by(f64::total_cmp);
    println!(
        "  set-ups: process CPU {:?} s; wall {:?} s",
        out.setups, out.setup_walls
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if trace {
        let names: BTreeMap<String, &str> = layers::names().into_iter().collect();
        for (name, v) in &out.layers {
            metrics.push((name.clone(), *v, names[name]));
        }
    } else {
        metrics.push(("setup_s".into(), setups[setups.len() / 2], "s"));
        metrics.push((
            "cpu_us_per_stmt".into(),
            out.timed_cpu_s * 1e6 / stmts,
            "us",
        ));
        for c in Class::ALL {
            let p50 = out.cpu.get(&c).and_then(|s| s.median()).unwrap_or(0.0);
            metrics.push((format!("{}_cpu_p50_us", c.name()), p50, "us"));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn host_facts(args: &str) {
    let cmd = |prog: &str, a: &[&str]| {
        std::process::Command::new(prog)
            .args(a)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc {nproc}; {}; commit {}; {args}",
        cmd("rustc", &["--version"]),
        cmd("git", &["rev-parse", "--short", "HEAD"]),
    );
}

fn main() -> ExitCode {
    for v in PROGRAM_ENV {
        std::env::remove_var(v);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp: PathBuf = std::env::current_dir()
        .unwrap_or_default()
        .join(".bench_tmp")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let code = match args {
        Some(a) => {
            host_facts(&format!(
                "workload {} seed {} seconds {} trace {}",
                a.workload, a.seed, a.seconds, a.trace as u8
            ));
            let steal0 = host_steal_s();
            match run(&a.workload, a.seed, a.seconds, a.trace, false, &tmp) {
                Ok(out) => {
                    println!(
                        "{}",
                        report(&a.workload, &out, a.trace, host_steal_s() - steal0)
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", a.workload);
                    ExitCode::FAILURE
                }
            }
        }
        None => short(&tmp),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    // the shared parent goes too once no other run is using it
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    code
}

/// Every workload at small sizes, untraced and traced; fails on any
/// error, failed statement or wrong answer.
fn short(tmp: &Path) -> ExitCode {
    host_facts("short mode");
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let steal0 = host_steal_s();
            match run(w, 7, 0.0, trace, true, tmp) {
                Ok(out) => {
                    ok &= out.wrong == 0 && out.failed == 0 && out.attempted > 0;
                    println!("{}", report(w, &out, trace, host_steal_s() - steal0));
                }
                Err(e) => {
                    eprintln!("perfbench: {w}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
