//! The traced run's per-layer split.
//!
//! Every number here comes from timing a call into one crate's public
//! functions from the benchmark's own code, or from the per-instruction
//! profile a `TRACE` statement returns. Nothing inside the program is
//! instrumented. The calls repeat work the statement already did (they
//! run after it, outside its end-to-end timing), so each part is that
//! layer's cost on warm data.

use crate::common::{timed, Class, Outcome, Samples};
use mammoth_mal::{
    column_facts, column_types, default_pipeline_with_props, parallel_pipeline_with_props,
    verify_with_catalog, Interpreter, ProfiledRun,
};
use mammoth_parallel::run_dataflow;
use mammoth_planner::{choose_pieces, referenced_columns};
use mammoth_server::frame::MAX_FRAME;
use mammoth_server::{ClientMsg, ServerMsg};
use mammoth_sql::{compile_select, parse_sql, Session, Statement};
use mammoth_storage::Catalog;
use mammoth_types::framing::{frame_into, split_frame, Frame};
use mammoth_types::EventKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Class-suffixed per-layer metrics: one per read class.
const PER_CLASS: [(&str, &str); 14] = [
    ("server.wire_us", "us"),
    ("server.codec_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.compile_us", "us"),
    ("mal.optimize_us", "us"),
    ("mal.verify_us", "us"),
    ("mal.exec_us", "us"),
    ("mal.bind_us", "us"),
    ("mal.bind_bytes", "bytes"),
    ("storage.materialize_us", "us"),
    ("shard.coord_us", "us"),
    ("shard.front_wire_us", "us"),
    ("shard.leg_max_us", "us"),
    ("shard.merge_us", "us"),
];

/// Opcode families whose self time the `TRACE` profile splits out.
const FAMILIES: [&str; 9] = [
    "select",
    "projection",
    "calc",
    "aggr",
    "group",
    "join",
    "sort",
    "slice",
    "pack",
];

/// Per-layer metrics that are not split by class.
const SINGLE: [(&str, &str); 8] = [
    ("sql.parse_us.insert", "us"),
    ("sql.parse_us.delete", "us"),
    ("storage.wal_commit_us", "us"),
    ("storage.pending_rows", "rows"),
    ("storage.checkpoint_s", "s"),
    ("planner.hit_ratio", "ratio"),
    ("parallel.exec_us", "us"),
    ("parallel.utilization", "ratio"),
];

/// Every registered per-layer metric `(name, unit)`, in a fixed order.
/// A workload prints all of them; a layer its statements never pass
/// through (the shard layer outside `cluster_wire`, say) reads 0.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (m, unit) in PER_CLASS {
        for c in Class::READS {
            out.push((format!("{m}.{}", c.name()), unit));
        }
    }
    for f in FAMILIES {
        out.push((format!("algebra.{f}_us"), "us"));
    }
    for (m, unit) in SINGLE {
        out.push((m.to_string(), unit));
    }
    out.push(("shard.gather_rows".to_string(), "rows"));
    out
}

fn family(op: &str) -> Option<&'static str> {
    Some(match op {
        o if o.starts_with("algebra.thetaselect") || o == "algebra.select" => "select",
        "algebra.projection" => "projection",
        o if o.starts_with("batcalc.") => "calc",
        o if o.starts_with("aggr.") => "aggr",
        o if o.starts_with("group.") => "group",
        "algebra.join" => "join",
        o if o.starts_with("algebra.sort") => "sort",
        "algebra.slice" => "slice",
        "mat.pack" | "mat.packsum" => "pack",
        _ => return None,
    })
}

/// Samples per metric name; a metric's value is the median of its samples.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<String, Samples>,
    /// Ratios fixed at the end of the run (plan-cache hit ratio).
    fixed: BTreeMap<String, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &str, us: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push_us(us);
    }

    pub fn add_d(&mut self, name: &str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e6);
    }

    pub fn add_class(&mut self, metric: &str, class: Class, us: f64) {
        self.add(&format!("{metric}.{}", class.name()), us);
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.fixed.insert(name.to_string(), v);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(Samples::median)
    }

    /// Every registered metric: the median of its samples, or 0 for a
    /// layer this workload's statements never reached.
    pub fn finish(&self) -> BTreeMap<String, f64> {
        names()
            .into_iter()
            .map(|(n, _)| {
                let v = self
                    .fixed
                    .get(&n)
                    .copied()
                    .or_else(|| self.median(&n))
                    .unwrap_or(0.0);
                (n, v)
            })
            .collect()
    }
}

/// The node-side pipeline of one SELECT on `cat`: parse, compile,
/// optimize, verify and execute, each timed apart, plus the bind cost of
/// the columns the plan reads. `parse_text` is what the node parses for
/// this statement (an `EXECUTE` for a prepared lookup). With `threads`,
/// the optimizer is the mitosis/mergetable pipeline and the plan also
/// runs on the dataflow scheduler, as the parallel engine does.
pub fn pipeline(
    cat: &Catalog,
    sql: &str,
    parse_text: &str,
    class: Class,
    threads: Option<usize>,
    l: &mut Layers,
) -> Result<(), String> {
    let (_, d) = timed(|| parse_sql(parse_text));
    l.add_class("sql.parse_us", class, d.as_secs_f64() * 1e6);
    let Ok(Statement::Select(sel)) = parse_sql(sql) else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let (res, d) = timed(|| compile_select(cat, &sel));
    let (prog, _) = res.map_err(|e| e.to_string())?;
    l.add_class("sql.compile_us", class, us(d));

    let t0 = Instant::now();
    let serial = default_pipeline_with_props(column_facts(cat))
        .try_optimize(prog.clone())
        .map_err(|e| e.to_string())?;
    let serial_opt = t0.elapsed();
    let (res, d) = timed(|| verify_with_catalog(&serial, cat));
    res.map_err(|e| e.to_string())?;
    l.add_class("mal.verify_us", class, us(d));
    let (res, d) = timed(|| Interpreter::new(cat).run(&serial));
    res.map_err(|e| e.to_string())?;
    l.add_class("mal.exec_us", class, us(d));

    match threads {
        None => l.add_class("mal.optimize_us", class, us(serial_opt)),
        Some(t) => {
            let rows = cat.table(&sel.from).map_or(0, |tb| tb.live_len() as u64);
            let pieces = choose_pieces(rows, t.max(2));
            let t0 = Instant::now();
            let par = parallel_pipeline_with_props(pieces, column_types(cat), column_facts(cat))
                .try_optimize(prog.clone())
                .map_err(|e| e.to_string())?;
            l.add_class("mal.optimize_us", class, us(t0.elapsed()));
            let (res, d) = timed(|| run_dataflow(cat, &par, t));
            res.map_err(|e| e.to_string())?;
            l.add_d("parallel.exec_us", d);
            l.add_class("dataflow_us", class, us(d));
            let (res, d) = timed(|| run_dataflow(cat, &par, 1));
            res.map_err(|e| e.to_string())?;
            l.add_class("dataflow_1t_us", class, us(d));
        }
    }

    let t0 = Instant::now();
    for (t, c) in referenced_columns(&prog) {
        let col = cat
            .table(&t)
            .and_then(|tb| tb.column_by_name(&c))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(col.materialize_shared());
    }
    l.add_class("storage.materialize_us", class, us(t0.elapsed()));
    let pending: usize = cat.table(&sel.from).map_or(0, |tb| {
        tb.column(0).pending_inserts() + tb.column(0).pending_deletes()
    });
    l.add("storage.pending_rows", pending as f64);
    Ok(())
}

/// Split a `TRACE` profile: `sql.bind` self time and bytes, opcode
/// family self times, and — on the dataflow engine — how busy the
/// workers were.
pub fn profile(run: &ProfiledRun, class: Class, l: &mut Layers) {
    let mut bind_ns = 0u64;
    let mut bind_bytes = 0u64;
    let mut busy_ns = 0u64;
    let mut fam: BTreeMap<&str, u64> = BTreeMap::new();
    for e in run.events.iter().filter(|e| e.kind == EventKind::Instr) {
        busy_ns += e.dur_ns;
        if e.op == "sql.bind" {
            bind_ns += e.dur_ns;
            bind_bytes += e.bytes_out;
        } else if let Some(f) = family(&e.op) {
            *fam.entry(f).or_default() += e.dur_ns;
        }
    }
    l.add_class("mal.bind_us", class, bind_ns as f64 / 1e3);
    l.add_class("mal.bind_bytes", class, bind_bytes as f64);
    for (f, ns) in fam {
        l.add(&format!("algebra.{f}_us"), ns as f64 / 1e3);
    }
    if run.engine == "dataflow" && run.elapsed_ns > 0 {
        l.add(
            "parallel.utilization",
            busy_ns as f64 / (run.threads.max(1) as f64 * run.elapsed_ns as f64),
        );
    }
}

/// Encode, frame, unframe and decode a request and its response, as the
/// client and server do for one statement.
pub fn codec(req: &ClientMsg, resp: &ServerMsg) -> Duration {
    let t0 = Instant::now();
    let mut wire = Vec::new();
    frame_into(&req.encode(), &mut wire);
    if let Frame::Complete { payload, .. } = split_frame(&wire, MAX_FRAME) {
        std::hint::black_box(ClientMsg::decode(payload).ok());
    }
    let mut wire = Vec::new();
    frame_into(&resp.encode(), &mut wire);
    if let Frame::Complete { payload, .. } = split_frame(&wire, MAX_FRAME) {
        std::hint::black_box(ServerMsg::decode(payload).ok());
    }
    t0.elapsed()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Pipeline and profile split of one SELECT on one node's session.
pub fn node_split(
    s: &mut Session,
    sql: &str,
    parse_text: &str,
    class: Class,
    l: &mut Layers,
) -> Result<(), String> {
    pipeline(s.catalog(), sql, parse_text, class, None, l)?;
    s.execute(&format!("TRACE {sql}"))
        .map_err(|e| e.to_string())?;
    let run = s.last_profile().ok_or("TRACE left no profile")?;
    profile(run, class, l);
    Ok(())
}

/// Print how much of each class's traced end-to-end median its layer
/// parts account for. A prepared lookup skips compile and optimize
/// (the plan cache serves them); verify runs inside the checked
/// optimizer pipelines, so it is not added again. `parallel` picks the
/// dataflow run as the execution part.
pub fn account(out: &Outcome, l: &Layers, parallel: bool) {
    for c in Class::READS {
        let Some(e2e) = out.lat.get(&c).and_then(|s| s.median()) else {
            continue;
        };
        let part = |m: &str| l.median(&format!("{m}.{}", c.name())).unwrap_or(0.0);
        let exec = if parallel {
            part("dataflow_us")
        } else {
            part("mal.exec_us")
        };
        let front = part("server.wire_us") + part("sql.parse_us");
        let sum = if c == Class::Point && !parallel {
            front + exec
        } else {
            front + part("sql.compile_us") + part("mal.optimize_us") + exec
        };
        println!(
            "accounting {:<6} e2e p50 {e2e:>10.1} us  layer parts {sum:>10.1} us  ({:.0}%)",
            c.name(),
            100.0 * sum / e2e
        );
        if parallel {
            println!(
                "  {:<6} serial interpreter {:>10.1} us; dataflow at 1 thread {:>10.1} us; at {} threads {exec:>10.1} us",
                c.name(),
                part("mal.exec_us"),
                part("dataflow_1t_us"),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            );
        }
    }
}
