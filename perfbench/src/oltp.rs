//! `oltp_read` and `oltp_mixed`: one client on one connection to a
//! durable `mammoth-server` (default configuration: serial engine, one
//! fsync per committed statement), running the same reads on `acct`.
//! `oltp_read` sends its INSERTs and DELETEs to a side table, `hist`, so
//! `acct` keeps clean base columns that bind without a copy;
//! `oltp_mixed` sends them to `acct` itself, so every read after the
//! first write binds base + pending deltas.

use crate::common::{setup_cost, timed, Class, Outcome, Rng};
use crate::layers::{self, us, Layers};
use crate::model::{branch_insert, Model, Shape, BRANCH_DDL};
use crate::wire::{literal_sql, Loop, Models, Stmt, POINT};
use mammoth_server::{Client, Response, Server, ServerConfig, ServerMsg, SessionSpec};
use mammoth_sql::{parse_sql, QueryOutput, Session};
use mammoth_storage::{RealFs, Wal, WalRecord};
use mammoth_types::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Statements of one round: 45% prepared point lookups, 27% ad-hoc
/// reads of the four other shapes, 18% INSERTs, 9% DELETEs. Every read
/// class appears at least twice, so its median has samples enough.
pub const MIX: [(Class, usize); 7] = [
    (Class::Point, 20),
    (Class::Agg, 6),
    (Class::Group, 2),
    (Class::Join, 2),
    (Class::Topn, 2),
    (Class::Insert, 8),
    (Class::Delete, 4),
];

const ACCT: Shape = Shape {
    table: "acct",
    val: "bal",
    note: true,
};

pub struct Sizes {
    /// Rows of `acct`.
    pub rows: i64,
    /// Rows `hist` starts with (`oltp_read` only).
    pub hist_rows: i64,
    /// Rows per load INSERT.
    pub batch: usize,
}

pub struct Params<'a> {
    pub mixed: bool,
    pub sizes: &'a Sizes,
    pub seed: u64,
    pub seconds: f64,
    pub setups: usize,
    pub trace: bool,
    pub tmp: &'a Path,
}

struct Node {
    server: Server,
    client: Client,
    dir: PathBuf,
}

fn load_sql(m: &mut Model, table: &str, rows: i64, batch: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut tuples = Vec::new();
    for _ in 0..rows {
        let id = m.fresh_id();
        tuples.push(m.row_sql(id, true));
        m.insert(id);
        if tuples.len() == batch {
            out.push(format!("INSERT INTO {table} VALUES {}", tuples.join(", ")));
            tuples.clear();
        }
    }
    if !tuples.is_empty() {
        out.push(format!("INSERT INTO {table} VALUES {}", tuples.join(", ")));
    }
    out
}

/// Start a server in `dir` and build the workload's state through it.
/// Returns the node and the seconds of the `CHECKPOINT`.
fn setup(dir: &Path, script: &[String]) -> Result<(Node, f64), String> {
    let server = Server::start(ServerConfig {
        spec: SessionSpec::durable(dir),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr, "perfbench", "").map_err(|e| e.to_string())?;
    for sql in script {
        client.query(sql).map_err(|e| format!("{e}: {sql:.80}"))?;
    }
    let (res, ckpt) = timed(|| client.query("CHECKPOINT"));
    res.map_err(|e| e.to_string())?;
    client
        .prepare(POINT, &ACCT.point_sql())
        .map_err(|e| e.to_string())?;
    let node = Node {
        server,
        client,
        dir: dir.to_path_buf(),
    };
    Ok((node, ckpt.as_secs_f64()))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut rng = Rng::new(p.seed);
    let mut acct = Model::new(p.seed);
    let mut hist = (!p.mixed).then(|| Model::new(p.seed.wrapping_add(1)));
    let write_table = if p.mixed { "acct" } else { "hist" };

    // input generation, outside every timing
    let mut script = vec![ACCT.ddl("acct"), BRANCH_DDL.to_string(), branch_insert()];
    script.extend(load_sql(&mut acct, "acct", p.sizes.rows, p.sizes.batch));
    if let Some(h) = hist.as_mut() {
        script.push(ACCT.ddl("hist"));
        script.extend(load_sql(h, "hist", p.sizes.hist_rows, p.sizes.batch));
    }

    let mut out = Outcome::default();
    let mut ckpts = Vec::new();
    let mut node = None;
    for i in 0..p.setups.max(1) {
        if let Some(old) = node.take() {
            shutdown(old)?;
        }
        let dir = p.tmp.join(format!("oltp-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (res, cpu, wall) = setup_cost(|| setup(&dir, &script));
        let (n, ckpt) = res?;
        out.setups.push(cpu);
        out.setup_walls.push(wall);
        ckpts.push(ckpt);
        node = Some(n);
    }
    let mut node = node.expect("at least one set-up");
    println!(
        "inputs: acct {} rows, hist {} rows, branch 64 rows, load batch {}, writes to {}",
        p.sizes.rows,
        if p.mixed { 0 } else { p.sizes.hist_rows },
        p.sizes.batch,
        write_table
    );

    let mut models = Models {
        read: acct,
        write: hist,
    };
    let lp = Loop {
        shape: &ACCT,
        write_table,
        mix: &MIX,
        prepared: true,
        seconds: p.seconds,
    };
    let mut layers = Layers::default();
    if p.trace {
        let mut wal = Wal::open(Arc::new(RealFs), p.tmp.join("scratch.wal"))
            .map_err(|e| format!("scratch WAL: {e}"))?;
        let server = &node.server;
        let mut errors = Vec::new();
        lp.run(
            &mut node.client,
            &mut models,
            &mut rng,
            &mut out,
            |stmt, resp, rt| {
                if let Err(e) = split(server, stmt, resp, rt, &mut wal, &mut layers) {
                    errors.push(e);
                }
            },
        );
        if let Some(e) = errors.first() {
            return Err(format!("traced split failed: {e}"));
        }
        let (hits, compiles) = node
            .server
            .shared()
            .with_session_mut(|s| s.plan_cache_stats())
            .map_err(|e| e.to_string())?;
        layers.set(
            "planner.hit_ratio",
            hits as f64 / (hits + compiles).max(1) as f64,
        );
        ckpts.sort_by(f64::total_cmp);
        layers.set("storage.checkpoint_s", ckpts[ckpts.len() / 2]);
        layers::account(&out, &layers, false);
        out.layers = layers.finish();
    } else {
        lp.run(
            &mut node.client,
            &mut models,
            &mut rng,
            &mut out,
            |_, _, _| {},
        );
    }

    if !durable_check(node, &models, write_table)? {
        out.wrong += 1;
    }
    Ok(out)
}

fn shutdown(node: Node) -> Result<(), String> {
    drop(node.client);
    node.server.shutdown().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&node.dir);
    Ok(())
}

/// The traced split of one statement on the server's live session.
fn split(
    server: &Server,
    stmt: &Stmt,
    resp: &Response,
    rt: Duration,
    wal: &mut Wal,
    l: &mut Layers,
) -> Result<(), String> {
    let class = stmt.class();
    let r = match stmt {
        Stmt::Read(r) => r,
        Stmt::Insert { .. } | Stmt::Delete { .. } => {
            let (_, d) = timed(|| parse_sql(stmt.sql()));
            l.add_d(&format!("sql.parse_us.{}", class.name()), d);
            let rec = WalRecord::Insert {
                table: "scratch".into(),
                row: vec![Value::I32(1), Value::I32(2), Value::I64(3)],
            };
            let (res, d) = timed(|| wal.append(&rec).and_then(|_| wal.commit()));
            res.map_err(|e| e.to_string())?;
            l.add_d("storage.wal_commit_us", d);
            return Ok(());
        }
    };
    // what the server runs for this request
    let text = match r.arg {
        Some(id) => format!("EXECUTE {POINT} ({id})"),
        None => r.sql.clone(),
    };
    let (res, d) = timed(|| server.shared().execute(&text));
    res.map_err(|e| e.to_string())?;
    l.add_class("server.wire_us", class, us(rt.saturating_sub(d)));
    let Response::Table { columns, rows } = resp else {
        return Err("read answered without a table".into());
    };
    let msg = ServerMsg::Table {
        columns: columns.clone(),
        rows: rows.clone(),
    };
    l.add_class(
        "server.codec_us",
        class,
        us(layers::codec(&stmt.request(true), &msg)),
    );
    let sql = literal_sql(r);
    server
        .shared()
        .with_session_mut(|s| layers::node_split(s, &sql, &text, class, l))
        .map_err(|e| e.to_string())?
}

/// Shut the server down, reopen its directory through the public
/// recovery path, and compare the recovered tables with the model of
/// acknowledged writes.
fn durable_check(node: Node, models: &Models, write_table: &str) -> Result<bool, String> {
    let dir = node.dir.clone();
    drop(node.client);
    node.server.shutdown().map_err(|e| e.to_string())?;
    let (s, d) = timed(|| Session::open_durable(&dir));
    let mut s = s.map_err(|e| format!("reopen: {e}"))?;
    println!("reopen after shutdown: {:.3} s", d.as_secs_f64());
    let mut ok = same_table(&mut s, "acct", &models.read)?;
    if let Some(w) = &models.write {
        ok &= same_table(&mut s, write_table, w)?;
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        eprintln!("WRONG ANSWER: recovered tables differ from the acknowledged writes");
    }
    Ok(ok)
}

fn same_table(s: &mut Session, table: &str, m: &Model) -> Result<bool, String> {
    let out = s
        .execute(&format!("SELECT id, grp, bal, note FROM {table}"))
        .map_err(|e| e.to_string())?;
    let QueryOutput::Table { rows, .. } = out else {
        return Err(format!("recovered {table}: no table"));
    };
    let notes_ok = rows.iter().all(|r| {
        r.get(3)
            == Some(&Value::Str(Model::note_of(
                crate::common::int_of(&r[0]).unwrap_or(-1),
            )))
    });
    let mut got: Vec<Vec<Option<i64>>> = crate::common::int_rows(&rows)
        .into_iter()
        .map(|mut r| {
            r.truncate(3);
            r
        })
        .collect();
    got.sort();
    Ok(notes_ok && got == m.all())
}
