//! The closed-loop single client the wire workloads (`oltp_read`,
//! `oltp_mixed`, `cluster_wire`) share: one connection, the next
//! statement sent only after the previous answer arrived and was checked.

use crate::common::{process_cpu_s, process_cpu_us, round, thread_cpu_s, Class, Outcome, Rng};
use crate::model::{read, Model, Read, Shape};
use mammoth_server::{Client, ClientError, ClientMsg, Response};
use mammoth_types::Value;
use std::time::{Duration, Instant};

/// The models of the read table and, when writes go elsewhere, of the
/// write table.
pub struct Models {
    pub read: Model,
    pub write: Option<Model>,
}

impl Models {
    fn write(&mut self) -> &mut Model {
        self.write.as_mut().unwrap_or(&mut self.read)
    }
}

/// One statement of the loop with what the model expects of it.
pub enum Stmt {
    Read(Read),
    Insert { id: i64, sql: String },
    Delete { id: i64, sql: String },
}

impl Stmt {
    pub fn class(&self) -> Class {
        match self {
            Stmt::Read(r) => r.class,
            Stmt::Insert { .. } => Class::Insert,
            Stmt::Delete { .. } => Class::Delete,
        }
    }

    pub fn sql(&self) -> &str {
        match self {
            Stmt::Read(r) => &r.sql,
            Stmt::Insert { sql, .. } | Stmt::Delete { sql, .. } => sql,
        }
    }

    /// The request message the client sends for this statement.
    pub fn request(&self, prepared: bool) -> ClientMsg {
        match self {
            Stmt::Read(r) if prepared && r.class == Class::Point => ClientMsg::ExecutePrepared {
                name: POINT.into(),
                args: vec![Value::I32(r.arg.unwrap_or(0) as i32)],
            },
            other => ClientMsg::Query {
                sql: other.sql().to_string(),
            },
        }
    }
}

/// Name of the prepared point lookup.
pub const POINT: &str = "pt";

/// The SELECT text with the point lookup's argument in place.
pub fn literal_sql(r: &Read) -> String {
    match r.arg {
        Some(id) => r.sql.replace('?', &id.to_string()),
        None => r.sql.clone(),
    }
}

pub struct Loop<'a> {
    pub shape: &'a Shape,
    /// Table the workload's INSERTs and DELETEs land in (same shape as
    /// the read table).
    pub write_table: &'static str,
    pub mix: &'a [(Class, usize)],
    /// Point lookups as protocol-v4 `ExecutePrepared` of [`POINT`].
    pub prepared: bool,
    pub seconds: f64,
}

impl Loop<'_> {
    fn next(&self, class: Class, models: &mut Models, rng: &mut Rng) -> Stmt {
        match class {
            Class::Insert => {
                let w = models.write();
                let id = w.fresh_id();
                let sql = format!(
                    "INSERT INTO {} VALUES {}",
                    self.write_table,
                    w.row_sql(id, self.shape.note)
                );
                Stmt::Insert { id, sql }
            }
            Class::Delete => {
                let id = models.write().take_live(rng);
                let sql = format!("DELETE FROM {} WHERE id = {id}", self.write_table);
                Stmt::Delete { id, sql }
            }
            c => Stmt::Read(read(self.shape, &models.read, rng, c, !self.prepared)),
        }
    }

    /// Run whole rounds until `seconds` have passed (at least one round).
    /// `hook` sees every statement with its answer and latency, outside
    /// the latency timing; the traced run splits statements there.
    pub fn run(
        &self,
        client: &mut Client,
        models: &mut Models,
        rng: &mut Rng,
        out: &mut Outcome,
        mut hook: impl FnMut(&Stmt, &Response, Duration),
    ) {
        // one untimed round first: lazy set-up finishes and, where writes
        // land on the read table, its first deltas are pending before any
        // read is timed
        for class in round(rng, self.mix) {
            let stmt = self.next(class, models, rng);
            let res = self.send(client, &stmt);
            self.settle(&stmt, res, None, models, out, &mut hook);
        }
        let mut own = 0.0;
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let deadline = Duration::from_secs_f64(self.seconds);
        loop {
            for class in round(rng, self.mix) {
                let c0 = thread_cpu_s();
                let stmt = self.next(class, models, rng);
                let c1 = thread_cpu_s();
                let (p1, s1) = (process_cpu_us(), Instant::now());
                let res = self.send(client, &stmt);
                let (d, p2) = (s1.elapsed(), process_cpu_us());
                let c2 = thread_cpu_s();
                self.settle(
                    &stmt,
                    res,
                    Some((d, p2.saturating_sub(p1))),
                    models,
                    out,
                    &mut hook,
                );
                own += c1 - c0 + thread_cpu_s() - c2;
            }
            if t0.elapsed() >= deadline {
                break;
            }
        }
        out.timed_wall_s = t0.elapsed().as_secs_f64();
        out.timed_cpu_s = process_cpu_s() - cpu0 - own;
    }

    fn send(&self, client: &mut Client, stmt: &Stmt) -> Result<Response, ClientError> {
        match stmt {
            Stmt::Read(r) if self.prepared && r.class == Class::Point => {
                client.execute_prepared(POINT, &[Value::I32(r.arg.unwrap_or(0) as i32)])
            }
            s => client.query(s.sql()),
        }
    }

    /// Check one answer and apply an acknowledged write to the model.
    /// `d` is the latency and process CPU of a timed statement (`None`
    /// while warming up).
    fn settle(
        &self,
        stmt: &Stmt,
        res: Result<Response, ClientError>,
        d: Option<(Duration, u64)>,
        models: &mut Models,
        out: &mut Outcome,
        hook: &mut impl FnMut(&Stmt, &Response, Duration),
    ) {
        let resp = match res {
            Ok(r) => r,
            Err(e) => {
                out.tally(false, false, &format!("{}: {e}", stmt.sql()));
                return;
            }
        };
        if let Some((d, cpu)) = d {
            out.record(stmt.class(), d, cpu);
        }
        let right = match (stmt, &resp) {
            (Stmt::Read(r), Response::Table { rows, .. }) => r.check(rows, self.shape.note),
            (Stmt::Insert { id, .. }, Response::Affected(1)) => {
                models.write().insert(*id);
                true
            }
            (Stmt::Delete { id, .. }, Response::Affected(1)) => {
                models.write().delete(*id);
                true
            }
            _ => false,
        };
        out.tally(true, right, stmt.sql());
        if let Some((d, _)) = d {
            hook(stmt, &resp, d);
        }
    }
}
