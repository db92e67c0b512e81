//! `cluster_wire`: three in-memory shard servers, the coordinator and its
//! front end, all in this process; one client connection to the front
//! end. Scalar aggregates merge from one-row partials (the packsum path);
//! every other read gathers column fragments from all shards and re-runs
//! the plan on the coordinator. INSERTs and key-pinned DELETEs route to
//! the owning shard.

use crate::common::{setup_cost, timed, Class, Outcome, Rng};
use crate::layers::{self, us, Layers};
use crate::model::{branch_insert, Model, Shape, BRANCH_DDL};
use crate::wire::{Loop, Models, Stmt};
use mammoth_server::{Client, ClientMsg, Server, ServerConfig, ServerMsg, SessionSpec};
use mammoth_shard::{Coordinator, CoordinatorConfig, FrontConfig, FrontEnd};
use mammoth_sql::{classify, parse_sql, ScatterPlan, Statement};
use mammoth_storage::{Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

/// Statements of one round.
pub const MIX: [(Class, usize); 7] = [
    (Class::Point, 10),
    (Class::Agg, 6),
    (Class::Group, 2),
    (Class::Join, 1),
    (Class::Topn, 2),
    (Class::Insert, 8),
    (Class::Delete, 4),
];

const EV: Shape = Shape {
    table: "ev",
    val: "amt",
    note: false,
};

struct Cluster {
    shards: Vec<Server>,
    coord: Arc<Coordinator>,
    front: FrontEnd,
    client: Client,
}

impl Cluster {
    fn shutdown(self) -> Result<(), String> {
        drop(self.client);
        self.front.shutdown().map_err(|e| e.to_string())?;
        for s in self.shards {
            s.shutdown().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn setup(script: &[String]) -> Result<Cluster, String> {
    let shards = (0..SHARDS)
        .map(|_| {
            Server::start(ServerConfig {
                spec: SessionSpec::in_memory(),
                ..ServerConfig::default()
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("shard start: {e}"))?;
    let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = Arc::new(Coordinator::new(CoordinatorConfig::new(addrs)));
    let front = FrontEnd::start(FrontConfig::new("127.0.0.1:0"), coord.clone())
        .map_err(|e| format!("front end start: {e}"))?;
    let mut client = Client::connect(&front.local_addr().to_string(), "perfbench", "")
        .map_err(|e| e.to_string())?;
    for sql in script {
        client.query(sql).map_err(|e| format!("{e}: {sql:.80}"))?;
    }
    Ok(Cluster {
        shards,
        coord,
        front,
        client,
    })
}

pub fn run(
    rows: i64,
    seed: u64,
    seconds: f64,
    setups: usize,
    trace: bool,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut ev = Model::new(seed);
    let mut script = vec![EV.ddl("ev"), BRANCH_DDL.to_string(), branch_insert()];
    let tuples: Vec<String> = (0..rows)
        .map(|_| {
            let id = ev.fresh_id();
            ev.insert(id);
            ev.row_sql(id, false)
        })
        .collect();
    for chunk in tuples.chunks(1024) {
        script.push(format!("INSERT INTO ev VALUES {}", chunk.join(", ")));
    }
    println!(
        "inputs: ev {rows} rows over {SHARDS} in-memory shards, branch 64 rows, load batch 1024"
    );

    let mut out = Outcome::default();
    let mut cluster = None;
    for _ in 0..setups.max(1) {
        if let Some(old) = cluster.take() {
            Cluster::shutdown(old)?;
        }
        let (res, cpu, wall) = setup_cost(|| setup(&script));
        let c = res?;
        out.setups.push(cpu);
        out.setup_walls.push(wall);
        cluster = Some(c);
    }
    let mut cl = cluster.expect("at least one set-up");

    let lp = Loop {
        shape: &EV,
        write_table: "ev",
        mix: &MIX,
        prepared: false,
        seconds,
    };
    let mut models = Models {
        read: ev,
        write: None,
    };
    if trace {
        let mut tr = Tracer::new(&cl.shards)?;
        let (coord, shards) = (&cl.coord, &cl.shards);
        let mut errors = Vec::new();
        let mut layers = Layers::default();
        lp.run(
            &mut cl.client,
            &mut models,
            &mut rng,
            &mut out,
            |stmt, _, rt| {
                if let Err(e) = tr.split(coord, shards, stmt, rt, &mut layers) {
                    errors.push(e);
                }
            },
        );
        if let Some(e) = errors.first() {
            return Err(format!("traced split failed: {e}"));
        }
        for c in Class::READS {
            let (Some(e2e), Some(w), Some(co)) = (
                out.lat.get(&c).and_then(|s| s.median()),
                layers.median(&format!("shard.front_wire_us.{}", c.name())),
                layers.median(&format!("shard.coord_us.{}", c.name())),
            ) else {
                continue;
            };
            println!(
                "accounting {:<6} e2e p50 {e2e:>10.1} us  front wire + coordinator {:>10.1} us  ({:.0}%)",
                c.name(),
                w + co,
                100.0 * (w + co) / e2e
            );
        }
        out.layers = layers.finish();
    } else {
        lp.run(
            &mut cl.client,
            &mut models,
            &mut rng,
            &mut out,
            |_, _, _| {},
        );
    }

    // every acknowledged write, read back through the coordinator
    match cl.coord.execute("SELECT id, grp, amt FROM ev") {
        Ok(mammoth_sql::QueryOutput::Table { rows, .. }) => {
            let mut got = crate::common::int_rows(&rows);
            got.sort();
            if got != models.read.all() {
                eprintln!("WRONG ANSWER: ev differs from the acknowledged writes");
                out.wrong += 1;
            }
        }
        other => return Err(format!("reading ev back: {other:?}")),
    }
    cl.shutdown()?;
    Ok(out)
}

/// Direct connections to every shard, and the coordinator's schemas-only
/// view, for splitting cluster statements into their legs.
struct Tracer {
    legs: Vec<Client>,
    planning: Catalog,
    next_id: u64,
}

impl Tracer {
    fn new(shards: &[Server]) -> Result<Tracer, String> {
        let legs = shards
            .iter()
            .map(|s| Client::connect(&s.local_addr().to_string(), "perfbench-leg", ""))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut planning = Catalog::new();
        let int = |n: &str| ColumnDef::new(n, LogicalType::I32);
        for schema in [
            TableSchema::new(
                "ev",
                vec![
                    int("id").not_null(),
                    int("grp"),
                    ColumnDef::new("amt", LogicalType::I64),
                ],
            ),
            TableSchema::new("branch", vec![int("grp").not_null(), int("region")]),
        ] {
            let t = Table::new(schema).map_err(|e| e.to_string())?;
            planning.create_table(t).map_err(|e| e.to_string())?;
        }
        Ok(Tracer {
            legs,
            planning,
            next_id: 1 << 40,
        })
    }

    fn split(
        &mut self,
        coord: &Coordinator,
        shards: &[Server],
        stmt: &Stmt,
        rt: Duration,
        l: &mut Layers,
    ) -> Result<(), String> {
        let Stmt::Read(r) = stmt else {
            let (_, d) = timed(|| parse_sql(stmt.sql()));
            l.add_d(&format!("sql.parse_us.{}", stmt.class().name()), d);
            return Ok(());
        };
        let class = r.class;
        let (res, coord_d) = timed(|| coord.execute(&r.sql));
        res.map_err(|e| e.to_string())?;
        l.add_class("shard.coord_us", class, us(coord_d));
        l.add_class("shard.front_wire_us", class, us(rt.saturating_sub(coord_d)));

        let Ok(Statement::Select(sel)) = parse_sql(&r.sql) else {
            return Err(format!("not a SELECT: {}", r.sql));
        };
        let (frags, gather) = match classify(&self.planning, &sel) {
            ScatterPlan::Aggregates { fragment_sql, .. } => (vec![fragment_sql], false),
            ScatterPlan::Gather { tables } => {
                (tables.into_iter().map(|t| t.fragment_sql).collect(), true)
            }
        };
        let mut leg_max = Duration::ZERO;
        let mut shipped = 0usize;
        let mut first = None;
        for c in self.legs.iter_mut() {
            let t0 = Instant::now();
            for f in &frags {
                self.next_id += 1;
                let (columns, rows) = c.fragment(self.next_id, f).map_err(|e| e.to_string())?;
                shipped += rows.len();
                first.get_or_insert((t0.elapsed(), self.next_id, columns, rows));
            }
            leg_max = leg_max.max(t0.elapsed());
        }
        l.add_class("shard.leg_max_us", class, us(leg_max));
        l.add_class("shard.merge_us", class, us(coord_d.saturating_sub(leg_max)));
        if gather {
            l.add("shard.gather_rows", shipped as f64);
        }

        // shard 0's side of its first fragment
        let (leg0, id, columns, rows) = first.ok_or("no fragment ran")?;
        let (res, d) = timed(|| shards[0].shared().execute(&frags[0]));
        res.map_err(|e| e.to_string())?;
        l.add_class("server.wire_us", class, us(leg0.saturating_sub(d)));
        let req = ClientMsg::Fragment {
            id,
            sql: frags[0].clone(),
        };
        let resp = ServerMsg::FragmentResult { id, columns, rows };
        l.add_class("server.codec_us", class, us(layers::codec(&req, &resp)));
        shards[0]
            .shared()
            .with_session_mut(|s| layers::node_split(s, &frags[0], &frags[0], class, l))
            .map_err(|e| e.to_string())?
    }
}
