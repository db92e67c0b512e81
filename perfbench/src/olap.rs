//! `olap_scan`: an in-process `mammoth_core::Database` on the parallel
//! engine with one thread per core. A fact table larger than the host's
//! last-level cache and a dimension table are bulk-loaded through
//! `Database::register_table`; a fixed pool of analytic statements per
//! seed repeats against them. Columns stay clean (no deltas) and compile
//! time is small next to execution, so time goes to the algebra kernels,
//! mitosis slicing and packing, and the dataflow scheduler. The
//! workload's INSERTs and DELETEs go to a small staging table the
//! analytic statements never read.

use crate::common::{
    int_rows, process_cpu_s, process_cpu_us, round, setup_cost, thread_cpu_s, timed, Class,
    Outcome, Rng,
};
use crate::layers::{self, Layers};
use crate::model::{Model, Shape};
use mammoth_core::{Database, Engine, Output};
use mammoth_storage::Bat;
use mammoth_types::{ColumnDef, LogicalType, TableSchema};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Statements of one round: the four analytic shapes weighted so each
/// gets a similar share of the time, point lookups on the dimension, and
/// writes to the staging table.
pub const MIX: [(Class, usize); 7] = [
    (Class::Point, 4),
    (Class::Agg, 2),
    (Class::Group, 2),
    (Class::Join, 2),
    (Class::Topn, 4),
    (Class::Insert, 4),
    (Class::Delete, 2),
];

/// Distinct statements per read class; the pool repeats.
const POOL: usize = 8;

/// Distinct `dim.region` values.
const REGIONS: usize = 12;

const STAGE: Shape = Shape {
    table: "stage",
    val: "val",
    note: false,
};

pub struct Sizes {
    /// Fact rows (a power of two).
    pub fact: usize,
    /// Dimension rows.
    pub dim: usize,
    /// Rows the staging table starts with.
    pub stage: i64,
}

/// The generated columns, kept by the benchmark to answer every
/// statement in plain Rust.
struct Data {
    a: Vec<i64>,
    b: Vec<i64>,
    k: Vec<i64>,
    g: Vec<i32>,
    region: Vec<i32>,
    w: Vec<i64>,
}

fn generate(s: &Sizes, rng: &mut Rng) -> Data {
    let n = s.fact;
    let salt = rng.next_u64() as usize;
    // `a` is a permutation of 0..n (n is a power of two), so top-N by
    // `a` has no ties
    let a = (0..n)
        .map(|i| (i.wrapping_mul(0x9e37_79b1).wrapping_add(salt) & (n - 1)) as i64)
        .collect();
    let b = (0..n).map(|_| rng.below(1000) as i64).collect();
    let k = (0..n).map(|_| rng.below(s.dim as u64) as i64).collect();
    let g = (0..n).map(|_| rng.below(256) as i32).collect();
    let region = (0..s.dim)
        .map(|_| rng.below(REGIONS as u64) as i32)
        .collect();
    let w = (0..s.dim).map(|_| rng.below(10_000) as i64).collect();
    Data {
        a,
        b,
        k,
        g,
        region,
        w,
    }
}

struct Query {
    class: Class,
    sql: String,
    expect: Vec<Vec<Option<i64>>>,
    unordered: bool,
}

/// The statement pool with answers computed from the generated columns.
fn pool(d: &Data, rng: &mut Rng) -> BTreeMap<Class, Vec<Query>> {
    let n = d.a.len() as u64;
    let width = (n / 8) as i64;
    let mut out: BTreeMap<Class, Vec<Query>> = BTreeMap::new();
    // statement j of a class does the same work on every seed, so a
    // median over the pool does not move with the seed: its range starts
    // at the same place (a BETWEEN's cost depends on where the range
    // lies) over the seeded permutation `a`, and it joins with the same
    // region number (regions are ~5.5K dim rows each, clear of the 4K and
    // 8K hash-table sizes a region of 4K rows would straddle)
    let step = (n - width as u64) / (POOL as u64 - 1);
    for j in 0..POOL {
        let lo = (j as u64 * step) as i64;
        let hi = lo + width - 1;
        let (mut cnt, mut sum) = (0i64, 0i64);
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for i in 0..d.a.len() {
            if (lo..=hi).contains(&d.a[i]) {
                cnt += 1;
                sum += d.b[i];
                let e = groups.entry(d.g[i] as i64).or_default();
                e.0 += 1;
                e.1 += d.b[i];
            }
        }
        out.entry(Class::Agg).or_default().push(Query {
            class: Class::Agg,
            sql: format!("SELECT COUNT(*), SUM(b) FROM fact WHERE a BETWEEN {lo} AND {hi}"),
            expect: vec![vec![Some(cnt), (cnt > 0).then_some(sum)]],
            unordered: false,
        });
        out.entry(Class::Group).or_default().push(Query {
            class: Class::Group,
            sql: format!(
                "SELECT g, COUNT(*), SUM(b) FROM fact WHERE a BETWEEN {lo} AND {hi} GROUP BY g"
            ),
            expect: groups
                .into_iter()
                .map(|(g, (c, s))| vec![Some(g), Some(c), Some(s)])
                .collect(),
            unordered: true,
        });

        let r = (j % REGIONS) as i32;
        let (mut cnt, mut sum) = (0i64, 0i64);
        for i in 0..d.k.len() {
            if d.region[d.k[i] as usize] == r {
                cnt += 1;
                sum += d.b[i];
            }
        }
        out.entry(Class::Join).or_default().push(Query {
            class: Class::Join,
            sql: format!(
                "SELECT COUNT(*), SUM(fact.b) FROM fact JOIN dim ON fact.k = dim.id WHERE dim.region = {r}"
            ),
            expect: vec![vec![Some(cnt), (cnt > 0).then_some(sum)]],
            unordered: false,
        });

        let gx = rng.below(256) as i32;
        let mut top: Vec<(i64, i64)> = (0..d.a.len())
            .filter(|&i| d.g[i] == gx)
            .map(|i| (d.a[i], d.b[i]))
            .collect();
        top.sort_by(|x, y| y.cmp(x));
        top.truncate(10);
        out.entry(Class::Topn).or_default().push(Query {
            class: Class::Topn,
            sql: format!("SELECT a, b FROM fact WHERE g = {gx} ORDER BY a DESC LIMIT 10"),
            expect: top
                .into_iter()
                .map(|(a, b)| vec![Some(a), Some(b)])
                .collect(),
            unordered: false,
        });

        let id = rng.below(d.region.len() as u64) as usize;
        out.entry(Class::Point).or_default().push(Query {
            class: Class::Point,
            sql: format!("SELECT id, region, w FROM dim WHERE id = {id}"),
            expect: vec![vec![
                Some(id as i64),
                Some(d.region[id] as i64),
                Some(d.w[id]),
            ]],
            unordered: false,
        });
    }
    out
}

fn schema(name: &str, cols: &[(&str, LogicalType)]) -> TableSchema {
    TableSchema::new(
        name,
        cols.iter().map(|&(c, t)| ColumnDef::new(c, t)).collect(),
    )
}

/// Copies of the generated columns for one load, made before the
/// set-up is measured: the load takes ownership of its BATs.
fn columns(d: &Data) -> (Vec<Bat>, Vec<Bat>) {
    let fact = vec![
        Bat::from_vec(d.a.clone()),
        Bat::from_vec(d.b.clone()),
        Bat::from_vec(d.k.clone()),
        Bat::from_vec(d.g.clone()),
    ];
    let ids: Vec<i64> = (0..d.region.len() as i64).collect();
    let dim = vec![
        Bat::from_vec(ids),
        Bat::from_vec(d.region.clone()),
        Bat::from_vec(d.w.clone()),
    ];
    (fact, dim)
}

/// Build the database through calls into the program.
fn setup(
    fact: Vec<Bat>,
    dim: Vec<Bat>,
    stage_sql: &[String],
    threads: usize,
) -> Result<Database, String> {
    let mut db = Database::with_engine(Engine::Parallel { threads });
    let fact_schema = schema(
        "fact",
        &[
            ("a", LogicalType::I64),
            ("b", LogicalType::I64),
            ("k", LogicalType::I64),
            ("g", LogicalType::I32),
        ],
    );
    db.register_table(fact_schema, fact)
        .map_err(|e| e.to_string())?;
    let dim_schema = schema(
        "dim",
        &[
            ("id", LogicalType::I64),
            ("region", LogicalType::I32),
            ("w", LogicalType::I64),
        ],
    );
    db.register_table(dim_schema, dim)
        .map_err(|e| e.to_string())?;
    for sql in stage_sql {
        db.execute(sql).map_err(|e| format!("{e}: {sql:.80}"))?;
    }
    Ok(db)
}

pub fn run(
    s: &Sizes,
    seed: u64,
    seconds: f64,
    setups: usize,
    trace: bool,
) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Rng::new(seed);
    let data = generate(s, &mut rng);
    let pool = pool(&data, &mut rng);
    let mut stage = Model::new(seed.wrapping_add(2));
    let mut stage_sql = vec![STAGE.ddl("stage")];
    let rows: Vec<String> = (0..s.stage)
        .map(|_| {
            let id = stage.fresh_id();
            stage.insert(id);
            stage.row_sql(id, false)
        })
        .collect();
    for chunk in rows.chunks(512) {
        stage_sql.push(format!("INSERT INTO stage VALUES {}", chunk.join(", ")));
    }
    println!(
        "inputs: fact {} rows (a BIGINT, b BIGINT, k BIGINT, g INT), dim {} rows, stage {} rows, engine parallel x{threads}",
        s.fact, s.dim, s.stage
    );

    let mut out = Outcome::default();
    let mut db = None;
    for _ in 0..setups.max(1) {
        drop(db.take());
        let (fact, dim) = columns(&data);
        let (res, cpu, wall) = setup_cost(|| setup(fact, dim, &stage_sql, threads));
        let d = res?;
        out.setups.push(cpu);
        out.setup_walls.push(wall);
        db = Some(d);
    }
    let mut db = db.expect("at least one set-up");

    let mut layers = Layers::default();
    let mut next: BTreeMap<Class, usize> = BTreeMap::new();
    let mut own = 0.0;
    let mut cpu0 = process_cpu_s();
    let mut t0 = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    // the first round warms up untimed
    let mut warm = true;
    loop {
        for class in round(&mut rng, &MIX) {
            let c0 = thread_cpu_s();
            let write = match class {
                Class::Insert => {
                    let id = stage.fresh_id();
                    Some((
                        id,
                        format!("INSERT INTO stage VALUES {}", stage.row_sql(id, false)),
                    ))
                }
                Class::Delete => {
                    let id = stage.take_live(&mut rng);
                    Some((id, format!("DELETE FROM stage WHERE id = {id}")))
                }
                _ => None,
            };
            let q = write.is_none().then(|| {
                let i = next.entry(class).or_default();
                *i += 1;
                &pool[&class][(*i - 1) % POOL]
            });
            let sql = match (&write, q) {
                (Some((_, w)), _) => w.clone(),
                (None, Some(q)) => q.sql.clone(),
                (None, None) => unreachable!("a statement is a read or a write"),
            };
            let c1 = thread_cpu_s();
            let (p1, s1) = (process_cpu_us(), Instant::now());
            let res = db.execute(&sql);
            let (d, p2) = (s1.elapsed(), process_cpu_us());
            let c2 = thread_cpu_s();
            let res = match res {
                Ok(r) => r,
                Err(e) => {
                    out.tally(false, false, &format!("{sql}: {e}"));
                    continue;
                }
            };
            if !warm {
                out.record(class, d, p2.saturating_sub(p1));
            }
            let right = match (&res, q, &write) {
                (Output::Table { rows, .. }, Some(q), _) => {
                    let mut got = int_rows(rows);
                    if q.unordered {
                        got.sort();
                    }
                    got == q.expect
                }
                (Output::Affected(1), None, Some((id, _))) => {
                    if class == Class::Insert {
                        stage.insert(*id);
                    } else {
                        stage.delete(*id);
                    }
                    true
                }
                _ => false,
            };
            out.tally(true, right, &sql);
            if trace && !warm {
                match q {
                    Some(q) => split(&mut db, q, threads, &mut layers)?,
                    None => {
                        let (_, d) = timed(|| mammoth_sql::parse_sql(&sql));
                        layers.add_d(&format!("sql.parse_us.{}", class.name()), d);
                    }
                }
            }
            own += c1 - c0 + thread_cpu_s() - c2;
        }
        if warm {
            warm = false;
            own = 0.0;
            cpu0 = process_cpu_s();
            t0 = Instant::now();
            continue;
        }
        if t0.elapsed() >= deadline {
            break;
        }
    }
    out.timed_wall_s = t0.elapsed().as_secs_f64();
    out.timed_cpu_s = process_cpu_s() - cpu0 - own;

    // the staging table holds exactly the acknowledged writes
    match db.execute("SELECT id, grp, val FROM stage") {
        Ok(Output::Table { rows, .. }) => {
            let mut got = int_rows(&rows);
            got.sort();
            if got != stage.all() {
                eprintln!("WRONG ANSWER: stage differs from the acknowledged writes");
                out.wrong += 1;
            }
        }
        other => return Err(format!("reading stage back: {other:?}")),
    }
    if trace {
        layers::account(&out, &layers, true);
        out.layers = layers.finish();
    }
    Ok(out)
}

/// The traced split of one analytic statement on the live catalog.
fn split(db: &mut Database, q: &Query, threads: usize, l: &mut Layers) -> Result<(), String> {
    layers::pipeline(db.catalog(), &q.sql, &q.sql, q.class, Some(threads), l)?;
    db.execute(&format!("TRACE {}", q.sql))
        .map_err(|e| e.to_string())?;
    let run = db.last_profile().ok_or("TRACE left no profile")?;
    layers::profile(run, q.class, l);
    Ok(())
}
