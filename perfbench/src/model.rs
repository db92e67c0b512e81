//! The row-store model of the OLTP-shaped tables (`acct`, `hist`, `ev`)
//! and the statement templates run against them.
//!
//! The model is the benchmark's own record of acknowledged writes: a write
//! enters it only after the program acknowledged it, and every read is
//! answered from it in plain Rust, apart from the program, and compared.

use crate::common::{int_rows, Class, Rng};
use mammoth_types::Value;
use std::collections::BTreeMap;

/// Groups in `grp`, and regions the `branch` table maps them to.
pub const GROUPS: i64 = 64;
pub const REGIONS: i64 = 8;
/// Width of the `id BETWEEN lo AND lo + WIDTH - 1` range of aggregates.
pub const RANGE: i64 = 2048;
/// Rows a top-N statement returns.
pub const TOPN: usize = 10;

/// Names of one OLTP-shaped table and the read set around it.
pub struct Shape {
    /// Table the reads run on.
    pub table: &'static str,
    /// Its BIGINT value column.
    pub val: &'static str,
    /// Whether rows carry the `note VARCHAR` column.
    pub note: bool,
}

impl Shape {
    pub fn ddl(&self, table: &str) -> String {
        let note = if self.note { ", note VARCHAR" } else { "" };
        format!(
            "CREATE TABLE {table} (id INT NOT NULL, grp INT, {} BIGINT{note})",
            self.val
        )
    }

    pub fn point_sql(&self) -> String {
        let note = if self.note { ", note" } else { "" };
        format!(
            "SELECT id, grp, {}{note} FROM {} WHERE id = ?",
            self.val, self.table
        )
    }
}

/// `branch(grp, region)`: the small table the join class joins with.
pub const BRANCH_DDL: &str = "CREATE TABLE branch (grp INT NOT NULL, region INT)";

pub fn region_of(grp: i64) -> i64 {
    (grp * 5 + 3) % REGIONS
}

pub fn branch_insert() -> String {
    let rows: Vec<String> = (0..GROUPS)
        .map(|g| format!("({g}, {})", region_of(g)))
        .collect();
    format!("INSERT INTO branch VALUES {}", rows.join(", "))
}

/// A seeded table model: row contents are functions of `(salt, id)`.
pub struct Model {
    salt: i64,
    /// id → (grp, val), live rows only.
    rows: BTreeMap<i64, (i64, i64)>,
    /// Live ids, for uniform picks.
    live: Vec<i64>,
    next_id: i64,
}

impl Model {
    pub fn new(seed: u64) -> Model {
        Model {
            salt: (seed as i64) & 0x7fff_ffff,
            rows: BTreeMap::new(),
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// `val` is a bijection of `id` on `0..2^31`, so `ORDER BY val` has
    /// no ties and a top-N answer is unique.
    pub fn val_of(&self, id: i64) -> i64 {
        ((id ^ self.salt).wrapping_mul(0x9e37_79b1)) & 0x7fff_ffff
    }

    pub fn grp_of(&self, id: i64) -> i64 {
        (self.val_of(id) >> 11) % GROUPS
    }

    pub fn note_of(id: i64) -> String {
        format!("n{:04}", id % 9973)
    }

    /// SQL literal tuple of a new row of id `id`.
    pub fn row_sql(&self, id: i64, note: bool) -> String {
        let (g, v) = (self.grp_of(id), self.val_of(id));
        if note {
            format!("({id}, {g}, {v}, '{}')", Model::note_of(id))
        } else {
            format!("({id}, {g}, {v})")
        }
    }

    /// The next fresh id (ids are handed out in increasing order).
    pub fn fresh_id(&mut self) -> i64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record an acknowledged insert.
    pub fn insert(&mut self, id: i64) {
        let row = (self.grp_of(id), self.val_of(id));
        if self.rows.insert(id, row).is_none() {
            self.live.push(id);
        }
    }

    /// Pick a live id and remove it from the pick list; the caller
    /// records the delete with [`Model::delete`] once acknowledged.
    pub fn take_live(&mut self, rng: &mut Rng) -> i64 {
        let i = rng.below(self.live.len() as u64) as usize;
        self.live.swap_remove(i)
    }

    pub fn delete(&mut self, id: i64) {
        self.rows.remove(&id);
    }

    pub fn pick_live(&self, rng: &mut Rng) -> i64 {
        self.live[rng.below(self.live.len() as u64) as usize]
    }

    pub fn next_id(&self) -> i64 {
        self.next_id
    }

    /// `(id, grp, val)` of every live row, by id.
    pub fn all(&self) -> Vec<Vec<Option<i64>>> {
        self.rows
            .iter()
            .map(|(&id, &(g, v))| vec![Some(id), Some(g), Some(v)])
            .collect()
    }
}

/// One read statement and the answer the model expects.
pub struct Read {
    pub class: Class,
    pub sql: String,
    /// Argument of the prepared point lookup.
    pub arg: Option<i64>,
    pub expect: Vec<Vec<Option<i64>>>,
    /// Whether the program may return the rows in any order.
    pub unordered: bool,
}

impl Read {
    /// Does `rows` match the expected answer?
    pub fn check(&self, rows: &[Vec<Value>], notes: bool) -> bool {
        let mut got = int_rows(rows);
        if notes && self.class == Class::Point {
            // the point lookup also returns the VARCHAR note
            for (r, raw) in got.iter_mut().zip(rows) {
                let id = r[0].unwrap_or(-1);
                if raw.get(3) != Some(&Value::Str(Model::note_of(id))) {
                    return false;
                }
                r.truncate(3);
            }
        }
        if self.unordered {
            got.sort();
        }
        got == self.expect
    }
}

/// Build a read of `class` (a read class) against `shape`, answered from
/// `m`. `ad hoc` statements carry fresh literals; the point lookup is the
/// prepared statement of [`Shape::point_sql`] unless `literal_point`.
pub fn read(shape: &Shape, m: &Model, rng: &mut Rng, class: Class, literal_point: bool) -> Read {
    let (t, val) = (shape.table, shape.val);
    let span = m.next_id().max(RANGE);
    match class {
        Class::Point => {
            let id = m.pick_live(rng);
            let expect = m
                .rows
                .get(&id)
                .map(|&(g, v)| vec![Some(id), Some(g), Some(v)])
                .into_iter()
                .collect();
            let sql = if literal_point {
                shape.point_sql().replace('?', &id.to_string())
            } else {
                shape.point_sql()
            };
            Read {
                class,
                sql,
                arg: Some(id),
                expect,
                unordered: false,
            }
        }
        Class::Agg => {
            let lo = rng.below((span - RANGE + 1) as u64) as i64;
            let hi = lo + RANGE - 1;
            let (mut n, mut s) = (0i64, 0i64);
            for (_, &(_, v)) in m.rows.range(lo..=hi) {
                n += 1;
                s += v;
            }
            Read {
                class,
                sql: format!("SELECT COUNT(*), SUM({val}) FROM {t} WHERE id BETWEEN {lo} AND {hi}"),
                arg: None,
                expect: vec![vec![Some(n), (n > 0).then_some(s)]],
                unordered: false,
            }
        }
        Class::Group => {
            let lo = rng.below((span - RANGE + 1) as u64) as i64;
            let hi = lo + RANGE - 1;
            let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for (_, &(g, v)) in m.rows.range(lo..=hi) {
                let e = groups.entry(g).or_default();
                e.0 += 1;
                e.1 += v;
            }
            Read {
                class,
                sql: format!(
                    "SELECT grp, COUNT(*), SUM({val}) FROM {t} WHERE id BETWEEN {lo} AND {hi} GROUP BY grp"
                ),
                arg: None,
                expect: groups
                    .into_iter()
                    .map(|(g, (n, s))| vec![Some(g), Some(n), Some(s)])
                    .collect(),
                unordered: true,
            }
        }
        Class::Topn => {
            let g = rng.below(GROUPS as u64) as i64;
            let mut hits: Vec<(i64, i64)> = m
                .rows
                .iter()
                .filter(|(_, &(gg, _))| gg == g)
                .map(|(&id, &(_, v))| (v, id))
                .collect();
            hits.sort_by(|a, b| b.cmp(a));
            Read {
                class,
                sql: format!(
                    "SELECT id, {val} FROM {t} WHERE grp = {g} ORDER BY {val} DESC LIMIT {TOPN}"
                ),
                arg: None,
                expect: hits
                    .into_iter()
                    .take(TOPN)
                    .map(|(v, id)| vec![Some(id), Some(v)])
                    .collect(),
                unordered: false,
            }
        }
        Class::Join => {
            let r = rng.below(REGIONS as u64) as i64;
            let (mut n, mut s) = (0i64, 0i64);
            for &(g, v) in m.rows.values() {
                if region_of(g) == r {
                    n += 1;
                    s += v;
                }
            }
            Read {
                class,
                sql: format!(
                    "SELECT COUNT(*), SUM({t}.{val}) FROM {t} JOIN branch ON {t}.grp = branch.grp WHERE branch.region = {r}"
                ),
                arg: None,
                expect: vec![vec![Some(n), (n > 0).then_some(s)]],
                unordered: false,
            }
        }
        Class::Insert | Class::Delete => unreachable!("not a read class"),
    }
}
