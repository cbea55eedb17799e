//! The database abstraction the engine evaluates over.
//!
//! Source-to-target dependencies read two instances at once (the source
//! `I_S` and the growing target `J_T`); views read one; the parallel chase
//! executor reads an immutable snapshot *overlaid* with a worker's private
//! insertion buffer. [`Db`] abstracts over all of them so the same join
//! code serves every caller.
//!
//! The trait deliberately exposes *query* primitives (scan / estimate /
//! existence) rather than handing out `&Relation`: a composite database —
//! [`PairDb`], or the shard views of `grom-exec` — has no single relation
//! object to return for a name stored on both sides, but it can always
//! answer a pattern query by combining its parts.
//!
//! ## Resolved tokens and streaming scans
//!
//! The hot path resolves a relation name **once** per evaluation into an
//! opaque [`DbRel`] token ([`Db::resolve`]) and then addresses the relation
//! by token: [`Db::scan_rel`] streams matching tuples into a callback with
//! no intermediate `Vec`, [`Db::estimate_rel`] / [`Db::any_match_rel`] /
//! [`Db::len_rel`] answer planner queries. Token encodings are private to
//! each implementation (an [`Instance`] packs its dense
//! [`grom_data::RelId`]; composites pack one id per side). Tokens are only
//! meaningful on the database that issued them and remain valid as long as
//! that database is not mutated.

use grom_data::{Instance, RelId, Span, Tuple, Value};

/// Flow control for streaming evaluation and scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Continue,
    Stop,
}

/// An opaque, `Copy` token for a relation of a specific [`Db`], produced by
/// [`Db::resolve`]. The payload encoding is implementation-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbRel(pub u64);

/// A version half of a relation, for semi-naive delta evaluation.
///
/// The cursor payload is an opaque value from
/// [`Db::cursor_before_last_rel`] — like [`DbRel`] tokens, cursors are only
/// meaningful on the database that issued them, and only against the
/// database state they were computed from. `Old(c)` selects tuples strictly
/// older than the cursor, `New(c)` the cursor's trailing tuples, `All` the
/// unversioned view (`Old(c) ∪ New(c)` for any valid `c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ver {
    All,
    Old(u64),
    New(u64),
}

/// Read access to a set of relations, via pattern queries.
///
/// Patterns follow [`grom_data::Relation::scan_each`]: `pattern[i] =
/// Some(v)` constrains column `i` to equal `v`; `None` leaves it free.
/// Absent relations behave as empty: [`Db::resolve`] returns `None`.
pub trait Db {
    /// Resolve `relation` to an opaque token, or `None` if it is absent
    /// (and therefore empty). Resolve once per evaluation, not per probe.
    fn resolve(&self, relation: &str) -> Option<DbRel>;

    /// Stream the tuples of `rel` matching `pattern` into `visit`, in
    /// insertion order, stopping early when `visit` returns
    /// [`Control::Stop`].
    fn scan_rel<'a>(
        &'a self,
        rel: DbRel,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&'a Tuple) -> Control,
    ) {
        self.scan_rel_v(rel, pattern, Ver::All, visit);
    }

    /// [`Db::scan_rel`] restricted to one version half. Required (no
    /// default): an implementation that ignored the version would silently
    /// drop matches from the semi-naive split, so every [`Db`] must state
    /// how it partitions its relations.
    fn scan_rel_v<'a>(
        &'a self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'a Tuple) -> Control,
    );

    /// An index-based upper bound on the number of tuples of `rel` matching
    /// `pattern` — the join planner's cardinality estimate.
    fn estimate_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> usize {
        self.estimate_rel_v(rel, pattern, Ver::All)
    }

    /// [`Db::estimate_rel`] restricted to one version half.
    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize;

    /// The version cursor that splits off the last `n` tuples of `rel` as
    /// its *new* half: [`Ver::New`] of the returned cursor covers exactly
    /// the `n` most recently inserted tuples, [`Ver::Old`] everything
    /// older. This is how the delta scheduler versions a relation at claim
    /// time — a claimed delta of `n` tuples is, by the append-only row
    /// discipline, exactly the relation's trailing `n` tuples.
    fn cursor_before_last_rel(&self, rel: DbRel, n: usize) -> u64;

    /// Does any tuple of `rel` match `pattern`? Cheaper than a scan when
    /// only existence matters (negated literals, denial checks).
    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        let mut found = false;
        self.scan_rel(rel, pattern, &mut |_| {
            found = true;
            Control::Stop
        });
        found
    }

    /// Number of tuples in `rel`.
    fn len_rel(&self, rel: DbRel) -> usize;
}

/// Translate an engine-level version into a slot [`Span`] for a single
/// [`grom_data::Relation`], whose cursors are slot indexes.
fn span_of(ver: Ver) -> Span {
    match ver {
        Ver::All => Span::All,
        Ver::Old(c) => Span::Below(c as u32),
        Ver::New(c) => Span::AtLeast(c as u32),
    }
}

impl Db for Instance {
    fn resolve(&self, relation: &str) -> Option<DbRel> {
        self.rel_id(relation).map(|RelId(id)| DbRel(u64::from(id)))
    }

    fn scan_rel_v<'a>(
        &'a self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'a Tuple) -> Control,
    ) {
        self.relation_by_id(RelId(rel.0 as u32))
            .scan_each_v(pattern, span_of(ver), &mut |t| {
                visit(t) == Control::Continue
            });
    }

    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        self.relation_by_id(RelId(rel.0 as u32))
            .estimate_v(pattern, span_of(ver))
    }

    fn cursor_before_last_rel(&self, rel: DbRel, n: usize) -> u64 {
        u64::from(
            self.relation_by_id(RelId(rel.0 as u32))
                .cursor_before_last(n),
        )
    }

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        self.relation_by_id(RelId(rel.0 as u32)).any_match(pattern)
    }

    fn len_rel(&self, rel: DbRel) -> usize {
        self.relation_by_id(RelId(rel.0 as u32)).len()
    }
}

/// Two instances viewed as one database. Relation names must not overlap
/// (GROM enforces distinct source/target relation names, cf. the `S-`/`T-`
/// prefixes of the paper); if they do, the first instance wins.
///
/// Token encoding: bit 32 selects the side (0 = first, 1 = second), the low
/// 32 bits are the side's dense [`RelId`].
#[derive(Debug, Clone, Copy)]
pub struct PairDb<'a> {
    pub first: &'a Instance,
    pub second: &'a Instance,
}

const SIDE_BIT: u64 = 1 << 32;

impl<'a> PairDb<'a> {
    pub fn new(first: &'a Instance, second: &'a Instance) -> Self {
        Self { first, second }
    }

    /// Decode a token into the owning instance and its local [`RelId`].
    fn decode(&self, rel: DbRel) -> (&'a Instance, RelId) {
        let side = if rel.0 & SIDE_BIT == 0 {
            self.first
        } else {
            self.second
        };
        (side, RelId(rel.0 as u32))
    }
}

impl Db for PairDb<'_> {
    fn resolve(&self, relation: &str) -> Option<DbRel> {
        if let Some(RelId(id)) = self.first.rel_id(relation) {
            Some(DbRel(u64::from(id)))
        } else {
            self.second
                .rel_id(relation)
                .map(|RelId(id)| DbRel(SIDE_BIT | u64::from(id)))
        }
    }

    fn scan_rel_v<'b>(
        &'b self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'b Tuple) -> Control,
    ) {
        let (side, id) = self.decode(rel);
        side.relation_by_id(id)
            .scan_each_v(pattern, span_of(ver), &mut |t| {
                visit(t) == Control::Continue
            });
    }

    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        let (side, id) = self.decode(rel);
        side.relation_by_id(id).estimate_v(pattern, span_of(ver))
    }

    fn cursor_before_last_rel(&self, rel: DbRel, n: usize) -> u64 {
        let (side, id) = self.decode(rel);
        u64::from(side.relation_by_id(id).cursor_before_last(n))
    }

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        let (side, id) = self.decode(rel);
        side.relation_by_id(id).any_match(pattern)
    }

    fn len_rel(&self, rel: DbRel) -> usize {
        let (side, id) = self.decode(rel);
        side.relation_by_id(id).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;

    #[test]
    fn pair_db_resolves_both_sides() {
        let mut a = Instance::new();
        a.add("S", vec![Value::int(1)]).unwrap();
        let mut b = Instance::new();
        b.add("T", vec![Value::int(2)]).unwrap();
        let db = PairDb::new(&a, &b);
        let (s, t) = (db.resolve("S").unwrap(), db.resolve("T").unwrap());
        let scanned = |rel| {
            let mut n = 0;
            db.scan_rel(rel, &[None], &mut |_| {
                n += 1;
                Control::Continue
            });
            n
        };
        assert_eq!(scanned(s), 1);
        assert_eq!(scanned(t), 1);
        assert!(db.resolve("U").is_none());
        assert!(db.any_match_rel(s, &[Some(Value::int(1))]));
        assert!(!db.any_match_rel(s, &[Some(Value::int(9))]));
        assert_eq!(db.len_rel(s), 1);
        assert_eq!(db.estimate_rel(t, &[None]), 1);
    }

    #[test]
    fn resolved_tokens_stream_and_stop() {
        let mut a = Instance::new();
        for i in 0..5 {
            a.add("S", vec![Value::int(i)]).unwrap();
        }
        let b = Instance::new();
        let db = PairDb::new(&a, &b);
        assert!(db.resolve("U").is_none());
        let s = db.resolve("S").unwrap();
        assert_eq!(db.len_rel(s), 5);
        assert_eq!(db.estimate_rel(s, &[None]), 5);
        assert!(db.any_match_rel(s, &[Some(Value::int(3))]));
        let mut seen = 0;
        db.scan_rel(s, &[None], &mut |_| {
            seen += 1;
            if seen == 2 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn versioned_scans_split_old_and_new() {
        let mut a = Instance::new();
        for i in 0..6 {
            a.add("S", vec![Value::int(i)]).unwrap();
        }
        let b = Instance::new();
        let db = PairDb::new(&a, &b);
        let s = db.resolve("S").unwrap();
        let c = db.cursor_before_last_rel(s, 2);
        let collect = |ver: Ver| {
            let mut out = Vec::new();
            db.scan_rel_v(s, &[None], ver, &mut |t| {
                out.push(t.get(0).cloned().unwrap());
                Control::Continue
            });
            out
        };
        assert_eq!(collect(Ver::New(c)), vec![Value::int(4), Value::int(5)]);
        assert_eq!(collect(Ver::Old(c)).len(), 4);
        assert_eq!(collect(Ver::All).len(), 6);
        assert_eq!(db.estimate_rel_v(s, &[None], Ver::New(c)), 2);
        // n = 0 puts everything in the old half.
        let frontier = db.cursor_before_last_rel(s, 0);
        assert!(collect(Ver::New(frontier)).is_empty());
        assert_eq!(collect(Ver::Old(frontier)).len(), 6);
    }

    #[test]
    fn second_side_tokens_decode() {
        let a = Instance::new();
        let mut b = Instance::new();
        b.add("T", vec![Value::int(2), Value::int(3)]).unwrap();
        let db = PairDb::new(&a, &b);
        let t = db.resolve("T").unwrap();
        assert_ne!(t.0 & SIDE_BIT, 0);
        assert_eq!(db.len_rel(t), 1);
        let mut hits = 0;
        db.scan_rel(t, &[Some(Value::int(2)), None], &mut |tu| {
            assert_eq!(tu.get(1), Some(&Value::int(3)));
            hits += 1;
            Control::Continue
        });
        assert_eq!(hits, 1);
    }
}
