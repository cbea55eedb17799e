//! The database abstraction the engine evaluates over.
//!
//! The chase reads one growing instance; validation reads the source, the
//! target and both sets of view extents at once; view materialization reads
//! the base under the extents it is building; the parallel chase executor
//! reads an immutable snapshot *overlaid* with a worker's private insertion
//! buffer. [`Db`] abstracts over all of them so the same plans
//! ([`crate::plan`]) serve every caller.
//!
//! The trait deliberately exposes *query* primitives (scan / estimate /
//! existence) rather than handing out `&Relation`: a composite database —
//! [`LayeredDb`], or the shard views of `grom-exec` — has no single
//! relation object to return for a name stored in several parts, but it can
//! always answer a pattern query by combining them.
//!
//! ## Resolved tokens and streaming scans
//!
//! A plan run resolves each relation name **once** into an opaque
//! [`DbRel`] token ([`Db::resolve`]) and then addresses the relation by
//! token: [`Db::scan_rel_v`] streams matching tuples into a callback with
//! no intermediate `Vec`, [`Db::estimate_rel_v`] / [`Db::any_match_rel`]
//! answer the two run-time planning questions. Token encodings are private
//! to each implementation (an [`Instance`] packs its dense
//! [`grom_data::RelId`]; composites add a part index). Tokens are only
//! meaningful on the database that issued them, and stay valid while
//! [`Db::rel_count`] does.

use grom_data::{Instance, RelId, Relation, Span, Tuple, Value};

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
/// The cursor is a position in the relation's insertion order, in the
/// encoding of the database it is used on — for an [`Instance`] (and the
/// shard views of `grom-exec`, which continue the snapshot's numbering) a
/// [`grom_data::Relation::frontier`] taken earlier. `Old(c)` selects the
/// tuples inserted before that point, `New(c)` the ones inserted since,
/// `All` the unversioned view (`Old(c) ∪ New(c)` for any `c`).
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

    /// How many relations the database stores, over all its parts. Tokens
    /// — and `None` resolutions — stay valid exactly as long as this number
    /// does: relations are created, never dropped, so a caller that
    /// interleaves writes with reads re-resolves when it moved.
    fn rel_count(&self) -> usize;

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

    fn rel_count(&self) -> usize {
        self.relation_count()
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

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        self.relation_by_id(RelId(rel.0 as u32)).any_match(pattern)
    }
}

/// Several borrowed instances viewed as one database: a relation reads as
/// the union of its extents in every layer that stores it (first layer
/// first, a tuple an earlier layer already holds is not repeated). Nothing
/// is copied or re-indexed — this is how validation reads `source ∪ source
/// extents ∪ target ∪ target extents`, and view materialization `base ∪
/// extents`.
///
/// Token encoding: the low 32 bits are the dense [`RelId`] in the first
/// layer that stores the relation, bits 32..48 that layer's index, and the
/// top bit is set when a later layer stores the name too (those layers
/// are then looked up by name per query — GROM's scenarios keep layer
/// vocabularies disjoint, so this is the rare path). Cursors are positions
/// in the layer-by-layer scan order: `layer << 32 | slot`.
///
/// A scan of a name stored in one layer is that layer's scan, with no
/// intermediate `Vec`; only a name stored in several layers keeps a list
/// of the layers already read, to skip the tuples they hold.
#[derive(Debug, Clone, Copy)]
pub struct LayeredDb<'a> {
    layers: &'a [&'a Instance],
}

const SHARED: u64 = 1 << 63;

impl<'a> LayeredDb<'a> {
    pub fn new(layers: &'a [&'a Instance]) -> Self {
        Self { layers }
    }

    /// The first stored relation behind a token, with its layer index.
    fn first_part(&self, rel: DbRel) -> (usize, &'a Relation) {
        let layer = (rel.0 >> 32) as u16 as usize;
        (
            layer,
            self.layers[layer].relation_by_id(RelId(rel.0 as u32)),
        )
    }

    /// The stored relations behind a token, with their layer index.
    fn parts(&self, rel: DbRel) -> impl Iterator<Item = (usize, &'a Relation)> {
        let layers = self.layers;
        let (first, part) = self.first_part(rel);
        let later = (rel.0 & SHARED != 0).then(|| layers[first].rel_name(RelId(rel.0 as u32)));
        let later = layers[first + 1..]
            .iter()
            .enumerate()
            .filter_map(move |(k, layer)| Some((first + 1 + k, layer.relation(later?)?)));
        std::iter::once((first, part)).chain(later)
    }
}

/// The slot span `ver` selects in layer `layer`; `None` if it selects
/// nothing there.
fn layer_span(ver: Ver, layer: usize) -> Option<Span> {
    let split = |cursor: u64| ((cursor >> 32) as usize, cursor as u32);
    match ver {
        Ver::All => Some(Span::All),
        Ver::Old(c) => match split(c) {
            (cut, _) if layer < cut => Some(Span::All),
            (cut, slot) if layer == cut => Some(Span::Below(slot)),
            _ => None,
        },
        Ver::New(c) => match split(c) {
            (cut, _) if layer > cut => Some(Span::All),
            (cut, slot) if layer == cut => Some(Span::AtLeast(slot)),
            _ => None,
        },
    }
}

impl Db for LayeredDb<'_> {
    fn resolve(&self, relation: &str) -> Option<DbRel> {
        let mut stored = self
            .layers
            .iter()
            .enumerate()
            .filter_map(|(l, layer)| Some((l, layer.rel_id(relation)?)));
        let (layer, RelId(id)) = stored.next()?;
        let shared = if stored.next().is_some() { SHARED } else { 0 };
        Some(DbRel(shared | (layer as u64) << 32 | u64::from(id)))
    }

    fn rel_count(&self) -> usize {
        self.layers.iter().map(|l| l.relation_count()).sum()
    }

    fn scan_rel_v<'b>(
        &'b self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'b Tuple) -> Control,
    ) {
        if rel.0 & SHARED == 0 {
            let (layer, part) = self.first_part(rel);
            if let Some(span) = layer_span(ver, layer) {
                part.scan_each_v(pattern, span, &mut |t| visit(t) == Control::Continue);
            }
            return;
        }
        // A name stored in several layers: skip what an earlier one holds.
        let mut earlier: Vec<&Relation> = Vec::new();
        for (layer, part) in self.parts(rel) {
            if let Some(span) = layer_span(ver, layer) {
                let completed = part.scan_each_v(pattern, span, &mut |t| {
                    earlier.iter().any(|e| e.contains(t)) || visit(t) == Control::Continue
                });
                if !completed {
                    return;
                }
            }
            earlier.push(part);
        }
    }

    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        self.parts(rel)
            .filter_map(|(layer, part)| Some(part.estimate_v(pattern, layer_span(ver, layer)?)))
            .sum()
    }

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        self.parts(rel).any(|(_, part)| part.any_match(pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;

    fn count(db: &impl Db, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        let mut n = 0;
        db.scan_rel_v(rel, pattern, ver, &mut |_| {
            n += 1;
            Control::Continue
        });
        n
    }

    #[test]
    fn pair_db_resolves_both_sides() {
        let mut a = Instance::new();
        a.add("S", vec![Value::int(1)]).unwrap();
        let mut b = Instance::new();
        b.add("T", vec![Value::int(2)]).unwrap();
        let layers = [&a, &b];
        let db = LayeredDb::new(&layers);
        let (s, t) = (db.resolve("S").unwrap(), db.resolve("T").unwrap());
        assert_eq!(count(&db, s, &[None], Ver::All), 1);
        assert_eq!(count(&db, t, &[None], Ver::All), 1);
        assert!(db.resolve("U").is_none());
        assert!(db.any_match_rel(s, &[Some(Value::int(1))]));
        assert!(!db.any_match_rel(s, &[Some(Value::int(9))]));
        assert_eq!(db.estimate_rel(t, &[None]), 1);
        assert_eq!(db.rel_count(), 2);
    }

    #[test]
    fn resolved_tokens_stream_and_stop() {
        let mut a = Instance::new();
        for i in 0..5 {
            a.add("S", vec![Value::int(i)]).unwrap();
        }
        let b = Instance::new();
        let layers = [&a, &b];
        let db = LayeredDb::new(&layers);
        assert!(db.resolve("U").is_none());
        let s = db.resolve("S").unwrap();
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
        let layers = [&a, &b];
        let db = LayeredDb::new(&layers);
        let s = db.resolve("S").unwrap();
        let c = u64::from(a.relation("S").unwrap().cursor_before_last(2));
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
        // At the frontier everything is in the old half.
        let frontier = u64::from(a.relation("S").unwrap().frontier());
        assert!(collect(Ver::New(frontier)).is_empty());
        assert_eq!(collect(Ver::Old(frontier)).len(), 6);
    }

    #[test]
    fn second_side_tokens_decode() {
        let a = Instance::new();
        let mut b = Instance::new();
        b.add("T", vec![Value::int(2), Value::int(3)]).unwrap();
        let layers = [&a, &b];
        let db = LayeredDb::new(&layers);
        let t = db.resolve("T").unwrap();
        assert_eq!(t.0 >> 32, 1);
        let mut hits = 0;
        db.scan_rel(t, &[Some(Value::int(2)), None], &mut |tu| {
            assert_eq!(tu.get(1), Some(&Value::int(3)));
            hits += 1;
            Control::Continue
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn a_relation_in_several_layers_reads_as_their_union() {
        // R is stored in layers 0 and 2; (2) is in both and must read once.
        let mut a = Instance::new();
        a.add("R", vec![Value::int(1)]).unwrap();
        a.add("R", vec![Value::int(2)]).unwrap();
        let mut b = Instance::new();
        b.add("Other", vec![Value::int(7)]).unwrap();
        let mut c = Instance::new();
        c.add("R", vec![Value::int(2)]).unwrap();
        c.add("R", vec![Value::int(3)]).unwrap();
        let layers = [&a, &b, &c];
        let db = LayeredDb::new(&layers);
        let r = db.resolve("R").unwrap();
        let collect = |ver: Ver| {
            let mut out = Vec::new();
            db.scan_rel_v(r, &[None], ver, &mut |t| {
                out.push(t.get(0).and_then(Value::as_int).unwrap());
                Control::Continue
            });
            out
        };
        assert_eq!(collect(Ver::All), vec![1, 2, 3]);
        assert!(db.any_match_rel(r, &[Some(Value::int(3))]));
        assert!(db.estimate_rel(r, &[None]) >= 3);
        // Old and new partition the union for every cursor `layer << 32 |
        // slot`; the (2) layer 0 already holds stays in layer 0's half.
        for (layer, slot) in [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)] {
            let cur = layer << 32 | slot;
            let (mut old, new) = (collect(Ver::Old(cur)), collect(Ver::New(cur)));
            old.extend(new);
            assert_eq!(old, vec![1, 2, 3], "cursor {layer}:{slot}");
        }
        assert_eq!(collect(Ver::New(2 << 32 | 1)), vec![3]);
        // A relation stored once still resolves to a plain token.
        assert_eq!(
            count(&db, db.resolve("Other").unwrap(), &[None], Ver::All),
            1
        );
    }

    #[test]
    fn single_part_and_shared_tokens_stream_the_same_rows() {
        // R sits in layer 1 alone, or in layer 1 and again in layer 2,
        // which holds only rows layer 1 has: both read as the same union.
        let mut other = Instance::new();
        other
            .add("Other", vec![Value::int(0), Value::int(0)])
            .unwrap();
        let mut r = Instance::new();
        for i in 0..8 {
            r.add("R", vec![Value::int(i % 3), Value::int(i)]).unwrap();
        }
        let mut dup = Instance::new();
        for i in [1, 6, 4] {
            dup.add("R", vec![Value::int(i % 3), Value::int(i)])
                .unwrap();
        }
        let empty = Instance::new();
        let (single, shared) = ([&other, &r, &empty], [&other, &r, &dup]);
        let (single, shared) = (LayeredDb::new(&single), LayeredDb::new(&shared));
        let (a, b) = (single.resolve("R").unwrap(), shared.resolve("R").unwrap());
        assert_eq!(a.0 & SHARED, 0);
        assert_ne!(b.0 & SHARED, 0);
        let stream = |db: &LayeredDb, rel: DbRel, pattern: &[Option<Value>], ver, stop_at| {
            let mut out = Vec::new();
            db.scan_rel_v(rel, pattern, ver, &mut |t| {
                out.push(t.get(1).and_then(Value::as_int).unwrap());
                if out.len() == stop_at {
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            out
        };
        let cursors = (0..=2u64).flat_map(|layer| (0..=8).map(move |slot| layer << 32 | slot));
        let vers = [Ver::All]
            .into_iter()
            .chain(cursors.flat_map(|c| [Ver::Old(c), Ver::New(c)]));
        for ver in vers {
            for pattern in [[None, None], [Some(Value::int(1)), None]] {
                let all = stream(&single, a, &pattern, ver, 0);
                assert_eq!(all, stream(&shared, b, &pattern, ver, 0), "{ver:?}");
                for stop_at in 1..=all.len() {
                    let got = stream(&single, a, &pattern, ver, stop_at);
                    assert_eq!(got, all[..stop_at], "{ver:?}, stop at {stop_at}");
                    assert_eq!(got, stream(&shared, b, &pattern, ver, stop_at));
                }
            }
        }
    }
}
