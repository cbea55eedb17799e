//! Shard views: an immutable instance snapshot overlaid with a private
//! insertion buffer.
//!
//! A [`ShardView`] is what one chase worker evaluates against during a
//! parallel sweep. Reads ([`Db`] queries) see the union of the shared
//! snapshot and the worker's own buffer — so a dependency's premise joins
//! observe the repairs the *same worker* made earlier in the sweep, exactly
//! like the sequential loop. Writes go only to the buffer, deduplicated
//! against both layers; the worker hands the buffer back
//! ([`ShardView::into_buffer`]) and the coordinator absorbs it into the
//! master at the sweep barrier.
//!
//! Alongside the insertion buffer the view carries an **equality
//! obligation buffer**: egd repairs running on a worker cannot rewrite the
//! shared instance, so they record the pair of values to be unified and
//! hand the buffer to the coordinator, which performs the combined
//! unification and the single null-substitution pass at the sweep barrier.
//!
//! The two storage layers are disjoint by construction (a tuple already
//! present in the snapshot is never added to the buffer), so union queries
//! need no deduplication and tuple counts simply add.
//!
//! ## Version cursors
//!
//! A view continues the snapshot's slot numbering: buffer row `i` of a
//! relation sits at `snapshot frontier + i`. A cursor into the snapshot
//! relation is therefore a cursor into the view (everything buffered is
//! newer), [`ShardView::frontier`] is where the relation's next row goes —
//! and, because only one job writes a relation and the barrier absorbs its
//! buffer in insertion order, that is also the master slot the row lands in.
//! A watermark a worker takes mid-job stays exact after the barrier.

use std::sync::Arc;

use grom_data::{DataError, Instance, RelId, Relation, Span, Tuple, TupleHash, Value};
use grom_engine::{Control, Db, DbRel, Ver};

/// An instance snapshot plus a private write buffer, presented as one
/// database.
#[derive(Debug)]
pub struct ShardView<'a> {
    base: &'a Instance,
    /// The worker's buffered insertions; always disjoint from `base`.
    local: Instance,
    /// Equality obligations recorded by egd repairs, in collection order;
    /// unified by the coordinator at the sweep barrier.
    obligations: Vec<(Value, Value)>,
    /// Insert attempts rejected as duplicates on either layer. A function
    /// of the snapshot and buffer contents only — deterministic across
    /// thread counts — so the chase profile can report it per activation.
    dedup_hits: u64,
}

impl<'a> ShardView<'a> {
    /// A fresh view over `base` with an empty buffer.
    pub fn new(base: &'a Instance) -> Self {
        Self {
            base,
            local: Instance::new(),
            obligations: Vec::new(),
            dedup_hits: 0,
        }
    }

    /// The shared snapshot this view reads through to.
    pub fn base(&self) -> &'a Instance {
        self.base
    }

    /// Insert a tuple. Returns `Ok(true)` iff it is new to *both* layers.
    /// Arity is checked against whichever layer already fixed it; the
    /// tuple is hashed once for both membership tests.
    pub fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        let hash = TupleHash::of(&tuple);
        if let Some(base) = self.base.relation(relation) {
            if let Some(arity) = base.arity().filter(|&a| a != tuple.arity()) {
                return Err(DataError::ArityMismatch {
                    relation: relation.clone(),
                    expected: arity,
                    actual: tuple.arity(),
                });
            }
            if base.contains_hashed(hash, &tuple) {
                self.dedup_hits += 1;
                return Ok(false);
            }
        }
        let fresh = self.local.insert_hashed(relation, tuple, hash)?;
        if !fresh {
            self.dedup_hits += 1;
        }
        Ok(fresh)
    }

    /// Insert attempts rejected as duplicates so far (both layers).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// The cursor past every row of `relation` this view holds: the
    /// snapshot relation's frontier (`base` is its id there, if it exists)
    /// plus the rows buffered so far. See the module docs.
    pub fn frontier(&self, base: Option<RelId>, relation: &str) -> u64 {
        let buffered = self.local.relation(relation).map_or(0, Relation::frontier);
        u64::from(self.edge(base)) + u64::from(buffered)
    }

    /// Where the snapshot relation `base` ends and the buffer's numbering
    /// begins.
    fn edge(&self, base: Option<RelId>) -> u32 {
        base.map_or(0, |id| self.base.relation_by_id(id).frontier())
    }

    /// Hand the insertion buffer back, for the coordinator to absorb.
    pub fn into_buffer(self) -> Instance {
        self.local
    }

    /// Record an equality obligation `left = right` for the coordinator's
    /// barrier unification. Values are stored raw (unresolved): the
    /// coordinator resolves them against the authoritative null map when it
    /// unifies the merged buffers.
    pub fn record_obligation(&mut self, left: Value, right: Value) {
        self.obligations.push((left, right));
    }

    /// Drain the obligations recorded since the last drain, in collection
    /// order.
    pub fn take_obligations(&mut self) -> Vec<(Value, Value)> {
        std::mem::take(&mut self.obligations)
    }
}

/// Token encoding for [`ShardView`]: the high 32 bits hold the snapshot's
/// `RelId + 1` and the low 32 bits the buffer's `RelId + 1`, with 0 meaning
/// "absent on that layer". At least one half is always set.
fn encode(base: Option<RelId>, local: Option<RelId>) -> Option<DbRel> {
    if base.is_none() && local.is_none() {
        return None;
    }
    let hi = base.map_or(0, |RelId(i)| u64::from(i) + 1);
    let lo = local.map_or(0, |RelId(i)| u64::from(i) + 1);
    Some(DbRel((hi << 32) | lo))
}

fn decode(rel: DbRel) -> (Option<RelId>, Option<RelId>) {
    let hi = (rel.0 >> 32) as u32;
    let lo = rel.0 as u32;
    (hi.checked_sub(1).map(RelId), lo.checked_sub(1).map(RelId))
}

impl ShardView<'_> {
    /// Split a version cursor into per-layer slot [`Span`]s: the buffer
    /// continues the numbering of the snapshot relation `base`, so the cut
    /// falls in the snapshot, or past all of it and into the buffer.
    fn layer_spans(&self, base: Option<RelId>, ver: Ver) -> (Span, Span) {
        let edge = u64::from(self.edge(base));
        let split = |c: u64| (c.min(edge) as u32, c.saturating_sub(edge) as u32);
        match ver {
            Ver::All => (Span::All, Span::All),
            Ver::Old(c) => (Span::Below(split(c).0), Span::Below(split(c).1)),
            Ver::New(c) => (Span::AtLeast(split(c).0), Span::AtLeast(split(c).1)),
        }
    }
}

impl Db for ShardView<'_> {
    fn resolve(&self, relation: &str) -> Option<DbRel> {
        encode(self.base.rel_id(relation), self.local.rel_id(relation))
    }

    fn rel_count(&self) -> usize {
        // A token packs both layers' ids, so the first buffered tuple of a
        // relation changes its token: the buffer's relations count too.
        self.base.relation_count() + self.local.relation_count()
    }

    fn scan_rel_v<'b>(
        &'b self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'b Tuple) -> Control,
    ) {
        // Snapshot rows first, then buffered rows: insertion order across
        // the union, since everything in the buffer is newer. The layers
        // are disjoint by construction, so no deduplication is needed.
        let (base, local) = decode(rel);
        let (base_span, local_span) = self.layer_spans(base, ver);
        if let Some(id) = base {
            if !self
                .base
                .relation_by_id(id)
                .scan_each_v(pattern, base_span, &mut |t| visit(t) == Control::Continue)
            {
                return;
            }
        }
        if let Some(id) = local {
            self.local
                .relation_by_id(id)
                .scan_each_v(pattern, local_span, &mut |t| visit(t) == Control::Continue);
        }
    }

    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        let (base, local) = decode(rel);
        let (base_span, local_span) = self.layer_spans(base, ver);
        base.map_or(0, |id| {
            self.base.relation_by_id(id).estimate_v(pattern, base_span)
        }) + local.map_or(0, |id| {
            self.local
                .relation_by_id(id)
                .estimate_v(pattern, local_span)
        })
    }

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        let (base, local) = decode(rel);
        base.is_some_and(|id| self.base.relation_by_id(id).any_match(pattern))
            || local.is_some_and(|id| self.local.relation_by_id(id).any_match(pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    fn rel(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    #[test]
    fn reads_union_base_and_buffer() {
        let mut base = Instance::new();
        base.add("R", vec![v(1), v(10)]).unwrap();
        base.add("R", vec![v(2), v(20)]).unwrap();

        let mut view = ShardView::new(&base);
        assert!(view
            .insert(&rel("R"), Tuple::new(vec![v(3), v(30)]))
            .unwrap());
        assert!(view.insert(&rel("S"), Tuple::new(vec![v(7)])).unwrap());

        // Union scan: base rows first, then buffered rows.
        let (r, s) = (view.resolve("R").unwrap(), view.resolve("S").unwrap());
        let mut rows: Vec<i64> = Vec::new();
        view.scan_rel(r, &[None, None], &mut |t| {
            rows.push(t.get(0).unwrap().as_int().unwrap());
            Control::Continue
        });
        assert_eq!(rows, vec![1, 2, 3]);
        assert_eq!(view.estimate_rel(r, &[None, None]), 3);
        assert_eq!(view.estimate_rel(s, &[None]), 1);
        assert_eq!(view.estimate_rel(r, &[Some(v(3)), None]), 1);
        assert!(view.any_match_rel(r, &[Some(v(1)), None]));
        assert!(view.any_match_rel(s, &[Some(v(7))]));
        assert!(!view.any_match_rel(s, &[Some(v(8))]));
    }

    #[test]
    fn inserts_dedup_against_both_layers() {
        let mut base = Instance::new();
        base.add("R", vec![v(1)]).unwrap();
        let mut view = ShardView::new(&base);
        assert!(!view.insert(&rel("R"), Tuple::new(vec![v(1)])).unwrap());
        assert!(view.insert(&rel("R"), Tuple::new(vec![v(2)])).unwrap());
        assert!(!view.insert(&rel("R"), Tuple::new(vec![v(2)])).unwrap());
        // One rejection per layer: the base hit and the buffer hit.
        assert_eq!(view.dedup_hits(), 2);
        // Only the genuinely new tuple is buffered.
        assert_eq!(view.into_buffer().len(), 1);
    }

    #[test]
    fn arity_checked_against_base() {
        let mut base = Instance::new();
        base.add("R", vec![v(1), v(2)]).unwrap();
        let mut view = ShardView::new(&base);
        let err = view.insert(&rel("R"), Tuple::new(vec![v(1)])).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn obligation_buffer_drains_in_order() {
        let base = Instance::new();
        let mut view = ShardView::new(&base);
        view.record_obligation(Value::null(0), v(5));
        view.record_obligation(Value::null(1), Value::null(0));
        let obs = view.take_obligations();
        assert_eq!(
            obs,
            vec![(Value::null(0), v(5)), (Value::null(1), Value::null(0)),]
        );
        assert!(view.take_obligations().is_empty());
    }

    #[test]
    fn streaming_union_stops_early_without_allocating() {
        let mut base = Instance::new();
        for i in 0..5 {
            base.add("R", vec![v(i)]).unwrap();
        }
        let mut view = ShardView::new(&base);
        for i in 5..10 {
            view.insert(&rel("R"), Tuple::new(vec![v(i)])).unwrap();
        }
        let r = view.resolve("R").unwrap();
        assert_eq!(view.estimate_rel(r, &[None]), 10);
        // Early stop inside the base layer never reaches the buffer.
        let mut seen = Vec::new();
        view.scan_rel(r, &[None], &mut |t| {
            seen.push(t.get(0).unwrap().as_int().unwrap());
            if seen.len() == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(seen, vec![0, 1, 2]);
        // A full streaming scan sees base rows then buffer rows.
        let mut all = Vec::new();
        view.scan_rel(r, &[None], &mut |t| {
            all.push(t.get(0).unwrap().as_int().unwrap());
            Control::Continue
        });
        assert_eq!(all, (0..10).collect::<Vec<i64>>());
        // Buffer-only relations resolve with an empty base half.
        let before = view.rel_count();
        view.insert(&rel("S"), Tuple::new(vec![v(42)])).unwrap();
        assert_eq!(view.rel_count(), before + 1);
        let s = view.resolve("S").unwrap();
        assert_eq!(view.estimate_rel(s, &[None]), 1);
        assert!(view.any_match_rel(s, &[Some(v(42))]));
        assert!(view.resolve("Absent").is_none());
    }

    #[test]
    fn versioned_split_spans_base_and_buffer() {
        let mut base = Instance::new();
        for i in 0..4 {
            base.add("R", vec![v(i)]).unwrap();
        }
        let mut view = ShardView::new(&base);
        for i in 4..7 {
            view.insert(&rel("R"), Tuple::new(vec![v(i)])).unwrap();
        }
        let r = view.resolve("R").unwrap();
        let collect = |ver: Ver| {
            let mut out = Vec::new();
            view.scan_rel_v(r, &[None], ver, &mut |t| {
                out.push(t.get(0).unwrap().as_int().unwrap());
                Control::Continue
            });
            out
        };
        // The buffer continues the snapshot's numbering: rows 0..4 are the
        // snapshot's, 4..7 the buffer's.
        let id = base.rel_id("R");
        assert_eq!(view.frontier(id, "R"), 7);
        assert_eq!(view.frontier(None, "Absent"), 0);
        // A cut inside the buffer.
        assert_eq!(collect(Ver::New(5)), vec![5, 6]);
        assert_eq!(collect(Ver::Old(5)), vec![0, 1, 2, 3, 4]);
        assert_eq!(view.estimate_rel_v(r, &[None], Ver::New(5)), 2);
        // A cut inside the snapshot — a watermark taken before the job: the
        // new half is the snapshot's trailing rows plus the whole buffer.
        assert_eq!(collect(Ver::New(2)), vec![2, 3, 4, 5, 6]);
        assert_eq!(collect(Ver::Old(2)), vec![0, 1]);
        // Everything new; everything old.
        assert_eq!(collect(Ver::New(0)).len(), 7);
        assert!(collect(Ver::Old(0)).is_empty());
        assert!(collect(Ver::New(7)).is_empty());
        assert_eq!(collect(Ver::Old(7)).len(), 7);
    }

    #[test]
    fn barrier_merge_roundtrip() {
        let mut base = Instance::new();
        base.add("R", vec![v(1)]).unwrap();
        let mut view = ShardView::new(&base);
        view.insert(&rel("R"), Tuple::new(vec![v(2)])).unwrap();
        view.insert(&rel("S"), Tuple::new(vec![v(3)])).unwrap();
        // Where the view says R's next row goes is where the barrier puts it.
        let frontier = view.frontier(base.rel_id("R"), "R");
        let buffer = view.into_buffer();

        let mut master = base.clone();
        master.absorb(&buffer).unwrap();
        assert_eq!(master.len(), 3);
        let r = master.relation("R").unwrap();
        assert_eq!(u64::from(r.frontier()), frontier);
    }
}
