//! In-memory database instances.
//!
//! An [`Instance`] maps relation names to [`Relation`]s: deduplicated,
//! insertion-ordered tuple sets that carry only what something reads. Each
//! tuple is stored once; membership is a table of row ids over that one
//! copy; per-column indexes, and **composite-key indexes** on the join-key
//! position sets the chase's static trigger analysis registers, come into
//! being with the first probe that binds their columns. An instance that is
//! only built and iterated — a parsed source, the interned chase input, an
//! un-interned target — never pays for an index; the chased instance ends
//! up with exactly the ones its joins used ([`Instance::storage_report`]
//! lists them). The indexes are what make the nested-loop joins of
//! `grom-engine` and the violation search of `grom-chase` tolerable on
//! instances with hundreds of thousands of tuples.
//!
//! Relation names resolve once to a dense [`RelId`]; hot-path callers (the
//! redesigned `Db` trait in `grom-engine`) resolve a name a single time per
//! evaluation and then address the relation by id — one bounds-checked
//! vector index instead of a string hash per probe. Ids are stable for the
//! lifetime of an instance (including across null substitutions) and are
//! assigned in first-insert order; sorted-by-name iteration is preserved
//! for every rendering path.
//!
//! Null substitution is *surgical*: only null-bearing rows are rewritten,
//! leaving tombstones behind instead of rebuilding whole relations;
//! compaction runs when tombstones outweigh live rows.
//!
//! Instances are *schema-less* at this layer: the first tuple inserted into
//! a relation fixes its arity, and later inserts are checked against it.
//! Typed validation against a [`crate::schema::Schema`] is performed by the
//! scenario loader in `grom` (the core crate), which knows which schema an
//! instance is supposed to populate.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

use crate::error::DataError;
use crate::hash::{FxHashMap, FxHasher};
use crate::symbol::SymbolTable;
use crate::tuple::{Fact, Tuple};
use crate::value::{NullId, Value};

/// A dense relation id, assigned in first-insert order and stable for the
/// lifetime of the instance. Resolve once with [`Instance::rel_id`], then
/// address the relation with [`Instance::relation_by_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// A version window over a relation's append-ordered slots, splitting the
/// relation into an *old* and a *new* half around a slot cursor.
///
/// Rows are only ever appended (null substitution tombstones a slot and
/// re-appends the rewritten tuple), so a slot cursor `c` cleanly versions a
/// relation: live slots `< c` are the old half, live slots `>= c` the new
/// half. The semi-naive delta evaluator in `grom-engine` scans premise
/// atoms before its anchor old-only and the anchor new-only, so each match
/// is enumerated exactly once across anchor positions. A cursor is a
/// [`Relation::frontier`] taken earlier (or [`Relation::cursor_before_last`],
/// when only a row count survived); it is positional and stays meaningful
/// until a substitution rewrites the relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// All live rows (the unversioned view).
    All,
    /// Only live rows in slots strictly below the cursor (the *old* half).
    Below(u32),
    /// Only live rows in slots at or above the cursor (the *new* half).
    AtLeast(u32),
}

impl Span {
    fn covers(self, row: u32) -> bool {
        match self {
            Span::All => true,
            Span::Below(c) => row < c,
            Span::AtLeast(c) => row >= c,
        }
    }
}

/// The membership hash of a tuple: what [`Relation`] deduplicates by.
///
/// A pure function of the tuple's values, so one hash serves every layer a
/// tuple is checked against — [`Instance::insert_hashed`] and
/// [`Relation::contains_hashed`] take it instead of hashing again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleHash(u32);

impl TupleHash {
    pub fn of(tuple: &Tuple) -> Self {
        Self::of_values(tuple.values().iter())
    }

    fn of_values<'a>(values: impl Iterator<Item = &'a Value>) -> Self {
        // FxHash ends in a multiplication: the high half is the mixed one.
        TupleHash((composite_hash(values) >> 32) as u32)
    }
}

/// Hash a sequence of key values into one composite bucket key.
fn composite_hash<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// The membership table of a relation: open addressing with linear probing
/// over `(hash, row id)` pairs. It stores no tuple — a hit is confirmed
/// against the relation's `rows` by the caller's `is_row` predicate — and
/// growing it re-places the stored hashes without touching a tuple.
#[derive(Debug, Clone, Default)]
struct Members {
    /// Empty, or a power of two long; `VACANT` in the row half marks a free
    /// slot. At most three quarters full.
    slots: Vec<(u32, u32)>,
    len: usize,
}

const VACANT: u32 = u32::MAX;

impl Members {
    /// An empty table that takes `n` inserts without growing.
    fn with_capacity(n: usize) -> Self {
        let slots = if n == 0 {
            0
        } else {
            (n * 4).div_ceil(3).next_power_of_two().max(8)
        };
        Members {
            slots: vec![(0, VACANT); slots],
            len: 0,
        }
    }

    fn find(&self, hash: TupleHash, mut is_row: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash.0 as usize & mask;
        loop {
            let (h, row) = self.slots[i];
            if row == VACANT {
                return None;
            }
            if h == hash.0 && is_row(row) {
                return Some(row);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `row` under `hash`. The caller has checked it is absent.
    fn insert(&mut self, hash: TupleHash, row: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let grown = (self.slots.len() * 2).max(8);
            let old = std::mem::replace(&mut self.slots, vec![(0, VACANT); grown]);
            for (h, r) in old {
                if r != VACANT {
                    self.place(h, r);
                }
            }
        }
        self.place(hash.0, row);
        self.len += 1;
    }

    fn place(&mut self, hash: u32, row: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, row);
    }

    /// Forget `row` (stored under `hash`), closing the probe sequence behind
    /// it by shifting later entries back, so no deleted-marker is needed.
    fn remove(&mut self, hash: TupleHash, row: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = hash.0 as usize & mask;
        while self.slots[hole].1 != row {
            assert_ne!(self.slots[hole].1, VACANT, "row {row} is not a member");
            hole = (hole + 1) & mask;
        }
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let (h, r) = self.slots[next];
            if r == VACANT {
                break;
            }
            // An entry may move back into the hole unless its home slot lies
            // cyclically in (hole, next].
            let home = h as usize & mask;
            let stays = if hole <= next {
                hole < home && home <= next
            } else {
                hole < home || home <= next
            };
            if !stays {
                self.slots[hole] = (h, r);
                hole = next;
            }
        }
        self.slots[hole] = (0, VACANT);
        self.len -= 1;
    }
}

/// Hash of the key values → ids of the rows that hold (or held) them, in
/// ascending slot order.
///
/// Buckets are keyed by a 64-bit hash of the key values rather than the
/// values themselves: no `Value` clone per insert/probe, at the price of
/// possible collisions — which are safe, because every reader re-checks the
/// full pattern against the live tuple (the same contract stale buckets
/// already impose).
type Buckets = FxHashMap<u64, Bucket>;

/// The row ids of one key. A key's first row is stored inline, so a key
/// held by one row — an id, a labeled null — costs its table entry and no
/// allocation; the list is allocated when a second row arrives.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn rows(&self) -> &[u32] {
        match self {
            Bucket::One(row) => std::slice::from_ref(row),
            Bucket::Many(rows) => rows,
        }
    }

    /// Append `row`, which is above every row held: the order stays
    /// ascending.
    fn push(&mut self, row: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, row]),
            Bucket::Many(rows) => rows.push(row),
        }
    }

    /// Row ids held in an allocated list.
    fn listed(&self) -> usize {
        match self {
            Bucket::One(_) => 0,
            Bucket::Many(rows) => rows.len(),
        }
    }
}

fn add_row(buckets: &mut Buckets, key: u64, row: u32) {
    buckets
        .entry(key)
        .and_modify(|bucket| bucket.push(row))
        .or_insert(Bucket::One(row));
}

/// An index over a set of column positions that does not exist until the
/// first probe binds those columns, and is kept up to date from then on.
/// `OnceLock` lets the first probe come through a shared reference — the
/// pool executor's workers all read one snapshot.
#[derive(Debug, Clone, Default)]
struct LazyIndex(OnceLock<Buckets>);

fn key_of(cols: &[usize], tuple: &Tuple) -> u64 {
    composite_hash(cols.iter().map(|&c| &tuple.values()[c]))
}

fn build_buckets(rows: &[Option<Tuple>], cols: &[usize]) -> Buckets {
    let mut buckets = Buckets::default();
    for (r, slot) in rows.iter().enumerate() {
        if let Some(t) = slot {
            add_row(&mut buckets, key_of(cols, t), r as u32);
        }
    }
    buckets
}

impl LazyIndex {
    /// The bucket for `key`, building the index over `rows` if this is the
    /// first probe.
    fn bucket<'a>(&'a self, rows: &[Option<Tuple>], cols: &[usize], key: u64) -> &'a [u32] {
        let buckets = self.0.get_or_init(|| build_buckets(rows, cols));
        buckets.get(&key).map_or(&[], Bucket::rows)
    }

    /// Keep a built index current with a row appended at slot `row`.
    fn note(&mut self, cols: &[usize], tuple: &Tuple, row: u32) {
        if let Some(buckets) = self.0.get_mut() {
            add_row(buckets, key_of(cols, tuple), row);
        }
    }
}

/// One relation: an insertion-ordered set of tuples, stored once.
///
/// `rows` is the only copy of a tuple. Membership is a table of row ids
/// that compares against `rows`; per-column indexes and the registered
/// composite keys are built by the first probe that binds their columns, so
/// a relation that is only iterated — a parsed source, an un-interned
/// target — never carries one. A fully bound pattern is answered
/// by the membership table.
///
/// Rows live in a slot vector; null substitution tombstones rewritten slots
/// (`None`) instead of rebuilding, so row ids referenced by index buckets
/// stay valid. Buckets may contain *stale* entries (tombstoned slots, or
/// hash collisions); every reader re-checks the full pattern against the
/// live tuple, and a full compaction runs when tombstones outweigh live
/// rows.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Tuple slots in insertion order; `None` is a tombstone left by null
    /// substitution. Live slots never contain duplicates.
    rows: Vec<Option<Tuple>>,
    /// Number of live (non-tombstone) slots.
    live: usize,
    /// The live slots of `rows`, by tuple hash.
    members: Members,
    /// `columns[c]` indexes column `c` alone.
    columns: Vec<LazyIndex>,
    /// Composite-key indexes registered via [`Relation::register_key`].
    keys: Vec<(Vec<usize>, LazyIndex)>,
    /// Key registrations received before the arity was known.
    requested_keys: Vec<Vec<usize>>,
    arity: Option<usize>,
}

impl Relation {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The arity fixed by the first insert, if any tuple was ever inserted.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_hashed(TupleHash::of(tuple), tuple)
    }

    /// [`Relation::contains`] for a caller that already hashed `tuple`.
    pub fn contains_hashed(&self, hash: TupleHash, tuple: &Tuple) -> bool {
        debug_assert_eq!(hash, TupleHash::of(tuple));
        self.members
            .find(hash, |r| self.rows[r as usize].as_ref() == Some(tuple))
            .is_some()
    }

    /// The slot of the live row equal to a fully bound `pattern`.
    fn row_of(&self, pattern: &[Option<Value>]) -> Option<u32> {
        let hash = TupleHash::of_values(pattern.iter().flatten());
        self.members.find(hash, |r| {
            self.rows[r as usize].as_ref().is_some_and(|t| {
                t.values()
                    .iter()
                    .map(Some)
                    .eq(pattern.iter().map(Option::as_ref))
            })
        })
    }

    /// Register a composite-key index over `cols` (column positions of this
    /// relation), to be built by the first probe that binds all of them.
    /// Positions are sorted and deduplicated. Ignored: sets of fewer than
    /// two columns (every column has its own index), a set of *all* columns
    /// (the membership table answers fully bound probes), duplicates of an
    /// existing key and positions beyond the arity. Returns whether a new
    /// key was registered (or queued, when the arity is not yet known).
    pub fn register_key(&mut self, cols: &[usize]) -> bool {
        let mut cols: Vec<usize> = cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        if cols.len() < 2 {
            return false;
        }
        match self.arity {
            None => {
                if self.requested_keys.contains(&cols) {
                    return false;
                }
                self.requested_keys.push(cols);
                true
            }
            Some(a) => self.install_key(cols, a),
        }
    }

    fn install_key(&mut self, cols: Vec<usize>, arity: usize) -> bool {
        if cols.len() >= arity || cols.last().is_some_and(|&c| c >= arity) {
            return false;
        }
        if self.keys.iter().any(|(k, _)| *k == cols) {
            return false;
        }
        self.keys.push((cols, LazyIndex::default()));
        true
    }

    /// The column-position sets of the registered (and still pending)
    /// composite-key indexes.
    pub fn key_specs(&self) -> impl Iterator<Item = &[usize]> {
        self.keys
            .iter()
            .map(|(cols, _)| cols.as_slice())
            .chain(self.requested_keys.iter().map(Vec::as_slice))
    }

    /// Insert a tuple. Returns `Ok(true)` if it was new, `Ok(false)` if it
    /// was already present, and an arity error if it does not match the
    /// relation's fixed width.
    fn insert(
        &mut self,
        relation: &Arc<str>,
        tuple: Tuple,
        hash: TupleHash,
    ) -> Result<bool, DataError> {
        match self.arity {
            None => {
                let a = tuple.arity();
                self.arity = Some(a);
                self.columns = vec![LazyIndex::default(); a];
                for cols in std::mem::take(&mut self.requested_keys) {
                    self.install_key(cols, a);
                }
            }
            Some(a) if a != tuple.arity() => {
                return Err(DataError::ArityMismatch {
                    relation: relation.clone(),
                    expected: a,
                    actual: tuple.arity(),
                });
            }
            Some(_) => {}
        }
        if self.contains_hashed(hash, &tuple) {
            return Ok(false);
        }
        self.append(tuple, hash);
        Ok(true)
    }

    /// Push `tuple` (absent, hashing to `hash`) as the newest row.
    fn append(&mut self, tuple: Tuple, hash: TupleHash) {
        let row = self.rows.len() as u32;
        assert_ne!(row, VACANT, "relation is full");
        for (c, index) in self.columns.iter_mut().enumerate() {
            index.note(&[c], &tuple, row);
        }
        for (cols, index) in &mut self.keys {
            index.note(cols, &tuple, row);
        }
        self.members.insert(hash, row);
        self.rows.push(Some(tuple));
        self.live += 1;
    }

    /// This relation's storage gauges (see [`Instance::storage_report`];
    /// [`RelationStorage::approx_bytes`] says what an index costs).
    fn storage(&self, relation: &Arc<str>) -> RelationStorage {
        let columns = self.columns.iter().enumerate().map(|(c, ix)| (vec![c], ix));
        let keys = self.keys.iter().map(|(cols, ix)| (cols.clone(), ix));
        let mut index_bytes = 0;
        let indexes = columns
            .chain(keys)
            .filter_map(|(cols, ix)| {
                let buckets = ix.0.get()?;
                let entries: usize = buckets.values().map(|b| b.rows().len()).sum();
                let listed: usize = buckets.values().map(Bucket::listed).sum();
                index_bytes +=
                    buckets.len() * size_of::<(u64, Bucket)>() + listed * size_of::<u32>();
                Some((cols, entries))
            })
            .collect();
        RelationStorage {
            relation: relation.clone(),
            live_rows: self.live,
            tombstones: self.tombstones(),
            indexes,
            // From lengths, not capacities: a clone reports what its
            // original does.
            approx_bytes: self.rows.len() * size_of::<Option<Tuple>>()
                + self.live * self.arity.unwrap_or(0) * size_of::<Value>()
                + self.members.slots.len() * size_of::<(u32, u32)>()
                + index_bytes,
        }
    }

    /// Iterate over live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().filter_map(Option::as_ref)
    }

    /// The slot just past the newest row: the cursor under which every
    /// current row is *old* ([`Span::Below`] of it is the whole relation).
    pub fn frontier(&self) -> u32 {
        self.rows.len() as u32
    }

    /// The cursor that splits off the last `n` live rows as the *new* half:
    /// [`Span::AtLeast`] of the returned cursor covers exactly the `n`
    /// most recently inserted live tuples, [`Span::Below`] everything
    /// older. `n == 0` yields the [`Relation::frontier`] (nothing is new);
    /// `n >= len()` yields 0 (everything is new).
    ///
    /// The count-to-slot conversion for a checkpointed worklist: the chase
    /// keeps slot cursors ([`Relation::frontier`] at a dependency's last
    /// claim), but serialization drops tombstones and renumbers slots, so a
    /// checkpoint stores how many trailing rows were new instead.
    pub fn cursor_before_last(&self, n: usize) -> u32 {
        if n == 0 {
            return self.frontier();
        }
        let mut remaining = n;
        for (i, slot) in self.rows.iter().enumerate().rev() {
            if slot.is_some() {
                remaining -= 1;
                if remaining == 0 {
                    return i as u32;
                }
            }
        }
        0
    }

    /// The smallest index bucket usable for a partly bound `pattern`: the
    /// best single bound column, or a composite-key bucket when a
    /// registered key is fully bound. Every index the pattern binds is
    /// consulted — and built, if this is its first probe. `None` means the
    /// pattern is entirely unbound (full scan).
    fn best_bucket<'a>(&'a self, pattern: &[Option<Value>]) -> Option<&'a [u32]> {
        let mut best: Option<&[u32]> = None;
        let mut offer = |index: &'a LazyIndex, cols: &[usize]| {
            let key = composite_hash(cols.iter().filter_map(|&c| pattern[c].as_ref()));
            let bucket = index.bucket(&self.rows, cols, key);
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
            }
        };
        for (c, index) in self.columns.iter().enumerate() {
            if pattern.get(c).is_some_and(Option::is_some) {
                offer(index, &[c]);
            }
        }
        for (cols, index) in &self.keys {
            if cols
                .iter()
                .all(|&c| pattern.get(c).is_some_and(Option::is_some))
            {
                offer(index, cols);
            }
        }
        best
    }

    /// Stream the tuples matching `pattern` into `visit`, using the most
    /// selective index bucket the pattern binds (composite keys included)
    /// and no intermediate allocation. `visit` returns `false` to stop
    /// early; `scan_each` returns whether the scan ran to completion.
    ///
    /// `pattern[i] = Some(v)` requires column `i` to equal `v`; `None`
    /// leaves it unconstrained.
    pub fn scan_each<'a>(
        &'a self,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&'a Tuple) -> bool,
    ) -> bool {
        self.scan_each_v(pattern, Span::All, visit)
    }

    /// [`Relation::scan_each`] restricted to one version half. Index
    /// buckets hold row ids in ascending slot order (rows only append), so
    /// a bucket is narrowed to the span with one `partition_point` — the
    /// composite-key indexes stay coherent across both halves for free. A
    /// fully bound pattern is one membership lookup and builds no index.
    pub fn scan_each_v<'a>(
        &'a self,
        pattern: &[Option<Value>],
        span: Span,
        visit: &mut dyn FnMut(&'a Tuple) -> bool,
    ) -> bool {
        debug_assert_eq!(Some(pattern.len()), self.arity.or(Some(pattern.len())));
        if pattern.iter().all(Option::is_some) {
            return match self.row_of(pattern).filter(|&r| span.covers(r)) {
                Some(r) => visit(
                    self.rows[r as usize]
                        .as_ref()
                        .expect("member rows are live"),
                ),
                None => true,
            };
        }
        let matches = |t: &Tuple| {
            pattern
                .iter()
                .zip(t.values())
                .all(|(slot, v)| slot.as_ref().is_none_or(|s| s == v))
        };
        match self.best_bucket(pattern) {
            Some(bucket) => {
                let bucket = match span {
                    Span::All => bucket,
                    Span::Below(c) => &bucket[..bucket.partition_point(|&r| r < c)],
                    Span::AtLeast(c) => &bucket[bucket.partition_point(|&r| r < c)..],
                };
                for &r in bucket {
                    if let Some(t) = self.rows[r as usize].as_ref() {
                        if matches(t) && !visit(t) {
                            return false;
                        }
                    }
                }
            }
            None => {
                let rows = match span {
                    Span::All => &self.rows[..],
                    Span::Below(c) => &self.rows[..(c as usize).min(self.rows.len())],
                    Span::AtLeast(c) => &self.rows[(c as usize).min(self.rows.len())..],
                };
                for t in rows.iter().filter_map(Option::as_ref) {
                    if matches(t) && !visit(t) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Tuples matching a pattern, collected into a `Vec`. Prefer
    /// [`Relation::scan_each`] on hot paths — this convenience wrapper
    /// allocates.
    pub fn scan<'a>(&'a self, pattern: &[Option<Value>]) -> Vec<&'a Tuple> {
        let mut out = Vec::new();
        self.scan_each(pattern, &mut |t| {
            out.push(t);
            true
        });
        out
    }

    /// An upper bound on the number of tuples matching `pattern`, computed
    /// from the index buckets without touching any tuple: the smallest
    /// bucket among bound columns and fully-bound composite keys, or the
    /// live row count when the pattern is entirely unbound. The join
    /// planner in `grom-engine` uses this as its cardinality estimate.
    /// Stale entries may inflate the bound; never undercounts. Exact (0 or
    /// 1, from the membership table) when every column is bound.
    pub fn estimate(&self, pattern: &[Option<Value>]) -> usize {
        self.estimate_v(pattern, Span::All)
    }

    /// [`Relation::estimate`] restricted to one version half. The bucket
    /// bound narrows with the same `partition_point` slice the versioned
    /// scan uses; the unbound bound is the slot count of the half (which,
    /// like `live`, may overcount by tombstones — never undercounts).
    pub fn estimate_v(&self, pattern: &[Option<Value>], span: Span) -> usize {
        if pattern.iter().all(Option::is_some) {
            return usize::from(self.row_of(pattern).is_some_and(|r| span.covers(r)));
        }
        match self.best_bucket(pattern) {
            Some(bucket) => match span {
                Span::All => bucket.len(),
                Span::Below(c) => bucket.partition_point(|&r| r < c),
                Span::AtLeast(c) => bucket.len() - bucket.partition_point(|&r| r < c),
            },
            None => match span {
                Span::All => self.live,
                Span::Below(c) => self.live.min(c as usize),
                Span::AtLeast(c) => self.rows.len().saturating_sub(c as usize),
            },
        }
    }

    /// Does any tuple match the pattern? Cheaper than [`Relation::scan`]
    /// when only existence matters (negated literals, denial checks).
    pub fn any_match(&self, pattern: &[Option<Value>]) -> bool {
        !self.scan_each(pattern, &mut |_| false)
    }

    /// Rows (ascending slot order) whose tuple mentions a null mapped by
    /// `map`. Probes the null buckets of the column indexes when every
    /// column already has one and the map is small relative to the
    /// relation; sweeps the rows otherwise — substitution builds no index.
    fn affected_rows(&self, map: &HashMap<NullId, Value>) -> Vec<u32> {
        let mut out = Vec::new();
        let built: Option<Vec<&Buckets>> = self.columns.iter().map(|ix| ix.0.get()).collect();
        let probe_cost = map.len().saturating_mul(self.columns.len().max(1));
        match built {
            Some(columns) if probe_cost < self.rows.len() => {
                let mut seen = BTreeSet::new();
                for id in map.keys() {
                    let key = composite_hash(std::iter::once(&Value::Null(*id)));
                    for buckets in &columns {
                        seen.extend(buckets.get(&key).map_or(&[][..], Bucket::rows));
                    }
                }
                for r in seen {
                    // Buckets may be stale: re-check the live tuple.
                    if let Some(t) = self.rows[r as usize].as_ref() {
                        if t.nulls().any(|n| map.contains_key(&n)) {
                            out.push(r);
                        }
                    }
                }
            }
            _ => {
                for (r, slot) in self.rows.iter().enumerate() {
                    if let Some(t) = slot {
                        if t.nulls().any(|n| map.contains_key(&n)) {
                            out.push(r as u32);
                        }
                    }
                }
            }
        }
        out
    }

    /// Rewrite the null-bearing rows addressed by `map` in place, leaving
    /// tombstones where rewritten tuples merged into existing ones.
    /// Returns whether anything changed.
    fn substitute_with(&mut self, map: &HashMap<NullId, Value>) -> bool {
        let affected = self.affected_rows(map);
        if affected.is_empty() {
            return false;
        }
        // Phase 1: lift every affected row out, so phase 2's merge checks
        // see a consistent membership table.
        let mut taken: Vec<Tuple> = Vec::with_capacity(affected.len());
        for &r in &affected {
            let t = self.rows[r as usize].take().expect("affected row is live");
            self.members.remove(TupleHash::of(&t), r);
            self.live -= 1;
            taken.push(t);
        }
        // Phase 2: rewrite and re-append in the old slot order; tuples that
        // collide with a surviving row simply merge (their slot stays a
        // tombstone).
        for old in taken {
            let (new, _) = old.substitute_nulls(&mut |id| map.get(&id).cloned());
            let hash = TupleHash::of(&new);
            if !self.contains_hashed(hash, &new) {
                self.append(new, hash);
            }
        }
        self.maybe_compact();
        true
    }

    /// Slots emptied by null substitution, each of which left stale
    /// entries in the built indexes.
    fn tombstones(&self) -> usize {
        self.rows.len() - self.live
    }

    fn maybe_compact(&mut self) {
        if self.tombstones() > 64 && self.tombstones() > self.live {
            self.compact();
        }
    }

    /// Drop the tombstones and renumber the survivors, insertion order
    /// preserved. The membership table is renumbered in place (hashes do
    /// not change); the indexes some probe had built are rebuilt without
    /// their stale entries, the others stay unbuilt.
    fn compact(&mut self) {
        let mut renumbered = vec![VACANT; self.rows.len()];
        let mut next = 0u32;
        for (old, slot) in self.rows.iter().enumerate() {
            if slot.is_some() {
                renumbered[old] = next;
                next += 1;
            }
        }
        for (_, row) in &mut self.members.slots {
            if *row != VACANT {
                *row = renumbered[*row as usize];
            }
        }
        self.rows.retain(Option::is_some);
        let rows = &self.rows;
        let rebuild = |cols: &[usize], index: &mut LazyIndex| {
            if let Some(buckets) = index.0.get_mut() {
                *buckets = build_buckets(rows, cols);
            }
        };
        for (c, index) in self.columns.iter_mut().enumerate() {
            rebuild(&[c], index);
        }
        for (cols, index) in &mut self.keys {
            rebuild(cols, index);
        }
    }

    /// Give back every index some probe built; the next probe that binds
    /// one rebuilds it. Registered keys stay registered.
    fn forget_indexes(&mut self) {
        self.columns.fill_with(LazyIndex::default);
        for (_, index) in &mut self.keys {
            *index = LazyIndex::default();
        }
    }

    /// A copy that starts cold: the rows and the membership table, none of
    /// the built indexes.
    fn clone_cold(&self) -> Relation {
        Relation {
            rows: self.rows.clone(),
            live: self.live,
            members: self.members.clone(),
            columns: vec![LazyIndex::default(); self.columns.len()],
            keys: (self.keys.iter())
                .map(|(cols, _)| (cols.clone(), LazyIndex::default()))
                .collect(),
            requested_keys: self.requested_keys.clone(),
            arity: self.arity,
        }
    }

    /// [`Instance::unintern`] for one relation, in one walk over the rows:
    /// tombstones go, every surviving tuple is un-interned where it lies
    /// and entered into a fresh membership table under its new hash. No
    /// tuple is compared: distinct symbols of one table have distinct
    /// texts, so rows that differed still differ. The built indexes are
    /// forgotten (their keys hashed symbol ids). This is the last pass over
    /// a relation that is about to be handed out, so it is also cut to
    /// size.
    fn unintern(&mut self) {
        self.forget_indexes();
        self.members = Members::with_capacity(self.live);
        let members = &mut self.members;
        let mut next = 0u32;
        self.rows.retain_mut(|slot| {
            let Some(tuple) = slot else { return false };
            tuple.unintern();
            members.insert(TupleHash::of(tuple), next);
            next += 1;
            true
        });
        self.rows.shrink_to_fit();
    }
}

/// What one relation holds, in counts: one row of
/// [`Instance::storage_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStorage {
    pub relation: Arc<str>,
    pub live_rows: usize,
    /// Slots emptied by null substitution and not yet compacted away.
    pub tombstones: usize,
    /// The indexes some probe has built — single columns first, then
    /// registered keys — as (column positions, bucket entries). Entries
    /// count stale ones. A column or key that is absent was never probed.
    pub indexes: Vec<(Vec<usize>, usize)>,
    /// Bytes held by the row slots, the tuples' value arrays, the
    /// membership table and the built indexes. A built index counts one
    /// table entry per distinct key (32 B: the key hash and its first row
    /// inline) plus 4 B per row id held in the list a key gets from its
    /// second row on. String payloads are shared between tuples and not
    /// counted.
    pub approx_bytes: usize,
}

/// A database instance: relation name → [`Relation`], with dense [`RelId`]
/// resolution for hot-path callers.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    /// Name → dense id; the sorted iteration order of every rendering path.
    names: BTreeMap<Arc<str>, RelId>,
    /// Relations addressed by [`RelId`], in first-insert order.
    store: Vec<(Arc<str>, Relation)>,
    /// Composite-key registrations for relations that do not exist yet;
    /// applied when the relation is first created.
    pending_keys: BTreeMap<Arc<str>, Vec<Vec<usize>>>,
}

impl Instance {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an instance from an iterator of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Result<Self, DataError> {
        let mut inst = Instance::new();
        for f in facts {
            inst.insert_fact(f)?;
        }
        Ok(inst)
    }

    /// Insert a fact; returns whether it was new.
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, DataError> {
        self.insert(&fact.relation, fact.tuple)
    }

    /// The dense id of `name`, if the relation exists. Ids are stable for
    /// the lifetime of this instance (null substitution included).
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.names.get(name).copied()
    }

    /// The relation with id `id`.
    ///
    /// # Panics
    /// If `id` did not come from this instance's [`Instance::rel_id`].
    pub fn relation_by_id(&self, id: RelId) -> &Relation {
        &self.store[id.0 as usize].1
    }

    /// The name of the relation with id `id`.
    pub fn rel_name(&self, id: RelId) -> &Arc<str> {
        &self.store[id.0 as usize].0
    }

    /// Insert a tuple into `relation`; returns whether it was new.
    pub fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        let hash = TupleHash::of(&tuple);
        self.insert_hashed(relation, tuple, hash)
    }

    /// [`Instance::insert`] for a caller that already hashed `tuple` — a
    /// [`TupleHash`] is the same in every instance, so a tuple checked
    /// against one layer and inserted into another is hashed once.
    pub fn insert_hashed(
        &mut self,
        relation: &Arc<str>,
        tuple: Tuple,
        hash: TupleHash,
    ) -> Result<bool, DataError> {
        let id = match self.names.get(relation.as_ref()) {
            Some(&id) => id,
            None => {
                let id = RelId(self.store.len() as u32);
                self.names.insert(relation.clone(), id);
                let mut rel = Relation::new();
                if let Some(specs) = self.pending_keys.remove(relation.as_ref()) {
                    for cols in specs {
                        rel.register_key(&cols);
                    }
                }
                self.store.push((relation.clone(), rel));
                id
            }
        };
        self.store[id.0 as usize].1.insert(relation, tuple, hash)
    }

    /// Register a composite-key index on `relation` over column positions
    /// `cols` (see [`Relation::register_key`] for what is ignored; the
    /// index itself is built by the first probe that binds `cols`). If the
    /// relation does not exist yet, the registration is remembered and
    /// applied when it is first created — the chase wires up the join keys
    /// its trigger analysis discovered before any conclusion relation is
    /// materialized.
    pub fn register_key(&mut self, relation: &str, cols: &[usize]) {
        match self.names.get(relation) {
            Some(&id) => {
                self.store[id.0 as usize].1.register_key(cols);
            }
            None => {
                let mut cols: Vec<usize> = cols.to_vec();
                cols.sort_unstable();
                cols.dedup();
                if cols.len() < 2 {
                    return;
                }
                // Look the relation up before naming it: the chase registers
                // several keys per relation it has yet to create.
                match self.pending_keys.get_mut(relation) {
                    Some(pending) if pending.contains(&cols) => {}
                    Some(pending) => pending.push(cols),
                    None => {
                        self.pending_keys.insert(Arc::from(relation), vec![cols]);
                    }
                }
            }
        }
    }

    /// Convenience insert with a `&str` relation name and raw values.
    pub fn add(
        &mut self,
        relation: impl AsRef<str>,
        values: Vec<Value>,
    ) -> Result<bool, DataError> {
        self.insert(&Arc::from(relation.as_ref()), Tuple::new(values))
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.names.get(name).map(|&id| &self.store[id.0 as usize].1)
    }

    /// Tuples of `name`, or an empty iterator if the relation is absent.
    pub fn tuples(&self, name: &str) -> impl Iterator<Item = &Tuple> {
        self.relation(name).into_iter().flat_map(Relation::iter)
    }

    pub fn contains_fact(&self, relation: &str, tuple: &Tuple) -> bool {
        self.relation(relation).is_some_and(|r| r.contains(tuple))
    }

    /// Relation names present in this instance (sorted).
    pub fn relation_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.names.keys()
    }

    /// Number of relations. Relations are created on first insert and never
    /// dropped, so [`RelId`]s resolved earlier stay valid and this number
    /// only moves when a lookup that failed before may now succeed.
    pub fn relation_count(&self) -> usize {
        self.store.len()
    }

    /// All facts, grouped by relation (sorted) and then insertion order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.names.iter().flat_map(|(name, &id)| {
            self.store[id.0 as usize].1.iter().map(move |t| Fact {
                relation: name.clone(),
                tuple: t.clone(),
            })
        })
    }

    /// Storage gauges per relation (sorted by name): live rows, tombstones,
    /// which columns and keys were ever probed — those are the ones that
    /// hold an index — with their entry counts, and approximate bytes.
    pub fn storage_report(&self) -> Vec<RelationStorage> {
        self.names
            .iter()
            .map(|(name, &id)| self.store[id.0 as usize].1.storage(name))
            .collect()
    }

    /// Total number of tuples across all relations.
    pub fn len(&self) -> usize {
        self.store.iter().map(|(_, r)| r.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge all facts of `other` into `self`.
    pub fn absorb(&mut self, other: &Instance) -> Result<(), DataError> {
        for (name, id) in &other.names {
            for t in other.store[id.0 as usize].1.iter() {
                self.insert(name, t.clone())?;
            }
        }
        Ok(())
    }

    /// The union of two instances as a new instance.
    pub fn union(&self, other: &Instance) -> Result<Instance, DataError> {
        let mut out = self.clone();
        out.absorb(other)?;
        Ok(out)
    }

    /// The largest null label occurring anywhere, if any. Chase runs over an
    /// instance that already contains nulls start their generator above it.
    pub fn max_null_label(&self) -> Option<u64> {
        self.store
            .iter()
            .flat_map(|(_, r)| r.iter())
            .flat_map(|t| t.nulls())
            .map(|NullId(l)| l)
            .max()
    }

    /// Replace every `Value::Str` constant with its interned
    /// [`Value::Sym`], interning through `table` in deterministic order
    /// (relations sorted by name, tuples in insertion order). Relation
    /// structure, registered keys and insertion order carry over.
    pub fn intern_strings(&self, table: &mut SymbolTable) -> Instance {
        Instance::interned(&[self], table)
    }

    /// The union of `parts`, interned as [`Instance::intern_strings`] would
    /// intern it — same symbol ids, same relation and row order — without
    /// building the union first. A relation stored by several parts reads
    /// as their union, earlier parts first.
    pub fn interned(parts: &[&Instance], table: &mut SymbolTable) -> Instance {
        // Each part comes name-sorted; the (stable) sort merges the runs,
        // and a name stored twice keeps its parts in order.
        let mut relations: Vec<(&Arc<str>, &Relation)> = parts
            .iter()
            .flat_map(|part| {
                let rel = |(name, id): (_, &RelId)| (name, &part.store[id.0 as usize].1);
                part.names.iter().map(rel)
            })
            .collect();
        relations.sort_by_key(|(name, _)| *name);
        let mut out = Instance::new();
        for (name, rel) in relations {
            for cols in rel.key_specs() {
                out.register_key(name, cols);
            }
            for t in rel.iter() {
                let values: Vec<Value> = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Value::Sym(table.intern(s)),
                        other => other.clone(),
                    })
                    .collect();
                out.insert(name, Tuple::new(values))
                    .expect("interning preserves arity");
            }
        }
        out
    }

    /// Turn every interned [`Value::Sym`] back into a plain `Value::Str`,
    /// in place: the inverse of [`Instance::intern_strings`]. Rows keep
    /// their order, tombstones are compacted away, registered keys survive;
    /// built indexes are dropped and come back with the next probe that
    /// binds them. Slot cursors taken earlier are void.
    ///
    /// Relies on what interning guarantees — one table per database, no
    /// `Str` beside a `Sym` of the same text — so no two rows become equal.
    pub fn unintern(&mut self) {
        for (_, rel) in &mut self.store {
            rel.unintern();
        }
    }

    /// Split into the relations `first` selects and the rest. Each
    /// [`Relation`] moves whole — rows, membership table, built indexes —
    /// into exactly one side, in first-insert order; [`RelId`]s are dense
    /// per side, so ids resolved on `self` do not carry over.
    pub fn partition(self, mut first: impl FnMut(&str) -> bool) -> (Instance, Instance) {
        let mut sides = [Instance::new(), Instance::new()];
        for (name, rel) in self.store {
            sides[usize::from(!first(&name))].adopt(name, rel);
        }
        for (name, specs) in self.pending_keys {
            sides[usize::from(!first(&name))]
                .pending_keys
                .insert(name, specs);
        }
        sides.into()
    }

    /// A copy of the relations `keep` selects (see [`Instance::partition`]
    /// for the owning form), without the indexes some probe built.
    pub fn restricted(&self, mut keep: impl FnMut(&str) -> bool) -> Instance {
        let mut out = Instance::new();
        for (name, rel) in &self.store {
            if keep(name) {
                out.adopt(name.clone(), rel.clone_cold());
            }
        }
        out
    }

    /// Store `rel` under `name`, which must be new here.
    fn adopt(&mut self, name: Arc<str>, rel: Relation) {
        self.names
            .insert(name.clone(), RelId(self.store.len() as u32));
        self.store.push((name, rel));
    }

    /// Give back every index some probe built, in every relation: the
    /// memory goes now, and a later probe rebuilds the index it binds.
    /// Contents, row order, slot cursors and registered keys are untouched.
    pub fn forget_indexes(&mut self) {
        for (_, rel) in &mut self.store {
            rel.forget_indexes();
        }
    }

    /// Apply a *fully resolved* multi-mapping null substitution in one
    /// surgical pass: `map` sends each mapped label directly to its final
    /// value (no chains — the caller collapses them once, e.g. with the
    /// chase's `NullMap::flatten`). Only the rows that actually mention a
    /// mapped null are rewritten instead of rebuilding whole relations;
    /// tuples that become equal after substitution merge, leaving
    /// tombstones that compaction reclaims.
    ///
    /// This is the entry point of sweep-level egd batching: the chase
    /// accumulates a whole sweep's equality obligations in its union-find
    /// and applies them to the instance in one combined pass. Returns the
    /// names of the relations that changed (sorted): a rewritten relation's
    /// slots may have been renumbered, so whoever holds a slot cursor into
    /// it must start over.
    pub fn substitute_nulls_batch(&mut self, map: &HashMap<NullId, Value>) -> Vec<Arc<str>> {
        if map.is_empty() {
            return Vec::new();
        }
        let mut changed = Vec::new();
        for idx in 0..self.store.len() {
            if self.store[idx].1.substitute_with(map) {
                changed.push(self.store[idx].0.clone());
            }
        }
        changed.sort();
        changed
    }

    /// Apply a null substitution everywhere. Tuples that become equal after
    /// substitution are merged. Returns the names of the relations that
    /// were rewritten.
    ///
    /// This is the instance-level half of egd enforcement: the chase decides
    /// which labels map to which values (union-find in `grom-chase`) and
    /// calls this to normalize the instance. The lookup is memoized per
    /// label and the rewrite delegates to the surgical
    /// [`Instance::substitute_nulls_batch`] machinery, so unaffected rows
    /// are never touched.
    pub fn substitute_nulls(
        &mut self,
        mut lookup: impl FnMut(NullId) -> Option<Value>,
    ) -> Vec<Arc<str>> {
        // Resolve the closure into a flat map over the labels that actually
        // occur, memoizing so each label is looked up once.
        let mut map: HashMap<NullId, Value> = HashMap::new();
        let mut misses: std::collections::HashSet<NullId> = Default::default();
        for (_, rel) in &self.store {
            for t in rel.iter() {
                for n in t.nulls() {
                    if map.contains_key(&n) || misses.contains(&n) {
                        continue;
                    }
                    match lookup(n) {
                        Some(v) => {
                            map.insert(n, v);
                        }
                        None => {
                            misses.insert(n);
                        }
                    }
                }
            }
        }
        self.substitute_nulls_batch(&map)
    }
}

impl Instance {
    /// Every stored fact, relations sorted by name and rows in insertion
    /// order, written as `Name(v1, v2, …)` + `end` into a line buffer that
    /// is handed to `emit` once per fact and reused.
    pub(crate) fn render_lines(
        &self,
        end: &str,
        mut emit: impl FnMut(&str) -> fmt::Result,
    ) -> fmt::Result {
        let mut line = String::new();
        for (name, &id) in &self.names {
            for t in self.store[id.0 as usize].1.iter() {
                line.clear();
                line.push_str(name);
                t.render(&mut line)?;
                line.push_str(end);
                emit(&line)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render_lines("\n", |line| f.write_str(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut inst = Instance::new();
        assert!(inst.add("R", vec![v(1), v(2)]).unwrap());
        assert!(!inst.add("R", vec![v(1), v(2)]).unwrap());
        assert!(inst.add("R", vec![v(1), v(3)]).unwrap());
        assert_eq!(inst.len(), 2);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(1), v(2)])));
        assert!(!inst.contains_fact("R", &Tuple::new(vec![v(9), v(9)])));
        assert!(!inst.contains_fact("S", &Tuple::new(vec![v(1)])));
    }

    #[test]
    fn rel_ids_are_dense_and_stable() {
        let mut inst = Instance::new();
        inst.add("B", vec![v(1)]).unwrap();
        inst.add("A", vec![v(2)]).unwrap();
        let a = inst.rel_id("A").unwrap();
        let b = inst.rel_id("B").unwrap();
        assert_eq!(b, RelId(0)); // first-insert order, not name order
        assert_eq!(a, RelId(1));
        assert!(inst.rel_id("C").is_none());
        assert_eq!(inst.rel_name(a).as_ref(), "A");
        assert_eq!(inst.relation_by_id(b).len(), 1);
        // Ids survive null substitution.
        inst.add("B", vec![Value::null(0)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(9)));
        assert_eq!(inst.rel_id("B"), Some(b));
        assert_eq!(inst.relation_by_id(b).len(), 2);
    }

    #[test]
    fn arity_is_fixed_by_first_insert() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), v(2)]).unwrap();
        let err = inst.add("R", vec![v(1)]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn scan_uses_pattern() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i % 3), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let hits = rel.scan(&[Some(v(1)), None]);
        assert_eq!(hits.len(), 3); // i = 1, 4, 7
        for t in hits {
            assert_eq!(t.get(0), Some(&v(1)));
        }
        let exact = rel.scan(&[Some(v(2)), Some(v(5))]);
        assert_eq!(exact.len(), 1);
        let none = rel.scan(&[Some(v(7)), None]);
        assert!(none.is_empty());
        let all = rel.scan(&[None, None]);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn scan_each_stops_early() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let mut seen = 0;
        let completed = rel.scan_each(&[None], &mut |_| {
            seen += 1;
            seen < 3
        });
        assert!(!completed);
        assert_eq!(seen, 3);
    }

    #[test]
    fn composite_keys_index_bound_patterns() {
        let mut inst = Instance::new();
        inst.register_key("R", &[0, 1]);
        for i in 0..100 {
            inst.add("R", vec![v(i % 5), v(i % 7), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        assert!(rel.key_specs().any(|k| k == [0, 1]));
        // The composite bucket is far smaller than either column bucket.
        let pattern = [Some(v(2)), Some(v(3)), None];
        let est = rel.estimate(&pattern);
        assert!(est <= 3, "composite estimate {est} should be tight");
        let hits = rel.scan(&pattern);
        assert!(hits
            .iter()
            .all(|t| t.get(0) == Some(&v(2)) && t.get(1) == Some(&v(3))));
        // Equivalence with a linear scan.
        let linear: Vec<&Tuple> = rel
            .iter()
            .filter(|t| t.get(0) == Some(&v(2)) && t.get(1) == Some(&v(3)))
            .collect();
        assert_eq!(hits, linear);
    }

    #[test]
    fn keys_registered_late_backfill() {
        let mut inst = Instance::new();
        for i in 0..30 {
            inst.add("R", vec![v(i % 2), v(i % 3), v(i)]).unwrap();
        }
        inst.register_key("R", &[0, 1]);
        let rel = inst.relation("R").unwrap();
        let hits = rel.scan(&[Some(v(1)), Some(v(2)), None]);
        let linear: Vec<&Tuple> = rel
            .iter()
            .filter(|t| t.get(0) == Some(&v(1)) && t.get(1) == Some(&v(2)))
            .collect();
        assert_eq!(hits, linear);
        assert_eq!(hits.len(), 5);
        // The composite bucket is exact; each column alone holds 10 or 15.
        assert_eq!(rel.estimate(&[Some(v(1)), Some(v(2)), None]), 5);
    }

    #[test]
    fn degenerate_key_specs_ignored() {
        let mut inst = Instance::new();
        inst.register_key("R", &[1, 1]); // dedups to one column: ignored
        inst.register_key("R", &[0, 5]); // out of range once arity known
        inst.register_key("R", &[0, 1]); // every column: the membership table
        inst.add("R", vec![v(1), v(2)]).unwrap();
        inst.register_key("R", &[1, 0]); // the same, arity known
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.key_specs().count(), 0);
        assert!(rel.any_match(&[Some(v(1)), Some(v(2))]));
    }

    /// The (column positions, entries) of the indexes `rel` holds.
    fn built(inst: &Instance, rel: &str) -> Vec<(Vec<usize>, usize)> {
        let report = inst.storage_report();
        let row = report.iter().find(|r| r.relation.as_ref() == rel).unwrap();
        row.indexes.clone()
    }

    #[test]
    fn fully_bound_probes_answer_from_the_membership_table() {
        let mut inst = Instance::new();
        inst.register_key("R", &[0, 1]);
        for i in 0..6 {
            inst.add("R", vec![v(i % 2), v(i), v(-i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let hit = [Some(v(1)), Some(v(3)), Some(v(-3))]; // slot 3
        let miss = [Some(v(1)), Some(v(3)), Some(v(3))];
        for (span, expect) in [
            (Span::All, true),
            (Span::Below(3), false),
            (Span::Below(4), true),
            (Span::AtLeast(3), true),
            (Span::AtLeast(4), false),
        ] {
            let mut seen = Vec::new();
            assert!(rel.scan_each_v(&hit, span, &mut |t| {
                seen.push(t.clone());
                true
            }));
            let want: Vec<Tuple> = expect
                .then(|| Tuple::new(vec![v(1), v(3), v(-3)]))
                .into_iter()
                .collect();
            assert_eq!(seen, want, "{span:?}");
            assert_eq!(rel.estimate_v(&hit, span), usize::from(expect), "{span:?}");
            assert_eq!(rel.estimate_v(&miss, span), 0);
            assert!(rel.scan_each_v(&miss, span, &mut |_| panic!("no such row")));
        }
        assert!(rel.any_match(&hit));
        assert!(!rel.any_match(&miss));
        // An early stop is reported like any other scan's.
        assert!(!rel.scan_each(&hit, &mut |_| false));
        // None of that built an index; the first partly bound probe builds
        // exactly the ones it binds.
        assert_eq!(built(&inst, "R"), vec![]);
        assert_eq!(rel.scan(&[Some(v(1)), None, None]).len(), 3);
        assert_eq!(built(&inst, "R"), vec![(vec![0], 6)]);
        assert_eq!(rel.scan(&[Some(v(1)), Some(v(3)), None]).len(), 1);
        assert_eq!(
            built(&inst, "R"),
            vec![(vec![0], 6), (vec![1], 6), (vec![0, 1], 6)]
        );
    }

    #[test]
    fn index_gauge_counts_a_list_only_from_a_keys_second_row() {
        #[cfg(target_pointer_width = "64")]
        assert_eq!(size_of::<(u64, Bucket)>(), 32);
        let entry = size_of::<(u64, Bucket)>();
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i), v(i % 2)]).unwrap();
        }
        let bytes = |inst: &Instance| inst.storage_report()[0].approx_bytes;
        let cold = bytes(&inst);
        let rel = inst.relation("R").unwrap();
        // Column 0: ten keys of one row each, held inline.
        assert_eq!(rel.scan(&[Some(v(3)), None]).len(), 1);
        assert_eq!(bytes(&inst) - cold, 10 * entry);
        // Column 1: two keys of five rows each, held in lists.
        assert_eq!(rel.scan(&[None, Some(v(1))]).len(), 5);
        assert_eq!(bytes(&inst) - cold, 12 * entry + 10 * size_of::<u32>());
        assert_eq!(built(&inst, "R"), vec![(vec![0], 10), (vec![1], 10)]);
    }

    #[test]
    fn built_indexes_follow_inserts_substitution_and_compaction() {
        let mut inst = Instance::new();
        for i in 0..100u64 {
            inst.add("R", vec![Value::null(i), v(0)]).unwrap();
        }
        let probe = |inst: &Instance| inst.relation("R").unwrap().scan(&[None, Some(v(0))]).len();
        assert_eq!(probe(&inst), 100); // builds column 1 only
        inst.add("R", vec![v(7), v(0)]).unwrap();
        assert_eq!(probe(&inst), 101);
        // Fold every null onto one constant: 100 tombstones, one survivor
        // beside (7, 0) — more tombstones than live rows, so the relation compacts.
        let map: HashMap<NullId, Value> = (0..100).map(|i| (NullId(i), v(8))).collect();
        inst.substitute_nulls_batch(&map);
        assert_eq!(probe(&inst), 2);
        let report = inst.storage_report();
        assert_eq!(report[0].live_rows, 2);
        assert_eq!(report[0].tombstones, 0);
        // The probed column's index was rebuilt without stale entries; the
        // unprobed one still does not exist.
        assert_eq!(report[0].indexes, vec![(vec![1], 2)]);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(8), v(0)])));
        assert!(!inst.contains_fact("R", &Tuple::new(vec![Value::null(3), v(0)])));
    }

    #[test]
    fn any_match_agrees_with_scan() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), v(2)]).unwrap();
        let rel = inst.relation("R").unwrap();
        assert!(rel.any_match(&[Some(v(1)), None]));
        assert!(!rel.any_match(&[Some(v(2)), None]));
        assert!(rel.any_match(&[None, None]));
    }

    #[test]
    fn facts_iteration_is_deterministic() {
        let mut inst = Instance::new();
        inst.add("B", vec![v(1)]).unwrap();
        inst.add("A", vec![v(2)]).unwrap();
        inst.add("A", vec![v(1)]).unwrap();
        let facts: Vec<String> = inst.facts().map(|f| f.to_string()).collect();
        assert_eq!(facts, vec!["A(2)", "A(1)", "B(1)"]);
    }

    #[test]
    fn union_and_absorb() {
        let mut a = Instance::new();
        a.add("R", vec![v(1)]).unwrap();
        let mut b = Instance::new();
        b.add("R", vec![v(1)]).unwrap();
        b.add("S", vec![v(2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn substitute_nulls_merges_tuples() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.add("R", vec![v(1), v(5)]).unwrap();
        inst.add("S", vec![Value::null(7)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(1)));
        // N0 := 1 makes the two R-tuples collide; they must merge.
        assert_eq!(inst.relation("R").unwrap().len(), 1);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(1), v(5)])));
        // S untouched.
        assert!(inst.contains_fact("S", &Tuple::new(vec![Value::null(7)])));
    }

    #[test]
    fn substitute_nulls_rebuilds_indexes() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(3)));
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.scan(&[Some(v(3)), None]).len(), 1);
        assert!(rel.scan(&[Some(Value::null(0)), None]).is_empty());
    }

    #[test]
    fn substitution_is_surgical_and_compaction_reclaims() {
        let mut inst = Instance::new();
        // 200 null-free rows that must never be touched, plus 100 null rows.
        for i in 0..200 {
            inst.add("R", vec![v(i), v(-1)]).unwrap();
        }
        for i in 0..100 {
            inst.add("R", vec![Value::null(i), v(-2)]).unwrap();
        }
        let map: HashMap<NullId, Value> =
            (0..100).map(|i| (NullId(i), v(i as i64 + 1000))).collect();
        let changed = inst.substitute_nulls_batch(&map);
        assert_eq!(changed.len(), 1);
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.len(), 300);
        for i in 0..100 {
            assert!(inst.contains_fact("R", &Tuple::new(vec![v(i + 1000), v(-2)])));
        }
        // A second, merging substitution drives every rewritten row into an
        // existing one; repeated rounds force compaction and scans stay
        // correct throughout.
        let mut inst2 = Instance::new();
        for round in 0..5u64 {
            for i in 0..50u64 {
                inst2
                    .add("S", vec![Value::null(round * 50 + i), v(i as i64)])
                    .unwrap();
            }
            let map: HashMap<NullId, Value> =
                (0..50u64).map(|i| (NullId(round * 50 + i), v(7))).collect();
            inst2.substitute_nulls_batch(&map);
            // All 50 rows collapse to (7, i) per distinct second column.
            assert_eq!(inst2.relation("S").unwrap().len(), 50);
        }
        let rel = inst2.relation("S").unwrap();
        assert_eq!(rel.scan(&[Some(v(7)), None]).len(), 50);
        assert_eq!(rel.scan(&[Some(v(7)), Some(v(3))]).len(), 1);
        assert_eq!(rel.iter().count(), 50);
    }

    #[test]
    fn substitute_nulls_batch_applies_flat_map_once() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), Value::null(2)]).unwrap();
        inst.add("S", vec![Value::null(1)]).unwrap();
        // A flat (pre-resolved) multi-mapping: N0 and N1 in one pass.
        let map: HashMap<NullId, Value> =
            [(NullId(0), v(7)), (NullId(1), v(8))].into_iter().collect();
        let changed = inst.substitute_nulls_batch(&map);
        assert_eq!(changed.len(), 2);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(7), Value::null(2)])));
        assert!(inst.contains_fact("S", &Tuple::new(vec![v(8)])));
        // An empty map is a no-op and reports no changes.
        assert!(inst.substitute_nulls_batch(&HashMap::new()).is_empty());
    }

    #[test]
    fn max_null_label() {
        let mut inst = Instance::new();
        assert_eq!(inst.max_null_label(), None);
        inst.add("R", vec![Value::null(3), Value::null(11)])
            .unwrap();
        assert_eq!(inst.max_null_label(), Some(11));
    }

    #[test]
    fn intern_and_unintern_round_trip() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::str("a"), v(1), v(0)]).unwrap();
        inst.add("R", vec![Value::str("b"), v(2), v(0)]).unwrap();
        inst.add("S", vec![Value::str("a"), Value::null(3)])
            .unwrap();
        inst.register_key("R", &[0, 1]);
        let mut table = SymbolTable::new();
        let interned = inst.intern_strings(&mut table);
        assert_eq!(table.len(), 2); // "a", "b"
        assert_eq!(interned.len(), inst.len());
        // Every Str became a Sym; nulls and ints untouched.
        for f in interned.facts() {
            assert!(f.tuple.values().iter().all(|v| !matches!(v, Value::Str(_))));
        }
        // Key registrations carry over.
        assert!(interned
            .relation("R")
            .unwrap()
            .key_specs()
            .any(|k| k == [0, 1]));
        // Sym-keyed scans work like Str-keyed scans did.
        let sym_a = Value::Sym(table.get("a").unwrap());
        assert_eq!(
            interned
                .relation("R")
                .unwrap()
                .scan(&[Some(sym_a), None, None])
                .len(),
            1
        );
        // Round trip restores plain strings, byte for byte.
        let mut back = interned.clone();
        back.unintern();
        assert_eq!(back.to_string(), inst.to_string());
        for f in back.facts() {
            assert!(f.tuple.values().iter().all(|v| !matches!(v, Value::Sym(_))));
        }
        assert_eq!(
            crate::io::canonical_render(&interned),
            crate::io::canonical_render(&inst)
        );
    }

    #[test]
    fn substitution_reports_changed_relations() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.add("S", vec![v(1)]).unwrap();
        let changed = inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(3)));
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].as_ref(), "R");
        // A no-op substitution changes no relation.
        assert!(inst.substitute_nulls(|_| None).is_empty());
    }

    #[test]
    fn from_facts_roundtrip() {
        let facts = vec![
            Fact::new("R", vec![v(1), v(2)]),
            Fact::new("R", vec![v(1), v(2)]),
        ];
        let inst = Instance::from_facts(facts).unwrap();
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn cursor_before_last_splits_trailing_rows() {
        let mut inst = Instance::new();
        for i in 0..5 {
            inst.add("R", vec![v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.cursor_before_last(0), rel.frontier());
        assert_eq!(rel.cursor_before_last(2), 3);
        assert_eq!(rel.cursor_before_last(5), 0);
        assert_eq!(rel.cursor_before_last(99), 0);
        // Span::AtLeast of the cursor covers exactly the trailing n rows.
        let c = rel.cursor_before_last(2);
        let mut newer = Vec::new();
        rel.scan_each_v(&[None], Span::AtLeast(c), &mut |t| {
            newer.push(t.clone());
            true
        });
        assert_eq!(newer, vec![Tuple::new(vec![v(3)]), Tuple::new(vec![v(4)])]);
    }

    #[test]
    fn cursor_before_last_counts_live_rows_across_tombstones() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0)]).unwrap(); // slot 0, tombstoned
        inst.add("R", vec![v(10)]).unwrap(); // slot 1
        inst.add("R", vec![v(20)]).unwrap(); // slot 2

        // Substitution tombstones slot 0 and re-appends the rewrite at slot 3.
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(30)));
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.len(), 3);
        // The trailing 2 live rows are slots 2 and 3; the cursor must skip
        // the tombstone at slot 0 when counting backward.
        let c = rel.cursor_before_last(2);
        assert_eq!(c, 2);
        let mut older = Vec::new();
        rel.scan_each_v(&[None], Span::Below(c), &mut |t| {
            older.push(t.clone());
            true
        });
        assert_eq!(older, vec![Tuple::new(vec![v(10)])]);
    }

    #[test]
    fn versioned_scan_partitions_bucket_and_full_paths() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i % 3), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let c = rel.cursor_before_last(4); // new half: i = 6..10
        for pattern in [&[Some(v(0)), None][..], &[None, None][..]] {
            let mut old = Vec::new();
            rel.scan_each_v(pattern, Span::Below(c), &mut |t| {
                old.push(t.clone());
                true
            });
            let mut new = Vec::new();
            rel.scan_each_v(pattern, Span::AtLeast(c), &mut |t| {
                new.push(t.clone());
                true
            });
            // The halves are disjoint and their union is the full scan.
            let mut all = Vec::new();
            rel.scan_each_v(pattern, Span::All, &mut |t| {
                all.push(t.clone());
                true
            });
            let mut union = old.clone();
            union.extend(new.iter().cloned());
            assert_eq!(union, all);
            assert!(new.iter().all(|t| t.get(1).is_some_and(|x| *x >= v(6))));
            assert!(old.iter().all(|t| t.get(1).is_some_and(|x| *x < v(6))));
        }
    }

    #[test]
    fn versioned_estimate_never_undercounts() {
        let mut inst = Instance::new();
        for i in 0..12 {
            inst.add("R", vec![v(i % 4), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let c = rel.cursor_before_last(5);
        for pattern in [&[Some(v(1)), None][..], &[None, None][..]] {
            for span in [Span::All, Span::Below(c), Span::AtLeast(c)] {
                let mut count = 0usize;
                rel.scan_each_v(pattern, span, &mut |_| {
                    count += 1;
                    true
                });
                assert!(
                    rel.estimate_v(pattern, span) >= count,
                    "estimate under span {span:?} undercounts"
                );
            }
        }
        assert_eq!(rel.estimate_v(&[None, None], Span::AtLeast(c)), 5);
        assert_eq!(rel.estimate_v(&[None, None], Span::Below(c)), 7);
    }
}
