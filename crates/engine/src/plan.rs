//! Compiled evaluation plans: a literal list is planned **once**, then run
//! any number of times.
//!
//! A chase evaluates a fixed program thousands of times, view
//! materialization and validation evaluate fixed rule bodies; none of them
//! should pay for planning per recursion node. Compilation numbers the
//! variables into a **register file** (`Vec<Option<Value>>`, no
//! [`Bindings`] on the hot path), turns every atom argument into a constant
//! or a register slot, fixes the join orders, and schedules each comparison
//! and negation on the earliest step of each order after which its
//! registers are bound.
//!
//! ## What is compiled, what is decided at run time
//!
//! A body with positive atoms `a_1 … a_n` compiles to those atoms, its
//! filters, and for every atom that may run first (a *head*) one static
//! order of the remaining atoms per possible second atom (its *tails*),
//! each step carrying the filters that become ready there. An atom's
//! bound/free column mask at a step is its scan pattern: filled once per
//! scan from the registers (one reusable buffer per join depth), then every
//! tuple of the scan is matched against it — bound columns checked, free
//! ones bound, a repeated free variable compared. So the atom is stored
//! once whatever the order, and compilation stays proportional to the
//! dependency's size (`n(n-1)` orders of `n-1` atom indexes, no per-order
//! copy of any atom) — a chase over thousands of dependencies on a small
//! instance is dominated by set-up.
//!
//! Two choices are left to run time, because only there a cardinality can
//! change the cost of the answer:
//!
//! * the **first atom of a full scan**: the atom with the smallest index
//!   estimate under the registers bound on entry;
//! * the **first atom after the head**, per head tuple: the tail whose first
//!   atom has the smallest estimate under the registers just bound.
//!
//! Everything deeper is static (most-bound atom first). Both choices break
//! ties towards body order and prefer an atom with every column bound (a
//! pure existence probe) without estimating; scans stream in insertion
//! order, so enumeration is deterministic. A delta-seeded run uses the same
//! heads as *anchors*: the head walks only the rows its relation gained
//! since a cursor ([`Ver::New`]), and atoms that precede the anchor in the
//! body read only the rows before it ([`Ver::Old`]) — each match is
//! enumerated exactly once across anchors.
//!
//! ## What is resolved per activation
//!
//! Plans are database-independent and `Sync`: they name relations, they do
//! not hold [`DbRel`] tokens. Tokens are resolved into the caller's
//! [`Scratch`] when an evaluation starts (once per activation, never per
//! node), so a relation that was absent at compile time and created
//! mid-chase is seen by the next activation. Repair loops, which insert
//! between two checks of the same activation, re-resolve only when
//! [`Db::rel_count`] moved.
//!
//! A [`Bindings`] is built only where a match leaves the engine:
//! [`DepPlan::bindings`] for violation witnesses and error text,
//! [`BodyPlan::bindings`] for the public [`crate::evaluate_body`].

use std::sync::Arc;

use grom_data::{Tuple, Value};
use grom_lang::{Atom, Bindings, CmpOp, Comparison, Dependency, Literal, Term, Var};

use crate::db::{Control, Db, DbRel, Ver};

/// The register file and the per-run buffers of plan execution. One scratch
/// serves any number of plans and databases, one evaluation at a time; it
/// only ever grows.
#[derive(Debug, Default)]
pub struct Scratch {
    regs: Vec<Option<Value>>,
    /// One reusable scan pattern per join depth.
    patterns: Vec<Vec<Option<Value>>>,
    /// The pattern of the negation being checked.
    neg: Vec<Option<Value>>,
    /// The running plan's relations, resolved against the current database.
    rels: Vec<Option<DbRel>>,
    /// [`Db::rel_count`] when `rels` was resolved.
    rel_count: usize,
    /// Per relation of the running plan: the cursor a delta run versions it
    /// at — rows from it on are new.
    old: Vec<Option<u64>>,
    /// Body position of the atom a delta run is anchored at (0 otherwise:
    /// no atom precedes it).
    anchor: usize,
    /// The fresh nulls of the repair being applied, one per existential
    /// variable. Owned here so a repair allocates nothing for them.
    fresh: Vec<Option<Value>>,
}

impl Scratch {
    /// The register file.
    pub fn regs(&self) -> &[Option<Value>] {
        &self.regs
    }

    /// The register file, for loading a match back in (see [`Matches`]).
    pub fn regs_mut(&mut self) -> &mut [Option<Value>] {
        &mut self.regs
    }

    /// The register file, and `n` empty slots for the fresh nulls of the
    /// repair about to be built from it ([`Cell::Fresh`]).
    pub fn repair(&mut self, n: usize) -> (&[Option<Value>], &mut [Option<Value>]) {
        self.fresh.clear();
        self.fresh.resize(n, None);
        (&self.regs, &mut self.fresh)
    }
}

/// A term compiled against a register file.
#[derive(Debug, Clone)]
pub enum Slot {
    Const(Value),
    Reg(usize),
}

impl Slot {
    /// The slot's value; `None` for a register nothing has bound.
    pub fn eval<'v>(&'v self, regs: &'v [Option<Value>]) -> Option<&'v Value> {
        match self {
            Slot::Const(c) => Some(c),
            Slot::Reg(r) => regs[*r].as_ref(),
        }
    }
}

/// A comparison on slots. An unbound side never holds.
#[derive(Debug, Clone)]
pub struct Cmp {
    op: CmpOp,
    lhs: Slot,
    rhs: Slot,
}

impl Cmp {
    pub fn holds(&self, regs: &[Option<Value>]) -> bool {
        match (self.lhs.eval(regs), self.rhs.eval(regs)) {
            (Some(l), Some(r)) => self.op.eval(l, r),
            _ => false,
        }
    }
}

/// One argument of a positive atom.
#[derive(Debug, Clone)]
enum Arg {
    /// Boxed: a chase run holds one plan per dependency, and most
    /// arguments are variables.
    Const(Box<Value>),
    /// `repeat`: an earlier argument of the same atom is the same variable.
    Var { reg: usize, repeat: bool },
}

#[derive(Debug, Clone)]
enum Filter {
    Cmp(Cmp),
    /// `None` arguments are negation-local variables: wildcards, except
    /// that the columns of one repeated local variable must agree (`same`:
    /// column, and the column of the variable's first occurrence).
    Neg {
        rel: usize,
        args: Vec<Option<Slot>>,
        same: Vec<(usize, usize)>,
    },
}

impl Filter {
    /// Can the filter run once the `known` registers are bound?
    fn ready(&self, known: &[bool]) -> bool {
        let bound = |slot: &Slot| match slot {
            Slot::Const(_) => true,
            Slot::Reg(r) => known[*r],
        };
        match self {
            Filter::Cmp(c) => bound(&c.lhs) && bound(&c.rhs),
            Filter::Neg { args, .. } => args.iter().flatten().all(bound),
        }
    }

    fn holds<D: Db>(&self, db: &D, s: &mut Scratch) -> bool {
        match self {
            Filter::Cmp(c) => c.holds(&s.regs),
            Filter::Neg { rel, args, same } => {
                // An absent relation is empty, so the negation holds.
                let Some(rel) = s.rels[*rel] else {
                    return true;
                };
                let mut pattern = std::mem::take(&mut s.neg);
                pattern.clear();
                pattern.extend(
                    args.iter()
                        .map(|a| a.as_ref().and_then(|slot| slot.eval(&s.regs).cloned())),
                );
                let mut found = false;
                if same.is_empty() {
                    found = db.any_match_rel(rel, &pattern);
                } else {
                    db.scan_rel_v(rel, &pattern, Ver::All, &mut |t| {
                        found = same.iter().all(|&(a, b)| t.get(a) == t.get(b));
                        if found {
                            Control::Stop
                        } else {
                            Control::Continue
                        }
                    });
                }
                s.neg = pattern;
                !found
            }
        }
    }
}

/// One positive atom. Its bound/free column mask at a point of a join
/// order is its scan pattern there: a column is bound where the pattern
/// holds a value (a constant, or a register an earlier step bound), free
/// where it holds `None`. The pattern is filled once per scan and every
/// tuple of the scan is matched against it, so the atom itself is the same
/// in every order.
#[derive(Debug, Clone)]
struct AtomPlan {
    /// Position of the atom in the body.
    pos: usize,
    rel: usize,
    args: Box<[Arg]>,
}

impl AtomPlan {
    fn fill(&self, regs: &[Option<Value>], pattern: &mut Vec<Option<Value>>) {
        pattern.clear();
        pattern.extend(self.args.iter().map(|a| match a {
            Arg::Const(c) => Some(Value::clone(c)),
            Arg::Var { reg, .. } => regs[*reg].clone(),
        }));
    }

    /// Match `tuple` against the atom under `pattern`, binding the free
    /// registers. Bound columns are re-checked and a constant is compared
    /// even where the pattern leaves its column free, so this also filters
    /// the rows of an anchor walk, which scans with nothing bound. A tuple
    /// of another arity matches nothing. On `false` the registers of free columns
    /// may hold leftovers; nothing reads them before the next tuple rebinds
    /// them or [`AtomPlan::unbind`] clears them.
    fn bind(&self, pattern: &[Option<Value>], tuple: &Tuple, regs: &mut [Option<Value>]) -> bool {
        if tuple.arity() != self.args.len() {
            return false;
        }
        for ((arg, slot), v) in self.args.iter().zip(pattern).zip(tuple.values()) {
            let ok = match (slot, arg) {
                (Some(bound), _) => bound == v,
                (None, Arg::Var { reg, repeat: true }) => regs[*reg].as_ref() == Some(v),
                (None, Arg::Var { reg, .. }) => {
                    regs[*reg] = Some(v.clone());
                    true
                }
                (None, Arg::Const(c)) => **c == *v,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    fn unbind(&self, pattern: &[Option<Value>], regs: &mut [Option<Value>]) {
        for (arg, slot) in self.args.iter().zip(pattern) {
            if let (None, Arg::Var { reg, .. }) = (slot, arg) {
                regs[*reg] = None;
            }
        }
    }

    /// Under a delta run, atoms that precede the anchor in the body read
    /// only the old half of a delta relation.
    fn ver(&self, s: &Scratch) -> Ver {
        match s.old[self.rel] {
            Some(cursor) if self.pos < s.anchor => Ver::Old(cursor),
            _ => Ver::All,
        }
    }
}

/// One static order of the atoms that follow a head: atom index, and the
/// filters that become ready once that atom has bound.
type Order = Box<[(usize, Box<[usize]>)]>;

/// What follows an atom that runs first: the filters ready after it alone,
/// and one [`Order`] of the remaining atoms per possible second atom (none
/// when the atom is the whole body).
#[derive(Debug, Clone)]
struct Head {
    ready: Box<[usize]>,
    tails: Box<[Order]>,
}

/// A planned conjunction over an externally owned symbol table.
#[derive(Debug, Clone)]
struct Join {
    /// The positive atoms, in body order.
    atoms: Box<[AtomPlan]>,
    filters: Box<[Filter]>,
    /// Filters over constants and entry-bound registers only.
    pre: Box<[usize]>,
    /// `heads[i]` continues after `atoms[i]` ran first.
    heads: Box<[Head]>,
    /// A comparison mentions a variable no positive atom binds: it can
    /// never run, and the conjunction has no solution.
    never: bool,
    /// Pattern buffer of the first step; later steps use the following ones.
    base: usize,
}

/// The variables and relation names of everything compiled together, and
/// how many pattern buffers a run needs.
#[derive(Debug)]
struct Symbols {
    vars: Vec<Var>,
    rels: Vec<Arc<str>>,
    bufs: usize,
}

impl Symbols {
    fn new() -> Symbols {
        Symbols {
            vars: Vec::with_capacity(8),
            rels: Vec::with_capacity(4),
            bufs: 0,
        }
    }

    fn reg(&mut self, var: &Var) -> usize {
        self.vars.iter().position(|v| v == var).unwrap_or_else(|| {
            self.vars.push(var.clone());
            self.vars.len() - 1
        })
    }

    fn rel(&mut self, name: &Arc<str>) -> usize {
        self.rels.iter().position(|r| r == name).unwrap_or_else(|| {
            self.rels.push(name.clone());
            self.rels.len() - 1
        })
    }

    fn slot(&mut self, term: &Term) -> Slot {
        match term {
            Term::Const(c) => Slot::Const(c.clone()),
            Term::Var(v) => Slot::Reg(self.reg(v)),
        }
    }

    fn cmp(&mut self, c: &Comparison) -> Cmp {
        Cmp {
            op: c.op,
            lhs: self.slot(&c.lhs),
            rhs: self.slot(&c.rhs),
        }
    }

    /// The register names, and what a run needs of these symbols.
    fn finish(self) -> (Vec<Var>, Frame) {
        let frame = Frame {
            rels: self.rels.into_boxed_slice(),
            regs: self.vars.len(),
            bufs: self.bufs,
        };
        (self.vars, frame)
    }
}

/// What a run needs to know of a compiled unit besides its joins: the
/// relation names to resolve, and how large a scratch it uses.
#[derive(Debug, Clone)]
struct Frame {
    rels: Box<[Arc<str>]>,
    regs: usize,
    bufs: usize,
}

impl Frame {
    /// Size `s` for this unit and resolve its relations against `db`.
    /// Called when an evaluation starts: once per activation.
    fn prepare<D: Db>(&self, db: &D, s: &mut Scratch) {
        s.regs.clear();
        s.regs.resize(self.regs, None);
        if s.patterns.len() < self.bufs {
            s.patterns.resize_with(self.bufs, Vec::new);
        }
        self.resolve(db, s);
    }

    fn resolve<D: Db>(&self, db: &D, s: &mut Scratch) {
        s.rels.clear();
        s.rels.extend(self.rels.iter().map(|name| db.resolve(name)));
        s.rel_count = db.rel_count();
        s.old.clear();
        s.old.resize(self.rels.len(), None);
        s.anchor = 0;
    }
}

/// A literal by reference, so premises (`&[Literal]`) and conclusion atom
/// lists (`&[Atom]`) compile through the same door.
#[derive(Clone, Copy)]
enum Lit<'a> {
    Pos(&'a Atom),
    Neg(&'a Atom),
    Cmp(&'a Comparison),
}

impl<'a> From<&'a Literal> for Lit<'a> {
    fn from(l: &'a Literal) -> Self {
        match l {
            Literal::Pos(a) => Lit::Pos(a),
            Literal::Neg(a) => Lit::Neg(a),
            Literal::Cmp(c) => Lit::Cmp(c),
        }
    }
}

impl Join {
    /// Plan `body` over `sym`. Registers `0..bound` hold values on entry
    /// (seed bindings, or the premise match an embedding extends); pattern
    /// buffers are taken from `base` up.
    fn compile<'a>(
        sym: &mut Symbols,
        body: impl Iterator<Item = Lit<'a>> + Clone,
        bound: usize,
        base: usize,
    ) -> Join {
        let positive = body.clone().filter(|l| matches!(l, Lit::Pos(_))).count();
        let mut atoms: Vec<AtomPlan> = Vec::with_capacity(positive);
        for (pos, lit) in body.clone().enumerate() {
            if let Lit::Pos(a) = lit {
                let mut args: Vec<Arg> = Vec::with_capacity(a.args.len());
                for term in &a.args {
                    let arg = match sym.slot(term) {
                        Slot::Const(c) => Arg::Const(Box::new(c)),
                        Slot::Reg(reg) => {
                            let same = |x: &Arg| matches!(x, Arg::Var { reg: r, .. } if *r == reg);
                            Arg::Var {
                                reg,
                                repeat: args.iter().any(same),
                            }
                        }
                    };
                    args.push(arg);
                }
                let rel = sym.rel(&a.predicate);
                let args = args.into_boxed_slice();
                atoms.push(AtomPlan { pos, rel, args });
            }
        }

        // Filters. Variables of a negated atom that nothing can bind are
        // wildcards; a comparison over such a variable is unsafe and can
        // never run.
        let mut filters = Vec::with_capacity(body.clone().count() - positive);
        let mut never = false;
        if filters.capacity() > 0 {
            let mut bindable = vec![false; sym.vars.len()];
            bindable[..bound].fill(true);
            for arg in atoms.iter().flat_map(|a| &a.args) {
                if let Arg::Var { reg, .. } = arg {
                    bindable[*reg] = true;
                }
            }
            let is_bindable = |r: usize| bindable.get(r).copied().unwrap_or(false);
            for lit in body {
                match lit {
                    Lit::Pos(_) => {}
                    Lit::Cmp(c) => {
                        let cmp = sym.cmp(c);
                        never |= [&cmp.lhs, &cmp.rhs]
                            .iter()
                            .any(|s| matches!(s, Slot::Reg(r) if !is_bindable(*r)));
                        filters.push(Filter::Cmp(cmp));
                    }
                    Lit::Neg(a) => {
                        let mut locals: Vec<(usize, usize)> = Vec::new(); // (register, column)
                        let mut same = Vec::new();
                        let args = a
                            .args
                            .iter()
                            .enumerate()
                            .map(|(col, t)| match sym.slot(t) {
                                Slot::Reg(r) if !is_bindable(r) => {
                                    match locals.iter().find(|(local, _)| *local == r) {
                                        Some(&(_, first)) => same.push((col, first)),
                                        None => locals.push((r, col)),
                                    }
                                    None
                                }
                                slot => Some(slot),
                            })
                            .collect();
                        let rel = sym.rel(&a.predicate);
                        filters.push(Filter::Neg { rel, args, same });
                    }
                }
            }
        }

        // Simulate every order the plan may run: `known` are the registers
        // bound so far, `attached` the filters already scheduled. A filter
        // attaches to the first step after which all its registers are
        // known. One flag buffer serves the whole simulation.
        let (n, nregs, nfilters) = (atoms.len(), sym.vars.len(), filters.len());
        let mut flags = vec![false; 2 * (nregs + nfilters) + n];
        let (known, rest) = flags.split_at_mut(nregs);
        let (after_head, rest) = rest.split_at_mut(nregs);
        let (attached, rest) = rest.split_at_mut(nfilters);
        let (attached_after_head, placed) = rest.split_at_mut(nfilters);
        let place = |atom: Option<usize>, known: &mut [bool], attached: &mut [bool]| {
            for arg in atom.iter().flat_map(|&a| &atoms[a].args) {
                if let Arg::Var { reg, .. } = arg {
                    known[*reg] = true;
                }
            }
            let mut ready = Vec::new();
            for (f, filter) in filters.iter().enumerate() {
                if !attached[f] && filter.ready(known) {
                    attached[f] = true;
                    ready.push(f);
                }
            }
            ready.into_boxed_slice()
        };
        known[..bound].fill(true);
        let pre = place(None, known, attached);
        let mut heads = Vec::with_capacity(n);
        for h in 0..n {
            known.fill(false);
            known[..bound].fill(true);
            attached.fill(false);
            for &f in &pre {
                attached[f] = true;
            }
            let ready = place(Some(h), known, attached);
            after_head.copy_from_slice(known);
            attached_after_head.copy_from_slice(attached);
            // One tail per possible second atom.
            let mut tails = Vec::with_capacity(n - 1);
            for second in (0..n).filter(|&a| a != h) {
                known.copy_from_slice(after_head);
                attached.copy_from_slice(attached_after_head);
                placed.fill(false);
                placed[h] = true;
                let mut order = Vec::with_capacity(n - 1);
                let mut next = Some(second);
                while let Some(atom) = next {
                    placed[atom] = true;
                    order.push((atom, place(Some(atom), known, attached)));
                    // The rest is static: the atom with the most known
                    // arguments, fully known ones before all others, ties
                    // towards body order.
                    next = (0..n).filter(|&a| !placed[a]).max_by_key(|&a| {
                        let args = &atoms[a].args;
                        let known_args = args
                            .iter()
                            .filter(|arg| match arg {
                                Arg::Const(_) => true,
                                Arg::Var { reg, .. } => known[*reg],
                            })
                            .count();
                        (known_args == args.len(), known_args, std::cmp::Reverse(a))
                    });
                }
                tails.push(order.into_boxed_slice());
            }
            let tails = tails.into_boxed_slice();
            heads.push(Head { ready, tails });
        }
        sym.bufs = sym.bufs.max(base + n);
        Join {
            atoms: atoms.into_boxed_slice(),
            filters: filters.into_boxed_slice(),
            pre,
            heads: heads.into_boxed_slice(),
            never,
            base,
        }
    }

    fn holds<D: Db>(&self, ready: &[usize], db: &D, s: &mut Scratch) -> bool {
        ready.iter().all(|&f| self.filters[f].holds(db, s))
    }

    /// An index-based upper bound on the tuples `atom` matches under the
    /// current registers; `None` when every column is bound — a pure
    /// existence probe, which costs as much to run as to estimate.
    fn estimate<D: Db>(&self, db: &D, atom: usize, buf: usize, s: &mut Scratch) -> Option<usize> {
        let atom = &self.atoms[atom];
        // Absent relations estimate to zero: picked first, they end the
        // conjunction at once.
        let Some(rel) = s.rels[atom.rel] else {
            return Some(0);
        };
        let mut pattern = std::mem::take(&mut s.patterns[buf]);
        atom.fill(&s.regs, &mut pattern);
        let estimate = pattern
            .iter()
            .any(Option::is_none)
            .then(|| db.estimate_rel_v(rel, &pattern, atom.ver(s)));
        s.patterns[buf] = pattern;
        estimate
    }

    /// Which of `candidates` (atom indexes) to run next: the first pure
    /// probe, else the first with the smallest estimate.
    fn cheapest<D: Db>(
        &self,
        db: &D,
        candidates: impl Iterator<Item = usize>,
        buf: usize,
        s: &mut Scratch,
    ) -> usize {
        let mut best = (0, usize::MAX);
        for (i, atom) in candidates.enumerate() {
            match self.estimate(db, atom, buf, s) {
                None => return i,
                Some(e) if e < best.1 || i == 0 => best = (i, e),
                Some(_) => {}
            }
        }
        best.0
    }

    /// Scan `atom` under the current registers; on every tuple that binds
    /// and passes the `ready` filters, continue with `inner`. With `since`
    /// the atom is a delta run's anchor: it walks the rows from that cursor
    /// on with nothing bound — a slot range, filtered by [`AtomPlan::bind`],
    /// never an index probe.
    fn scan<D: Db>(
        &self,
        db: &D,
        (atom, ready): (usize, &[usize]),
        since: Option<u64>,
        buf: usize,
        s: &mut Scratch,
        inner: &mut dyn FnMut(&mut Scratch) -> Control,
    ) -> Control {
        let atom = &self.atoms[atom];
        let Some(rel) = s.rels[atom.rel] else {
            return Control::Continue;
        };
        let mut pattern = std::mem::take(&mut s.patterns[buf]);
        let ver = match since {
            Some(cursor) => {
                pattern.clear();
                pattern.resize(atom.args.len(), None);
                Ver::New(cursor)
            }
            None => {
                atom.fill(&s.regs, &mut pattern);
                atom.ver(s)
            }
        };
        let mut ctrl = Control::Continue;
        db.scan_rel_v(rel, &pattern, ver, &mut |t| {
            if atom.bind(&pattern, t, &mut s.regs) && self.holds(ready, db, s) {
                ctrl = inner(s);
            }
            ctrl
        });
        atom.unbind(&pattern, &mut s.regs);
        s.patterns[buf] = pattern;
        ctrl
    }

    /// Enumerate the solutions over the whole database. Registers bound on
    /// entry are kept; whatever the run binds is cleared again on return.
    fn run<D: Db, V: FnMut(&mut Scratch) -> Control>(
        &self,
        db: &D,
        s: &mut Scratch,
        visit: &mut V,
    ) -> Control {
        if self.never || !self.holds(&self.pre, db, s) {
            return Control::Continue;
        }
        if self.atoms.is_empty() {
            return visit(s);
        }
        // The first atom of a full scan is a run-time choice.
        let h = match self.atoms.len() {
            1 => 0,
            n => self.cheapest(db, 0..n, self.base, s),
        };
        let head = (h, &*self.heads[h].ready);
        self.scan(db, head, None, self.base, s, &mut |s| {
            self.tail(db, h, s, visit)
        })
    }

    /// Delta-seeded run: `since` names relations (`rels` are the running
    /// plan's) with the cursor from which their rows are new. Every atom
    /// over such a relation is in turn the *anchor* — it walks the new rows
    /// and the rest is joined to each, atoms before the anchor reading only
    /// the rows before their relation's cursor.
    fn run_delta<D: Db, V: FnMut(&mut Scratch) -> Control>(
        &self,
        db: &D,
        rels: &[Arc<str>],
        s: &mut Scratch,
        since: &[(impl AsRef<str>, u64)],
        visit: &mut V,
    ) {
        if self.never || !self.holds(&self.pre, db, s) {
            return;
        }
        for (rel, name) in rels.iter().enumerate() {
            let named = since.iter().find(|(n, _)| n.as_ref() == name.as_ref());
            s.old[rel] = named.map(|(_, cursor)| *cursor);
        }
        for (h, atom) in self.atoms.iter().enumerate() {
            let Some(cursor) = s.old[atom.rel] else {
                continue;
            };
            s.anchor = atom.pos;
            let head = (h, &*self.heads[h].ready);
            let ctrl = self.scan(db, head, Some(cursor), self.base, s, &mut |s| {
                self.tail(db, h, s, visit)
            });
            if ctrl == Control::Stop {
                break;
            }
        }
        s.old.fill(None);
        s.anchor = 0;
    }

    /// Continue after `atoms[h]` ran first and bound: pick the tail (the
    /// first atom after the head is the second run-time choice) and run it.
    fn tail<D: Db, V: FnMut(&mut Scratch) -> Control>(
        &self,
        db: &D,
        h: usize,
        s: &mut Scratch,
        visit: &mut V,
    ) -> Control {
        let buf = self.base + 1;
        let tails = &self.heads[h].tails;
        let order = match tails.len() {
            0 => return visit(s),
            1 => &tails[0],
            _ => &tails[self.cheapest(db, tails.iter().map(|order| order[0].0), buf, s)],
        };
        self.steps(db, order, buf, s, visit)
    }

    fn steps<D: Db, V: FnMut(&mut Scratch) -> Control>(
        &self,
        db: &D,
        order: &[(usize, Box<[usize]>)],
        buf: usize,
        s: &mut Scratch,
        visit: &mut V,
    ) -> Control {
        match order {
            [] => visit(s),
            [(atom, ready)] => self.scan(db, (*atom, ready), None, buf, s, visit),
            [(atom, ready), rest @ ..] => self.scan(db, (*atom, ready), None, buf, s, &mut |s| {
                self.steps(db, rest, buf + 1, s, visit)
            }),
        }
    }
}

/// A compiled literal list with its own symbols: what
/// [`crate::evaluate_body`] and view materialization run.
#[derive(Debug, Clone)]
pub struct BodyPlan {
    frame: Frame,
    /// Register → variable.
    vars: Vec<Var>,
    join: Join,
    /// Every register, in variable-name order.
    export: Vec<usize>,
}

impl BodyPlan {
    /// Compile `body`; the variables of `seed` occupy the first registers
    /// and hold the seed's values during [`BodyPlan::run`].
    pub fn compile(body: &[Literal], seed: &Bindings) -> BodyPlan {
        let mut sym = Symbols::new();
        for (var, _) in seed.iter() {
            sym.reg(var);
        }
        let join = Join::compile(&mut sym, body.iter().map(Lit::from), seed.len(), 0);
        let mut export: Vec<usize> = (0..sym.vars.len()).collect();
        export.sort_by(|&a, &b| sym.vars[a].cmp(&sym.vars[b]));
        let (vars, frame) = sym.finish();
        BodyPlan {
            frame,
            vars,
            join,
            export,
        }
    }

    /// The slots of `head`'s arguments, for projecting a rule head straight
    /// from the registers. `None` when a head variable is not a variable of
    /// the body.
    pub fn head_slots(&self, head: &Atom) -> Option<Vec<Slot>> {
        head.args
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(Slot::Const(c.clone())),
                Term::Var(v) => self.vars.iter().position(|x| x == v).map(Slot::Reg),
            })
            .collect()
    }

    fn start<D: Db>(&self, db: &D, s: &mut Scratch, seed: &Bindings) {
        self.frame.prepare(db, s);
        for (reg, (_, value)) in s.regs.iter_mut().zip(seed.iter()) {
            *reg = Some(value.clone());
        }
    }

    /// Enumerate the solutions of the body over `db`, starting from `seed`
    /// (the bindings this plan was compiled with, or others over the same
    /// variables).
    pub fn run<D: Db>(
        &self,
        db: &D,
        s: &mut Scratch,
        seed: &Bindings,
        mut visit: impl FnMut(&[Option<Value>]) -> Control,
    ) {
        self.start(db, s, seed);
        self.join.run(db, s, &mut |s| visit(&s.regs));
    }

    /// Delta-seeded semi-naive enumeration: the solutions of the body that
    /// use at least one *new* tuple in a positive atom, each exactly once.
    ///
    /// `since` pairs a relation name with a cursor into it — on an
    /// [`grom_data::Instance`], the [`grom_data::Relation::frontier`]
    /// recorded when the body was last evaluated: the rows from the cursor
    /// on are new. Every positive atom over such a relation is in turn the
    /// *anchor*: it walks the new rows ([`Ver::New`]) and the remaining
    /// literals are joined to each with the semi-naive version split —
    /// positive atoms **before** the anchor see only the rows before their
    /// relation's cursor ([`Ver::Old`]), atoms after the anchor and atoms
    /// over other relations see everything, and negations/comparisons
    /// always check the full database. A solution whose first (in body
    /// position order) new tuple sits at position `p` is therefore
    /// enumerated only with `p` as the anchor — at any later anchor,
    /// position `p` reads the old half, which excludes its tuple.
    ///
    /// The chase does not call this — it runs
    /// [`DepPlan::violations_from_delta`], the same anchors with the
    /// satisfaction check fused in.
    pub fn run_delta<D: Db>(
        &self,
        db: &D,
        s: &mut Scratch,
        since: &[(impl AsRef<str>, u64)],
        mut visit: impl FnMut(&[Option<Value>]) -> Control,
    ) {
        self.start(db, s, &Bindings::new());
        self.join
            .run_delta(db, &self.frame.rels, s, since, &mut |s| visit(&s.regs))
    }

    /// The solution held by `regs`, as bindings.
    pub fn bindings(&self, regs: &[Option<Value>]) -> Bindings {
        let mut pairs = Vec::with_capacity(self.export.len());
        for &r in &self.export {
            if let Some(v) = &regs[r] {
                pairs.push((self.vars[r].clone(), v.clone()));
            }
        }
        Bindings::from_iter(pairs)
    }
}

/// One cell of a conclusion tuple template (see [`DepPlan::rows`]).
#[derive(Debug, Clone, Copy)]
pub enum Cell<'p> {
    Const(&'p Value),
    /// A register the premise match binds.
    Reg(usize),
    /// An existential variable, numbered within [`DepPlan::fresh`]: one
    /// fresh null per repair, shared by the disjunct's atoms.
    Fresh(usize),
}

/// One compiled disjunct: equalities and comparisons on registers
/// (index-aligned with the source [`grom_lang::Disjunct`]), and the
/// conclusion atoms as an embedding plan — run for the satisfaction check,
/// read as row templates for the repair.
#[derive(Debug, Clone)]
pub struct DisjunctPlan {
    pub eqs: Box<[(Slot, Slot)]>,
    pub cmps: Box<[Cmp]>,
    embed: Option<Box<Join>>,
}

/// A compiled dependency: the premise plan (full scan and one delta anchor
/// per positive atom), per-disjunct checks, per-conclusion-atom row
/// templates. Database-independent and `Sync`; holds for as long as the
/// program is fixed.
#[derive(Debug, Clone)]
pub struct DepPlan<'d> {
    pub dep: &'d Dependency,
    frame: Frame,
    premise: Join,
    pub disjuncts: Box<[DisjunctPlan]>,
    /// Registers `0..width` are the variables of the positive premise
    /// atoms, in order of first occurrence: exactly what a premise match
    /// binds. (The names stay with `dep`; a chase run holds one plan per
    /// dependency, so a plan keeps only what its runs read.)
    width: usize,
}

impl<'d> DepPlan<'d> {
    pub fn compile(dep: &'d Dependency) -> DepPlan<'d> {
        let mut sym = Symbols::new();
        // The variables of the positive premise atoms take the leading
        // registers: a premise match is the register prefix `0..width`.
        for var in premise_vars(dep) {
            sym.reg(var);
        }
        let width = sym.vars.len();
        let premise = Join::compile(&mut sym, dep.premise.iter().map(Lit::from), 0, 0);
        let depth = premise.atoms.len();
        let disjuncts = dep
            .disjuncts
            .iter()
            .map(|d| {
                let eqs = d
                    .eqs
                    .iter()
                    .map(|(l, r)| (sym.slot(l), sym.slot(r)))
                    .collect();
                let cmps = d.cmps.iter().map(|c| sym.cmp(c)).collect();
                let atoms = d.atoms.iter().map(Lit::Pos);
                let embed = (!d.atoms.is_empty())
                    .then(|| Box::new(Join::compile(&mut sym, atoms, width, depth)));
                DisjunctPlan { eqs, cmps, embed }
            })
            .collect();
        DepPlan {
            dep,
            frame: sym.finish().1,
            premise,
            disjuncts,
            width,
        }
    }

    /// Disjunct `i`'s conclusion atoms as row templates — relation name and
    /// one [`Cell`] per column — so a repair builds its tuples straight from
    /// the registers.
    pub fn rows(
        &self,
        i: usize,
    ) -> impl Iterator<Item = (&Arc<str>, impl Iterator<Item = Cell<'_>>)> {
        let width = self.width;
        let atoms = self.disjuncts[i].embed.iter().flat_map(|join| &join.atoms);
        atoms.map(move |atom| {
            let cells = atom.args.iter().map(move |arg| match arg {
                Arg::Const(c) => Cell::Const(c),
                Arg::Var { reg, .. } if *reg < width => Cell::Reg(*reg),
                Arg::Var { reg, .. } => Cell::Fresh(*reg - width),
            });
            (&self.frame.rels[atom.rel], cells)
        })
    }

    /// How many registers no premise match binds: the range of
    /// [`Cell::Fresh`] indexes.
    pub fn fresh(&self) -> usize {
        self.frame.regs - self.width
    }

    /// Number of leading registers a premise match binds (the width of a
    /// [`Matches`] row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Enumerate the premise matches over the whole of `db` that no
    /// disjunct satisfies; `visit` sees the register file.
    pub fn violations<D: Db>(
        &self,
        db: &D,
        s: &mut Scratch,
        mut visit: impl FnMut(&[Option<Value>]) -> Control,
    ) {
        self.frame.prepare(db, s);
        self.premise
            .run(db, s, &mut |s| self.check(db, s, &mut visit));
    }

    /// [`DepPlan::violations`] seeded from what the premise relations
    /// gained: `since` pairs a relation with the cursor from which its rows
    /// are new, and only the matches that use at least one new row are
    /// enumerated, each exactly once.
    pub fn violations_from_delta<D: Db>(
        &self,
        db: &D,
        s: &mut Scratch,
        since: &[(impl AsRef<str>, u64)],
        mut visit: impl FnMut(&[Option<Value>]) -> Control,
    ) {
        self.frame.prepare(db, s);
        self.premise
            .run_delta(db, &self.frame.rels, s, since, &mut |s| {
                self.check(db, s, &mut visit)
            })
    }

    fn check<D: Db>(
        &self,
        db: &D,
        s: &mut Scratch,
        visit: &mut impl FnMut(&[Option<Value>]) -> Control,
    ) -> Control {
        if (0..self.disjuncts.len()).any(|i| self.holds(i, db, s)) {
            Control::Continue
        } else {
            visit(&s.regs)
        }
    }

    /// Is disjunct `i` satisfied in `db` under the premise match held by
    /// the first [`DepPlan::width`] registers of `s`? For re-checking a
    /// stored match between two repairs of one activation: `s` must last
    /// have run this plan, and the relations are re-resolved only if the
    /// repairs created one.
    pub fn satisfied<D: Db>(&self, i: usize, db: &D, s: &mut Scratch) -> bool {
        debug_assert_eq!(s.rels.len(), self.frame.rels.len());
        if db.rel_count() != s.rel_count {
            self.frame.resolve(db, s);
        }
        self.holds(i, db, s)
    }

    fn holds<D: Db>(&self, i: usize, db: &D, s: &mut Scratch) -> bool {
        let d = &self.disjuncts[i];
        // Equalities and comparisons: both sides bound, and they hold.
        let eqs = d.eqs.iter().all(|(l, r)| {
            let (l, r) = (l.eval(&s.regs), r.eval(&s.regs));
            l.is_some() && l == r
        });
        if !eqs || !d.cmps.iter().all(|c| c.holds(&s.regs)) {
            return false;
        }
        // Atoms: embed as a conjunctive query seeded with the match;
        // existential variables may map to any stored value.
        d.embed
            .as_ref()
            .is_none_or(|embed| embed.run(db, s, &mut |_| Control::Stop) == Control::Stop)
    }

    /// The premise match held by the leading registers of `row`, as
    /// bindings — for violation witnesses and error text.
    pub fn bindings(&self, row: &[Option<Value>]) -> Bindings {
        // The register numbering of `compile`, recomputed: this is the
        // slow path.
        let mut names: Vec<&Var> = Vec::with_capacity(self.width);
        for var in premise_vars(self.dep) {
            if !names.contains(&var) {
                names.push(var);
            }
        }
        names
            .into_iter()
            .zip(row)
            .filter_map(|(name, value)| Some((name.clone(), value.clone()?)))
            .collect()
    }
}

/// The variable occurrences of `dep`'s positive premise atoms, in order:
/// their first occurrences number the leading registers of its plan.
fn premise_vars(dep: &Dependency) -> impl Iterator<Item = &Var> {
    dep.premise
        .iter()
        .filter_map(|lit| match lit {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .flat_map(|a| a.args.iter().filter_map(Term::as_var))
}

/// Premise matches copied out of the register file, row after row in one
/// allocation: evaluation borrows the database, repairs mutate it, so the
/// violations of an activation are collected first.
#[derive(Debug, Clone, Default)]
pub struct Matches {
    width: usize,
    len: usize,
    cells: Vec<Option<Value>>,
}

impl Matches {
    pub fn new(width: usize) -> Matches {
        Matches {
            width,
            ..Matches::default()
        }
    }

    /// Append the leading `width` registers of `regs`.
    pub fn push(&mut self, regs: &[Option<Value>]) {
        self.cells.extend_from_slice(&regs[..self.width]);
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn rows(&self) -> impl Iterator<Item = &[Option<Value>]> {
        (0..self.len).map(|i| &self.cells[i * self.width..(i + 1) * self.width])
    }
}
