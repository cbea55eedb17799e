//! The value domain: constants plus labeled nulls.
//!
//! GROM instances are *naive tables* in the data-exchange sense (Fagin,
//! Kolaitis, Miller, Popa — "Data Exchange: Semantics and Query Answering"):
//! ordinary constants mixed with **labeled nulls** `N_0, N_1, …` that stand
//! for unknown values invented by the chase. Two labeled nulls are equal iff
//! they carry the same label; the egd chase merges labels via
//! [`crate::instance::Instance::substitute_nulls`].

use std::fmt;
use std::sync::Arc;

use crate::symbol::Sym;

/// The label of a labeled null. Labels are allocated by a [`NullGenerator`]
/// and are globally unique within one chase run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u64);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A database value: a typed constant or a labeled null.
///
/// Strings are reference-counted so that tuples can be cloned cheaply during
/// joins and chase steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer constant.
    Int(i64),
    /// String constant.
    Str(Arc<str>),
    /// An **interned** string constant: compares and hashes by its dense
    /// `u32` id (see [`crate::symbol::SymbolTable`]). The pipeline interns
    /// all string constants of one run together, so `Sym` and `Str` never
    /// mix inside one database; renderings are identical to the equivalent
    /// `Str`.
    Sym(Sym),
    /// Boolean constant.
    Bool(bool),
    /// A labeled null `N_k` standing for an unknown value.
    Null(NullId),
}

impl Value {
    /// Build a string constant.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer constant.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Build a boolean constant.
    pub fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Build a labeled null from a raw label.
    pub fn null(id: u64) -> Self {
        Value::Null(NullId(id))
    }

    /// Is this a labeled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Is this a constant (i.e. not a labeled null)?
    pub fn is_constant(&self) -> bool {
        !self.is_null()
    }

    /// The null label, if this is a null.
    pub fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Null(id) => Some(*id),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str` or an interned `Sym`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Sym(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Turn an interned symbol back into the plain string constant it stands
    /// for, in place; every other value is left alone. The symbol's text
    /// moves into the `Str`, so nothing is allocated. The pipeline applies
    /// this to the chased target after validation, so user code only ever
    /// sees `Str` constants.
    pub fn unintern(&mut self) {
        *self = match std::mem::replace(self, Value::Bool(false)) {
            Value::Sym(s) => Value::Str(s.into_text()),
            other => other,
        };
    }

    /// Write this value the way `Display` prints it. Generic over the
    /// writer so that an instance rendering straight into a `String` skips
    /// the formatter.
    pub(crate) fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Int(i) => write!(out, "{i}"),
            Value::Str(s) => write_quoted(out, s),
            Value::Sym(s) => write_quoted(out, s.as_str()),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Null(NullId(label)) => write!(out, "N{label}"),
        }
    }

    /// Compare two values under the *order semantics of comparison atoms*.
    ///
    /// Comparisons in GROM premises (`rating >= 4`, …) are only meaningful
    /// between constants of the same type; any comparison involving a
    /// labeled null or constants of different types is *undefined* and the
    /// comparison atom simply does not match. Returns `None` in those cases.
    pub fn try_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            // Interned and plain strings order by text, so comparison atoms
            // behave identically with interning on or off.
            (Value::Sym(a), Value::Sym(b)) => Some(a.as_str().cmp(b.as_str())),
            (Value::Str(a), Value::Sym(b)) => Some(a.as_ref().cmp(b.as_str())),
            (Value::Sym(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

/// Quote a string constant, escaping embedded quotes and backslashes so
/// the rendered form survives a `write_instance`/`read_instance` round
/// trip (checkpoints embed instances as text).
fn write_quoted(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Both escaped characters are ASCII, so the runs between them can be
    // found byte by byte and written whole.
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\') {
        f.write_str(&rest[..i])?;
        f.write_str(if rest.as_bytes()[i] == b'"' {
            "\\\""
        } else {
            "\\\\"
        })?;
        rest = &rest[i + 1..];
    }
    f.write_str(rest)?;
    f.write_str("\"")
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Allocator for fresh labeled nulls.
///
/// The chase engine owns one generator per run so that every invented null
/// is distinct. Generators are deliberately *not* global: reproducibility of
/// a chase run must not depend on what other runs executed before it.
#[derive(Debug, Default, Clone)]
pub struct NullGenerator {
    next: u64,
}

impl NullGenerator {
    /// A generator starting at label 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator whose first label is `start`; used when extending an
    /// instance that already contains nulls.
    pub fn starting_at(start: u64) -> Self {
        Self { next: start }
    }

    /// Allocate a fresh labeled null.
    pub fn fresh(&mut self) -> Value {
        let id = self.next;
        self.next += 1;
        Value::Null(NullId(id))
    }

    /// The label the next call to [`NullGenerator::fresh`] will use.
    pub fn peek_next(&self) -> u64 {
        self.next
    }

    /// Move the generator forward so its next label is at least `next`.
    /// Never moves backwards. The parallel chase executor uses this to
    /// re-synchronize the run-level generator after a sweep in which
    /// workers allocated from disjoint strided ranges.
    pub fn advance_to(&mut self, next: u64) {
        self.next = self.next.max(next);
    }
}

/// Allocator for fresh labeled nulls drawn from a strided (residue-class)
/// label range: worker `offset` of a pool of `stride` workers allocates the
/// labels `start + offset`, `start + offset + stride`, `start + offset +
/// 2·stride`, …
///
/// Distinct offsets under the same `(start, stride)` produce disjoint label
/// sets of unbounded size, so parallel chase workers can invent nulls
/// without coordination and without a cap on per-worker allocations; the
/// ranges are a deterministic function of the job index, keeping runs
/// reproducible regardless of thread scheduling.
#[derive(Debug, Clone)]
pub struct StridedNullGenerator {
    next: u64,
    stride: u64,
    last: Option<u64>,
}

impl StridedNullGenerator {
    /// The generator for worker `offset` of `stride` workers, starting the
    /// shared range at `start`. `offset` must be below `stride`.
    pub fn new(start: u64, offset: u64, stride: u64) -> Self {
        debug_assert!(stride >= 1 && offset < stride);
        Self {
            next: start + offset,
            stride: stride.max(1),
            last: None,
        }
    }

    /// Allocate a fresh labeled null from this worker's range.
    pub fn fresh(&mut self) -> Value {
        let id = self.next;
        self.next += self.stride;
        self.last = Some(id);
        Value::Null(NullId(id))
    }

    /// The largest label allocated so far, if any. The sweep barrier folds
    /// this into the run-level [`NullGenerator`] via
    /// [`NullGenerator::advance_to`].
    pub fn max_allocated(&self) -> Option<u64> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::null(3).as_null(), Some(NullId(3)));
        assert!(Value::null(3).is_null());
        assert!(!Value::null(3).is_constant());
        assert!(Value::int(1).is_constant());
    }

    #[test]
    fn equality_is_by_label_for_nulls() {
        assert_eq!(Value::null(1), Value::null(1));
        assert_ne!(Value::null(1), Value::null(2));
        assert_ne!(Value::null(1), Value::int(1));
    }

    #[test]
    fn try_cmp_same_types() {
        assert_eq!(Value::int(1).try_cmp(&Value::int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").try_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::bool(true).try_cmp(&Value::bool(true)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn try_cmp_is_undefined_across_types_and_nulls() {
        assert_eq!(Value::int(1).try_cmp(&Value::str("1")), None);
        assert_eq!(Value::null(0).try_cmp(&Value::int(1)), None);
        assert_eq!(Value::null(0).try_cmp(&Value::null(0)), None);
    }

    #[test]
    fn null_generator_is_sequential_and_local() {
        let mut g = NullGenerator::new();
        assert_eq!(g.fresh(), Value::null(0));
        assert_eq!(g.fresh(), Value::null(1));
        let mut h = NullGenerator::starting_at(10);
        assert_eq!(h.fresh(), Value::null(10));
        assert_eq!(g.fresh(), Value::null(2));
        assert_eq!(g.peek_next(), 3);
    }

    #[test]
    fn strided_generators_are_disjoint_and_deterministic() {
        let mut a = StridedNullGenerator::new(10, 0, 3);
        let mut b = StridedNullGenerator::new(10, 1, 3);
        assert_eq!(a.max_allocated(), None);
        assert_eq!(a.fresh(), Value::null(10));
        assert_eq!(a.fresh(), Value::null(13));
        assert_eq!(b.fresh(), Value::null(11));
        assert_eq!(b.fresh(), Value::null(14));
        assert_eq!(a.max_allocated(), Some(13));
        assert_eq!(b.max_allocated(), Some(14));

        let mut g = NullGenerator::starting_at(10);
        g.advance_to(15);
        assert_eq!(g.fresh(), Value::null(15));
        g.advance_to(3); // never moves backwards
        assert_eq!(g.fresh(), Value::null(16));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(-4).to_string(), "-4");
        assert_eq!(Value::str("ab").to_string(), "\"ab\"");
        assert_eq!(Value::bool(false).to_string(), "false");
        assert_eq!(Value::null(12).to_string(), "N12");
    }

    #[test]
    fn quoting_escapes_quotes_and_backslashes_only() {
        assert_eq!(Value::str(r#"say "hi""#).to_string(), r#""say \"hi\"""#);
        assert_eq!(Value::str(r"a\b").to_string(), r#""a\\b""#);
        // Nothing but escapes.
        assert_eq!(Value::str(r#""\\""#).to_string(), r#""\"\\\\\"""#);
        // A multi-byte character on either side of an escape.
        assert_eq!(Value::str(r#"é"ü\日"#).to_string(), r#""é\"ü\\日""#);
        assert_eq!(Value::str("").to_string(), r#""""#);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
        assert_eq!(Value::from(true), Value::bool(true));
    }
}
