//! Rewriter errors and warnings.
//!
//! Errors abort the rewriting (the output would be wrong or unboundedly
//! large); warnings record *sound strengthenings* — places where the
//! rewriter emitted a dependency stronger than the original semantics
//! because the ded language cannot express the exact requirement. The
//! restriction analyzer surfaces both to the mapping designer.

use std::fmt;
use std::sync::Arc;

use grom_lang::LangError;

/// Fatal rewriting errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// Input validation failed (an unsafe dependency, in or out).
    Lang(LangError),
    /// The DNF expansion exceeded the configured alternative budget.
    /// Truncating a *premise* DNF would silently weaken the output (drop a
    /// constraint), which is unsound — so this is an error, not a warning.
    TooComplex {
        dependency: Arc<str>,
        alternatives: usize,
        budget: usize,
    },
    /// A view atom was used with the wrong arity.
    ArityMismatch {
        predicate: Arc<str>,
        expected: usize,
        actual: usize,
    },
    /// A dependency mentions a view with more than `limit` levels of views
    /// below it ([`crate::MAX_VIEW_NESTING`]); unfolding it would recurse
    /// that deep.
    TooDeep {
        view: Arc<str>,
        depth: usize,
        limit: usize,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Lang(e) => write!(f, "rewrite: {e}"),
            RewriteError::TooComplex {
                dependency,
                alternatives,
                budget,
            } => write!(
                f,
                "rewriting `{dependency}` produced {alternatives} alternatives \
                 (budget {budget}); simplify the views or raise the budget"
            ),
            RewriteError::ArityMismatch {
                predicate,
                expected,
                actual,
            } => write!(
                f,
                "view `{predicate}` used with arity {actual}, defined with {expected}"
            ),
            RewriteError::TooDeep { view, depth, limit } => write!(
                f,
                "view `{view}` is nested {depth} views deep; the rewriter unfolds at most \
                 {limit} levels — flatten the view chain"
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<LangError> for RewriteError {
    fn from(e: LangError) -> Self {
        RewriteError::Lang(e)
    }
}

/// A sound strengthening applied during rewriting. Each warning names the
/// dependency being rewritten and — when attributable — the view whose
/// negation pattern triggered it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RewriteWarning {
    /// A would-be ded disjunct still contained negation (nesting depth ≥ 3
    /// after unfolding) and was dropped.
    DroppedNestedNegation {
        dependency: Arc<str>,
        view: Arc<str>,
    },
    /// A would-be disjunct carried a comparison over an existential
    /// variable (the chase cannot invent a null satisfying an order
    /// constraint) and was dropped.
    DroppedExistentialComparison {
        dependency: Arc<str>,
        comparison: String,
    },
    /// A negative requirement shared existential variables with the
    /// positive part of the conclusion; the check was strengthened to range
    /// over *all* witnesses rather than the chase-created one.
    SharedExistentialStrengthened {
        dependency: Arc<str>,
        view: Arc<str>,
    },
    /// The conclusion had several alternatives (a union view was written
    /// to); negative requirements of every alternative are enforced
    /// globally, which is stronger than the per-alternative semantics.
    UnionNegationStrengthened { dependency: Arc<str> },
    /// A conclusion alternative was statically unsatisfiable (contradictory
    /// comparisons after unfolding) and was dropped from the disjunction.
    UnsatisfiableAlternative { dependency: Arc<str> },
}

impl RewriteWarning {
    /// The dependency this warning is about.
    pub fn dependency(&self) -> &Arc<str> {
        match self {
            RewriteWarning::DroppedNestedNegation { dependency, .. }
            | RewriteWarning::DroppedExistentialComparison { dependency, .. }
            | RewriteWarning::SharedExistentialStrengthened { dependency, .. }
            | RewriteWarning::UnionNegationStrengthened { dependency }
            | RewriteWarning::UnsatisfiableAlternative { dependency } => dependency,
        }
    }

    /// The view to blame, if attributable.
    pub fn view(&self) -> Option<&Arc<str>> {
        match self {
            RewriteWarning::DroppedNestedNegation { view, .. }
            | RewriteWarning::SharedExistentialStrengthened { view, .. } => Some(view),
            _ => None,
        }
    }
}

impl fmt::Display for RewriteWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteWarning::DroppedNestedNegation { dependency, view } => write!(
                f,
                "`{dependency}`: dropped a disjunct with nested negation (via view `{view}`); \
                 output strengthened"
            ),
            RewriteWarning::DroppedExistentialComparison {
                dependency,
                comparison,
            } => write!(
                f,
                "`{dependency}`: dropped a disjunct with comparison `{comparison}` over an \
                 existential variable; output strengthened"
            ),
            RewriteWarning::SharedExistentialStrengthened { dependency, view } => write!(
                f,
                "`{dependency}`: negative requirement of view `{view}` shares existential \
                 variables with the positive part; check strengthened to all witnesses"
            ),
            RewriteWarning::UnionNegationStrengthened { dependency } => write!(
                f,
                "`{dependency}`: negative requirements of a union view are enforced for \
                 every alternative; output strengthened"
            ),
            RewriteWarning::UnsatisfiableAlternative { dependency } => write!(
                f,
                "`{dependency}`: a conclusion alternative was statically unsatisfiable and \
                 was dropped"
            ),
        }
    }
}
