//! Stratified materialization of view sets: the `Υ(I)` operator.
//!
//! Views are materialized in the order the [`ViewSet`] carries (definitions
//! before uses), so when a rule body references another view — positively
//! or under negation — that view's extent is already available.
//! Non-recursion makes this a single pass; no fixpoint is needed, and a
//! `ViewSet` is non-recursive and safe by construction, so nothing is
//! checked here.
//!
//! Each rule is compiled once into a [`BodyPlan`] and evaluated once, over
//! the borrowed layers `base ∪ extents-so-far` ([`LayeredDb`]); head tuples
//! are projected straight from the plan's registers.

use std::fmt;

use grom_data::{DataError, Instance, Tuple};
use grom_lang::{Bindings, ViewSet};

use crate::db::{Control, LayeredDb};
use crate::plan::{BodyPlan, Scratch};

/// Errors raised during materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaterializeError {
    /// Tuple insertion failed (arity drift between rules of a union view —
    /// prevented upstream, but surfaced faithfully).
    Data(DataError),
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::Data(e) => write!(f, "materialization: {e}"),
        }
    }
}

impl std::error::Error for MaterializeError {}

impl From<DataError> for MaterializeError {
    fn from(e: DataError) -> Self {
        MaterializeError::Data(e)
    }
}

/// A materialization result with per-view delta reporting: the extents plus
/// the number of (deduplicated) tuples each view contributed.
///
/// Every declared view has an entry — views whose bodies matched nothing
/// report 0, they are not silently absent. Duplicate derivations across
/// union rules count once (the extents instance deduplicates).
#[derive(Debug, Clone)]
pub struct ViewMaterialization {
    /// The materialized view extents (view relations only).
    pub extents: Instance,
    /// View name → tuples inserted for it.
    pub per_view: std::collections::BTreeMap<std::sync::Arc<str>, usize>,
}

/// Materialize every view of `views` over the base instance `base`.
///
/// Returns a new instance containing **only** the view extents; callers that
/// want `base ∪ Υ(base)` (e.g. the pipeline's composition reduction) union
/// the result with `base` themselves.
pub fn materialize_views(views: &ViewSet, base: &Instance) -> Result<Instance, MaterializeError> {
    Ok(materialize_views_tracked(views, base)?.extents)
}

/// Like [`materialize_views`], additionally reporting the per-view deltas
/// (how many tuples each view contributed). The pipeline surfaces these in
/// its statistics.
pub fn materialize_views_tracked(
    views: &ViewSet,
    base: &Instance,
) -> Result<ViewMaterialization, MaterializeError> {
    let order = views.materialization_order();
    let mut extents = Instance::new();
    let mut scratch = Scratch::default();
    let no_seed = Bindings::new();
    for view in order {
        for rule in views.rules_of(view) {
            let plan = BodyPlan::compile(&rule.body, &no_seed);
            let head = plan
                .head_slots(&rule.head)
                .expect("safety guarantees head variables occur in the body");
            // The heads are collected before they are inserted: the scan
            // borrows the extents the inserts grow.
            let mut derived: Vec<Tuple> = Vec::new();
            let layers = [base, &extents];
            plan.run(&LayeredDb::new(&layers), &mut scratch, &no_seed, |regs| {
                let values = head.iter().map(|slot| {
                    slot.eval(regs)
                        .expect("safety guarantees head variables are bound")
                        .clone()
                });
                derived.push(Tuple::new(values.collect()));
                Control::Continue
            });
            for tuple in derived {
                extents.insert(&rule.head.predicate, tuple)?;
            }
        }
    }
    // The extents instance started empty and deduplicates, so each view's
    // contribution is simply its relation's final size (0 when the view
    // derived nothing).
    let per_view = order
        .iter()
        .map(|view| {
            let count = extents.relation(view).map_or(0, grom_data::Relation::len);
            (view.clone(), count)
        })
        .collect();
    Ok(ViewMaterialization { extents, per_view })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;
    use grom_lang::{Atom, Literal, Term, ViewRule};

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    /// The paper's target views over a small target instance.
    fn paper_setup() -> (ViewSet, Instance) {
        let text = r#"
            view Product(id, name) <- T_Product(id, name, store).
            view PopularProduct(pid, name) <-
                T_Product(pid, name, store), not T_Rating(rid, pid, 0).
            view AvgProduct(pid, name) <-
                T_Product(pid, name, store), T_Rating(rid, pid, 1),
                not PopularProduct(pid, name).
            view UnpopularProduct(pid, name) <-
                T_Product(pid, name, store),
                not AvgProduct(pid, name), not PopularProduct(pid, name).
        "#;
        let prog = grom_lang::Program::parse(text).unwrap();

        let mut inst = Instance::new();
        // Product 1: no 0-ratings -> popular.
        // Product 2: a 0-rating and a 1-rating -> average.
        // Product 3: only 0-ratings -> unpopular.
        for (id, name) in [(1, "tv"), (2, "radio"), (3, "fridge")] {
            inst.add(
                "T_Product",
                vec![Value::int(id), Value::str(name), Value::int(100)],
            )
            .unwrap();
        }
        inst.add(
            "T_Rating",
            vec![Value::int(1), Value::int(2), Value::int(0)],
        )
        .unwrap();
        inst.add(
            "T_Rating",
            vec![Value::int(2), Value::int(2), Value::int(1)],
        )
        .unwrap();
        inst.add(
            "T_Rating",
            vec![Value::int(3), Value::int(3), Value::int(0)],
        )
        .unwrap();
        (prog.views, inst)
    }

    /// `V(x) <- A(x)` ∪ `V(x) <- B(x)`.
    fn union_of_a_and_b() -> ViewSet {
        let rule = |base| ViewRule::new(atom("V", &["x"]), vec![Literal::Pos(atom(base, &["x"]))]);
        ViewSet::from_rules([rule("A"), rule("B")]).unwrap()
    }

    fn names_of(extents: &Instance, view: &str) -> Vec<i64> {
        let mut ids: Vec<i64> = extents
            .tuples(view)
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn paper_views_classify_products() {
        let (views, inst) = paper_setup();
        let extents = materialize_views(&views, &inst).unwrap();
        assert_eq!(names_of(&extents, "Product"), vec![1, 2, 3]);
        assert_eq!(names_of(&extents, "PopularProduct"), vec![1]);
        assert_eq!(names_of(&extents, "AvgProduct"), vec![2]);
        assert_eq!(names_of(&extents, "UnpopularProduct"), vec![3]);
    }

    #[test]
    fn union_views_accumulate() {
        let views = union_of_a_and_b();
        let mut inst = Instance::new();
        inst.add("A", vec![Value::int(1)]).unwrap();
        inst.add("B", vec![Value::int(2)]).unwrap();
        inst.add("B", vec![Value::int(1)]).unwrap(); // dedup across rules
        let extents = materialize_views(&views, &inst).unwrap();
        assert_eq!(names_of(&extents, "V"), vec![1, 2]);
    }

    #[test]
    fn constants_in_heads() {
        let views = ViewSet::from_rules([ViewRule::new(
            Atom::new("Tagged", vec![Term::var("x"), Term::cons("hot")]),
            vec![Literal::Pos(atom("A", &["x"]))],
        )])
        .unwrap();
        let mut inst = Instance::new();
        inst.add("A", vec![Value::int(1)]).unwrap();
        let extents = materialize_views(&views, &inst).unwrap();
        assert!(extents.contains_fact(
            "Tagged",
            &Tuple::new(vec![Value::int(1), Value::str("hot")])
        ));
    }

    #[test]
    fn empty_base_gives_empty_views() {
        let (views, _) = paper_setup();
        let extents = materialize_views(&views, &Instance::new()).unwrap();
        assert!(extents.is_empty());
    }

    #[test]
    fn view_over_view_chain() {
        let prog = grom_lang::Program::parse(
            "view V1(x) <- Base(x, y), y > 0.\n\
             view V2(x) <- V1(x), not Block(x).\n\
             view V3(x) <- V2(x).",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("Base", vec![Value::int(1), Value::int(5)])
            .unwrap();
        inst.add("Base", vec![Value::int(2), Value::int(-1)])
            .unwrap();
        inst.add("Base", vec![Value::int(3), Value::int(2)])
            .unwrap();
        inst.add("Block", vec![Value::int(3)]).unwrap();
        let extents = materialize_views(&prog.views, &inst).unwrap();
        assert_eq!(names_of(&extents, "V1"), vec![1, 3]);
        assert_eq!(names_of(&extents, "V2"), vec![1]);
        assert_eq!(names_of(&extents, "V3"), vec![1]);
    }

    #[test]
    fn tracked_materialization_reports_per_view_deltas() {
        let (views, inst) = paper_setup();
        let out = materialize_views_tracked(&views, &inst).unwrap();
        assert_eq!(out.per_view["Product"], 3);
        assert_eq!(out.per_view["PopularProduct"], 1);
        assert_eq!(out.per_view["AvgProduct"], 1);
        assert_eq!(out.per_view["UnpopularProduct"], 1);
        // Views that derive nothing still report, with count 0.
        let (views, _) = paper_setup();
        let out = materialize_views_tracked(&views, &Instance::new()).unwrap();
        assert_eq!(out.per_view.len(), 4);
        assert_eq!(out.per_view["Product"], 0);
        assert_eq!(out.per_view["UnpopularProduct"], 0);
        // Union rules deduplicate: 1 appears in both A and B but counts once.
        let views = union_of_a_and_b();
        let mut inst = Instance::new();
        inst.add("A", vec![Value::int(1)]).unwrap();
        inst.add("B", vec![Value::int(1)]).unwrap();
        let out = materialize_views_tracked(&views, &inst).unwrap();
        assert_eq!(out.per_view["V"], 1);
    }

    #[test]
    fn recursion_is_reported() {
        // … where the view set is built: a recursive one cannot get here.
        let err = grom_lang::Program::parse("view V(x) <- W(x).\nview W(x) <- V(x).").unwrap_err();
        assert!(matches!(err, grom_lang::LangError::RecursiveViews { .. }));
    }

    #[test]
    fn nulls_flow_through_views() {
        let prog = grom_lang::Program::parse("view V(x, y) <- A(x, y).").unwrap();
        let mut inst = Instance::new();
        inst.add("A", vec![Value::int(1), Value::null(7)]).unwrap();
        let extents = materialize_views(&prog.views, &inst).unwrap();
        assert!(extents.contains_fact("V", &Tuple::new(vec![Value::int(1), Value::null(7)])));
    }
}
