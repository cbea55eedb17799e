//! The restriction analyzer: "GROM supports this process by highlighting
//! problematic views" (§4 of the paper).
//!
//! Two complementary services:
//!
//! * a **syntactic prediction** ([`predicts_deds`]) that looks only at the
//!   view definitions and a dependency and tells whether rewriting *may*
//!   produce deds — the sufficient conditions of the paper's §3 ("the
//!   system is able to look at the view definitions and tell whether the
//!   rewritten mappings may contain deds or not");
//! * a **post-hoc report** ([`analyze`]) that runs the rewriter and blames
//!   each ded and each sound strengthening on the view whose negation
//!   pattern caused it, so the designer knows *which* views to reformulate.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use grom_lang::{DepClass, Dependency, Literal, ViewSet};

use crate::error::{RewriteError, RewriteWarning};
use crate::rewriter::{rewrite_program, RewriteOptions, RewriteOutput};

/// Per-view shape metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewProfile {
    pub name: Arc<str>,
    /// Number of union rules.
    pub union_width: usize,
    /// Maximum negation nesting in the full expansion: 0 = conjunctive,
    /// 1 = negates base tables or conjunctive views only, 2+ = negation
    /// under negation (the paper's "perverse" patterns start at 3, where
    /// sound strengthening must drop requirements).
    pub negation_depth: usize,
    /// Predicates this view negates (directly).
    pub negated_predicates: Vec<Arc<str>>,
}

/// A view the designer should consider reformulating, with reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblematicView {
    pub view: Arc<str>,
    pub reasons: Vec<String>,
}

/// The analyzer's output.
#[derive(Debug, Clone)]
pub struct RestrictionReport {
    pub profiles: Vec<ViewProfile>,
    /// Classification of every rewritten dependency.
    pub output_classes: BTreeMap<Arc<str>, DepClass>,
    /// Views blamed for deds or strengthenings, with human-readable
    /// reasons. Sorted by view name.
    pub problematic: Vec<ProblematicView>,
    /// Did the rewriting produce any genuine ded?
    pub has_deds: bool,
    /// Warnings carried over from the rewriting.
    pub warnings: Vec<RewriteWarning>,
}

impl fmt::Display for RestrictionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "view profiles:")?;
        for p in &self.profiles {
            writeln!(
                f,
                "  {}: union_width={} negation_depth={}{}",
                p.name,
                p.union_width,
                p.negation_depth,
                if p.negated_predicates.is_empty() {
                    String::new()
                } else {
                    format!(
                        " negates [{}]",
                        p.negated_predicates
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            )?;
        }
        writeln!(
            f,
            "rewritten program: {}",
            if self.has_deds {
                "CONTAINS DEDS"
            } else {
                "ded-free (plain tgds/egds/denials)"
            }
        )?;
        if self.problematic.is_empty() {
            writeln!(f, "no problematic views")?;
        } else {
            writeln!(f, "problematic views:")?;
            for p in &self.problematic {
                writeln!(f, "  {}:", p.view)?;
                for r in &p.reasons {
                    writeln!(f, "    - {r}")?;
                }
            }
        }
        Ok(())
    }
}

/// Build per-view profiles.
fn view_profiles(views: &ViewSet) -> Vec<ViewProfile> {
    views
        .view_names()
        .map(|name| {
            let mut negated: Vec<Arc<str>> = Vec::new();
            for r in views.rules_of(name) {
                for lit in &r.body {
                    if let Literal::Neg(a) = lit {
                        if !negated.contains(&a.predicate) {
                            negated.push(a.predicate.clone());
                        }
                    }
                }
            }
            ViewProfile {
                name: name.clone(),
                union_width: views.rules_of(name).len(),
                negation_depth: views.negation_depth(name).unwrap_or(0),
                negated_predicates: negated,
            }
        })
        .collect()
}

/// Syntactic sufficient check: can rewriting `dep` against `views` produce
/// a genuine ded? (Conservative: `false` guarantees a ded-free output.)
///
/// Deds arise from (a) negation reachable from the *premise* — a negated
/// literal, or a positive view atom whose expansion contains negation —
/// combined with a non-empty conclusion, or (b) a union view in the
/// conclusion, or (c) the input being a ded already.
pub fn predicts_deds(views: &ViewSet, dep: &Dependency) -> bool {
    if dep.disjuncts.len() >= 2 {
        return true;
    }
    let reaches_negation = |pred: &str| views.negation_depth(pred).is_some_and(|d| d > 0);

    let mut premise_negation = false;
    for lit in &dep.premise {
        match lit {
            Literal::Neg(_) => premise_negation = true,
            Literal::Pos(a) if reaches_negation(&a.predicate) => premise_negation = true,
            _ => {}
        }
    }
    if premise_negation && !dep.disjuncts.is_empty() {
        return true;
    }
    // Union views in the conclusion multiply alternatives.
    for d in &dep.disjuncts {
        for a in &d.atoms {
            if views.rules_of(&a.predicate).len() >= 2 {
                return true;
            }
        }
    }
    false
}

/// Run the rewriter and produce the full restriction report.
pub fn analyze<'d>(
    views: &ViewSet,
    deps: impl IntoIterator<Item = &'d Dependency>,
    options: &RewriteOptions,
) -> Result<(RestrictionReport, RewriteOutput), RewriteError> {
    let output = rewrite_program(views, deps, options)?;

    let mut blame: BTreeMap<Arc<str>, Vec<String>> = BTreeMap::new();
    for (dep_name, causes) in &output.ded_causes {
        for cause in causes {
            if views.is_view(cause) {
                blame
                    .entry(cause.clone())
                    .or_default()
                    .push(format!("its negation forces ded `{dep_name}`"));
            }
        }
    }
    for w in &output.warnings {
        if let Some(view) = w.view() {
            if views.is_view(view) {
                blame.entry(view.clone()).or_default().push(w.to_string());
            }
        }
    }

    let report = RestrictionReport {
        profiles: view_profiles(views),
        output_classes: output
            .deps
            .iter()
            .map(|d| (d.name.clone(), d.class()))
            .collect(),
        problematic: blame
            .into_iter()
            .map(|(view, reasons)| ProblematicView { view, reasons })
            .collect(),
        has_deds: !output.is_ded_free(),
        warnings: output.warnings.clone(),
    };
    Ok((report, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::{parse_dependency, parse_program};

    const PAPER_VIEWS: &str = r#"
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

    #[test]
    fn negation_depths_of_paper_views() {
        let prog = parse_program(PAPER_VIEWS).unwrap();
        let d = |view: &str| prog.views.negation_depth(view);
        assert_eq!(d("Product"), Some(0));
        assert_eq!(d("PopularProduct"), Some(1));
        assert_eq!(d("AvgProduct"), Some(2));
        assert_eq!(d("UnpopularProduct"), Some(3));
        assert_eq!(d("T_Product"), None);
    }

    #[test]
    fn profiles_capture_unions_and_negations() {
        let prog = parse_program("view V(x) <- A(x).\nview V(x) <- B(x), not C(x).").unwrap();
        let profiles = view_profiles(&prog.views);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.union_width, 2);
        assert_eq!(p.negation_depth, 1);
        assert_eq!(p.negated_predicates, vec![Arc::from("C")]);
    }

    #[test]
    fn prediction_conjunctive_views_no_deds() {
        let prog = parse_program("view V(x, n) <- A(x, n).").unwrap();
        let egd = parse_dependency("egd e: V(x1, n), V(x2, n) -> x1 = x2.").unwrap();
        assert!(!predicts_deds(&prog.views, &egd));
        let (report, _) = analyze(&prog.views, &[egd], &RewriteOptions::default()).unwrap();
        assert!(!report.has_deds);
        assert!(report.problematic.is_empty());
    }

    #[test]
    fn prediction_negated_view_in_premise_gives_deds() {
        let prog = parse_program(PAPER_VIEWS).unwrap();
        let egd = parse_dependency(
            "egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.",
        )
        .unwrap();
        assert!(predicts_deds(&prog.views, &egd));
        let (report, output) = analyze(&prog.views, &[egd], &RewriteOptions::default()).unwrap();
        assert!(report.has_deds);
        assert!(!output.is_ded_free());
        // PopularProduct is blamed.
        assert!(report
            .problematic
            .iter()
            .any(|p| p.view.as_ref() == "PopularProduct"));
    }

    #[test]
    fn prediction_is_conservative_but_sound() {
        // predicts_deds == false must imply a ded-free rewriting.
        let cases = [
            ("view V(x) <- A(x).", "tgd m: S(x) -> V(x)."),
            ("view V(x) <- A(x), not B(x).", "tgd m: S(x) -> V(x)."),
            ("view V(x) <- A(x).", "egd e: V(x), V(y) -> x = y."),
        ];
        for (views_text, dep_text) in cases {
            let prog = parse_program(views_text).unwrap();
            let dep = parse_dependency(dep_text).unwrap();
            let predicted = predicts_deds(&prog.views, &dep);
            let (report, _) = analyze(&prog.views, &[dep], &RewriteOptions::default()).unwrap();
            if !predicted {
                assert!(!report.has_deds, "unsound prediction for {dep_text}");
            }
        }
    }

    #[test]
    fn union_view_in_conclusion_predicted() {
        let prog = parse_program("view V(x) <- A(x).\nview V(x) <- B(x).").unwrap();
        let dep = parse_dependency("tgd m: S(x) -> V(x).").unwrap();
        assert!(predicts_deds(&prog.views, &dep));
        let (report, _) = analyze(&prog.views, &[dep], &RewriteOptions::default()).unwrap();
        assert!(report.has_deds);
    }

    #[test]
    fn deep_negation_blamed_in_report() {
        let prog = parse_program(PAPER_VIEWS).unwrap();
        let dep = parse_dependency(
            "tgd m0: S_Product(pid, name, store, rating), rating < 2 \
             -> UnpopularProduct(pid, name).",
        )
        .unwrap();
        let (report, _) = analyze(&prog.views, &[dep], &RewriteOptions::default()).unwrap();
        // The nesting through PopularProduct triggers a dropped-negation
        // strengthening which the report surfaces.
        assert!(!report.problematic.is_empty());
        let text = report.to_string();
        assert!(text.contains("negation_depth=3"));
    }

    #[test]
    fn report_displays() {
        let prog = parse_program("view V(x) <- A(x).").unwrap();
        let dep = parse_dependency("tgd m: S(x) -> V(x).").unwrap();
        let (report, _) = analyze(&prog.views, &[dep], &RewriteOptions::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("ded-free"));
        assert!(text.contains("no problematic views"));
    }
}
