//! Mapping scenarios: the input bundle of Figure 2.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use grom_data::Schema;
use grom_lang::{Dependency, Program, ViewSet};

use crate::pipeline::PipelineError;

/// A complete GROM mapping scenario.
///
/// Dependencies are split into **mappings** (premise touches the source
/// side) and **target constraints** (premise entirely on the target side);
/// [`MappingScenario::from_program`] performs that split automatically, and
/// likewise assigns each view to the source or target semantic schema by
/// the base tables it (transitively) reads.
#[derive(Debug, Clone, Default)]
pub struct MappingScenario {
    pub source_schema: Schema,
    pub target_schema: Schema,
    /// `Υ_S`: views whose base tables all belong to the source schema.
    pub source_views: ViewSet,
    /// `Υ_T`: views whose base tables all belong to the target schema.
    pub target_views: ViewSet,
    /// `Σ_{V_S,V_T}`: source-to-target dependencies (over views or base).
    pub mappings: Vec<Dependency>,
    /// `Σ_{V_T}`: constraints over the target (semantic) schema.
    pub target_constraints: Vec<Dependency>,
}

/// Which side of the scenario a predicate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Source,
    Target,
}

impl MappingScenario {
    /// Build a scenario from a parsed [`Program`]. The program must declare
    /// schemas named `source` and `target`; views and dependencies are
    /// assigned to sides automatically. Inline facts are ignored here (load
    /// them separately into an [`grom_data::Instance`]).
    pub fn from_program(program: &Program) -> Result<MappingScenario, PipelineError> {
        program.validate().map_err(PipelineError::Lang)?;
        let source_schema = program
            .schema("source")
            .cloned()
            .ok_or_else(|| PipelineError::scenario("program declares no `source` schema"))?;
        let target_schema = program
            .schema("target")
            .cloned()
            .ok_or_else(|| PipelineError::scenario("program declares no `target` schema"))?;

        let mut scenario = MappingScenario {
            source_schema,
            target_schema,
            ..Default::default()
        };

        scenario.split_views(&program.views)?;

        for dep in &program.deps {
            match scenario.dependency_side(dep)? {
                Side::Target => scenario.target_constraints.push(dep.clone()),
                Side::Source => scenario.mappings.push(dep.clone()),
            }
        }

        scenario.validate()?;
        Ok(scenario)
    }

    /// The side of a predicate: a physical relation's schema, or a view's
    /// transitive base tables.
    fn predicate_side(&self, pred: &str) -> Option<Side> {
        if self.source_schema.contains(pred) || self.source_views.is_view(pred) {
            Some(Side::Source)
        } else if self.target_schema.contains(pred) || self.target_views.is_view(pred) {
            Some(Side::Target)
        } else {
            None
        }
    }

    /// Assign views to sides by the base tables they transitively read, in
    /// one pass along the materialization order: what a view reaches is the
    /// join of what its rules mention, and everything a rule mentions is a
    /// base table or a view already seen. Views reading no base tables at
    /// all default to the target side.
    fn split_views(&mut self, views: &ViewSet) -> Result<(), PipelineError> {
        /// The base tables below a view, as far as sides go.
        #[derive(Default, Clone)]
        struct Reach {
            source: bool,
            target: bool,
            /// The first (by name) base table in neither schema.
            stray: Option<Arc<str>>,
        }
        let mut reach: BTreeMap<&str, Reach> = BTreeMap::new();
        for view in views.materialization_order() {
            let mut r = Reach::default();
            let bodies = views.rules_of(view).flat_map(|rule| &rule.body);
            for atom in bodies.filter_map(|lit| lit.atom()) {
                let p = &atom.predicate;
                let below = reach.get(p.as_ref()).cloned().unwrap_or_else(|| {
                    let source = self.source_schema.contains(p);
                    let target = !source && self.target_schema.contains(p);
                    let stray = (!source && !target).then(|| p.clone());
                    Reach {
                        source,
                        target,
                        stray,
                    }
                });
                r.source |= below.source;
                r.target |= below.target;
                r.stray = match (r.stray.take(), below.stray) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            reach.insert(view.as_ref(), r);
        }

        let (mut source_rules, mut target_rules) = (Vec::new(), Vec::new());
        for rule in views.rules() {
            let view = &rule.head.predicate;
            let r = &reach[view.as_ref()];
            if let Some(b) = &r.stray {
                return Err(PipelineError::scenario(format!(
                    "view `{view}` reads `{b}`, which is in neither schema"
                )));
            }
            if r.source && r.target {
                return Err(PipelineError::scenario(format!(
                    "view `{view}` mixes source and target base tables"
                )));
            }
            let side = if r.source {
                &mut source_rules
            } else {
                &mut target_rules
            };
            side.push(rule.clone());
        }
        self.source_views = ViewSet::from_rules(source_rules)?;
        self.target_views = ViewSet::from_rules(target_rules)?;
        Ok(())
    }

    /// Classify a dependency: `Target` when every premise predicate lives
    /// on the target side, `Source` (a mapping) otherwise.
    fn dependency_side(&self, dep: &Dependency) -> Result<Side, PipelineError> {
        let mut any_source = false;
        for lit in &dep.premise {
            if let Some(atom) = lit.atom() {
                match self.predicate_side(&atom.predicate) {
                    Some(Side::Source) => any_source = true,
                    Some(Side::Target) => {}
                    None => {
                        return Err(PipelineError::scenario(format!(
                            "dependency `{}` mentions undeclared predicate `{}`",
                            dep.name, atom.predicate
                        )))
                    }
                }
            }
        }
        Ok(if any_source {
            Side::Source
        } else {
            Side::Target
        })
    }

    /// Structural validation beyond what `from_program` guarantees; also
    /// callable on hand-assembled scenarios.
    pub fn validate(&self) -> Result<(), PipelineError> {
        // Schemas must not share relation names (the paper's S-/T- prefix
        // convention); the chase relies on it.
        for rel in self.source_schema.relations() {
            if self.target_schema.contains(rel.name()) {
                return Err(PipelineError::scenario(format!(
                    "relation `{}` appears in both schemas; use distinct names",
                    rel.name()
                )));
            }
        }
        // Views must not collide with physical relations or each other.
        let mut seen: BTreeSet<Arc<str>> = BTreeSet::new();
        for v in self
            .source_views
            .view_names()
            .chain(self.target_views.view_names())
        {
            if self.source_schema.contains(v) || self.target_schema.contains(v) {
                return Err(PipelineError::scenario(format!(
                    "view `{v}` collides with a physical relation name"
                )));
            }
            if !seen.insert(v.clone()) {
                return Err(PipelineError::scenario(format!(
                    "view `{v}` defined on both sides"
                )));
            }
        }
        // Mappings must conclude on the target side.
        for dep in &self.mappings {
            for d in &dep.disjuncts {
                for a in &d.atoms {
                    if self.predicate_side(&a.predicate) != Some(Side::Target) {
                        return Err(PipelineError::scenario(format!(
                            "mapping `{}` concludes on non-target predicate `{}`",
                            dep.name, a.predicate
                        )));
                    }
                }
            }
        }
        // Target constraints must stay on the target side entirely.
        for dep in &self.target_constraints {
            for p in dep.predicates() {
                if self.predicate_side(&p) != Some(Side::Target) {
                    return Err(PipelineError::scenario(format!(
                        "target constraint `{}` mentions non-target predicate `{p}`",
                        dep.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// All dependencies (mappings then target constraints).
    pub fn all_dependencies(&self) -> impl Iterator<Item = &Dependency> {
        self.mappings.iter().chain(self.target_constraints.iter())
    }
}

impl fmt::Display for MappingScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema source {{")?;
        for rel in self.source_schema.relations() {
            writeln!(f, "  {rel};")?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "schema target {{")?;
        for rel in self.target_schema.relations() {
            writeln!(f, "  {rel};")?;
        }
        writeln!(f, "}}")?;
        write!(f, "{}", self.source_views)?;
        write!(f, "{}", self.target_views)?;
        for d in self.all_dependencies() {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's full running example as a program text.
    pub(crate) const PAPER_SCENARIO: &str = r#"
        schema source {
            S_Product(id: int, name: string, store: string, rating: int);
            S_Store(name: string, location: string);
        }
        schema target {
            T_Product(id: int, name: string, store: int);
            T_Store(id: int, name: string, address: string, phone: string);
            T_Rating(id: int, product: int, thumbsUp: int);
        }

        view Product(id, name) <- T_Product(id, name, store).
        view PopularProduct(pid, name) <-
            T_Product(pid, name, store), not T_Rating(rid, pid, 0).
        view AvgProduct(pid, name) <-
            T_Product(pid, name, store), T_Rating(rid, pid, 1),
            not PopularProduct(pid, name).
        view UnpopularProduct(pid, name) <-
            T_Product(pid, name, store),
            not AvgProduct(pid, name), not PopularProduct(pid, name).
        view SoldAt(pid, stid) <- T_Product(pid, pname, stid).
        view Store(id, name, addr) <- T_Store(id, name, addr, phone).

        tgd m0: S_Product(pid, name, store, rating), rating < 2
            -> UnpopularProduct(pid, name).
        tgd m1: S_Product(pid, name, store, rating), rating >= 2, rating < 4
            -> AvgProduct(pid, name).
        tgd m2: S_Product(pid, name, store, rating), rating >= 4
            -> PopularProduct(pid, name).
        tgd m3: S_Product(pid, name, store, rating), S_Store(store, location)
            -> SoldAt(pid, sid), Store(sid, store, location).

        egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.
    "#;

    #[test]
    fn paper_scenario_classifies_correctly() {
        let prog = Program::parse(PAPER_SCENARIO).unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        assert_eq!(sc.source_schema.len(), 2);
        assert_eq!(sc.target_schema.len(), 3);
        assert_eq!(sc.source_views.len(), 0);
        assert_eq!(sc.target_views.len(), 6);
        assert_eq!(sc.mappings.len(), 4);
        assert_eq!(sc.target_constraints.len(), 1);
        assert_eq!(sc.target_constraints[0].name.as_ref(), "e0");
    }

    #[test]
    fn source_views_are_classified_by_base_tables() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int); }
            view CleanA(x) <- S_A(x), x > 0.
            view TargetB(x) <- T_B(x).
            tgd m: CleanA(x) -> TargetB(x).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        assert!(sc.source_views.is_view("CleanA"));
        assert!(sc.target_views.is_view("TargetB"));
        assert_eq!(sc.mappings.len(), 1);
    }

    #[test]
    fn view_over_chained_views_resolves_base_tables() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int); }
            view V1(x) <- T_B(x).
            view V2(x) <- V1(x).
            tgd m: S_A(x) -> V2(x).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        assert!(sc.target_views.is_view("V2"));
    }

    #[test]
    fn mixed_side_view_rejected() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int); }
            view Bad(x) <- S_A(x), T_B(x).
            tgd m: S_A(x) -> T_B(x).
            "#,
        )
        .unwrap();
        let err = MappingScenario::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("mixes source and target"));
    }

    #[test]
    fn view_sides_follow_the_transitive_closure() {
        let error_of = |views: &str| {
            let text = format!(
                "schema source {{ S_A(x: int); }}\nschema target {{ T_B(x: int); }}\n\
                 {views}\ntgd m: S_A(x) -> T_B(x)."
            );
            let err = MappingScenario::from_program(&Program::parse(&text).unwrap()).unwrap_err();
            err.to_string()
        };
        // The first declared rule whose view reaches the problem is named,
        // with the first stray table by name — through lower views too.
        assert_eq!(
            error_of("view A(x) <- B(x).\nview B(x) <- Zed(x), Mystery(x)."),
            "scenario error: view `A` reads `Mystery`, which is in neither schema"
        );
        // A stray table is reported before a mix of sides.
        assert_eq!(
            error_of("view Bad(x) <- S_A(x), T_B(x), Q(x)."),
            "scenario error: view `Bad` reads `Q`, which is in neither schema"
        );
        // The source side arrives two views down, under a negation.
        assert_eq!(
            error_of("view W(x) <- T_B(x), not M(x).\nview M(x) <- L(x).\nview L(x) <- S_A(x)."),
            "scenario error: view `W` mixes source and target base tables"
        );
    }

    #[test]
    fn missing_schema_rejected() {
        let prog = Program::parse("schema source { S(x: int); }").unwrap();
        let err = MappingScenario::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("target"));
    }

    #[test]
    fn shared_relation_name_rejected() {
        let prog =
            Program::parse("schema source { R(x: int); }\nschema target { R(x: int); }").unwrap();
        let err = MappingScenario::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("both schemas"));
    }

    #[test]
    fn mapping_concluding_on_source_rejected() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int); }
            tgd m: S_A(x) -> S_A(x).
            "#,
        )
        .unwrap();
        let err = MappingScenario::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("non-target"));
    }

    #[test]
    fn undeclared_predicate_rejected() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int); }
            tgd m: Mystery(x) -> T_B(x).
            "#,
        )
        .unwrap();
        let err = MappingScenario::from_program(&prog).unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn target_only_premise_is_constraint() {
        let prog = Program::parse(
            r#"
            schema source { S_A(x: int); }
            schema target { T_B(x: int, y: int); }
            egd key: T_B(x, a), T_B(x, b) -> a = b.
            tgd m: S_A(x) -> T_B(x, y).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        assert_eq!(sc.target_constraints.len(), 1);
        assert_eq!(sc.mappings.len(), 1);
    }

    #[test]
    fn display_includes_everything() {
        let prog = Program::parse(PAPER_SCENARIO).unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let text = sc.to_string();
        assert!(text.contains("schema source"));
        assert!(text.contains("view PopularProduct"));
        assert!(text.contains("dep e0"));
    }
}
