//! The GROM pipeline: materialize source views → rewrite → intern → chase
//! → split off the target → validate → un-intern in place.

use std::borrow::Cow;
use std::fmt;

use grom_chase::{
    chase_with_deds, ChaseConfig, ChaseError, ChaseProfile, ChaseResult, ChaseStats,
    WeakAcyclicityReport,
};
use grom_data::{DataError, Instance, SymbolTable, Value};
use grom_engine::{MaterializeError, ViewMaterialization};
use grom_lang::{Dependency, LangError, Term, ViewSet};
use grom_rewrite::{rewrite_program, RewriteError, RewriteOptions, RewriteOutput};

use crate::scenario::MappingScenario;
use crate::validate::{validate_layers, ValidationReport};

/// Options for [`MappingScenario::run`].
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    pub rewrite: RewriteOptions,
    pub chase: ChaseConfig,
    /// Skip the post-hoc soundness validation (it re-materializes the
    /// target views; disable for large benchmark runs).
    pub skip_validation: bool,
    /// Minimize the chased target towards its **core** (Fagin–Kolaitis–
    /// Popa): fold away redundant labeled nulls such as the duplicate
    /// `T_Product` rows the `SoldAt` unfolding creates in the running
    /// example. The core of a universal solution is itself a universal
    /// solution, so validation still holds. Off by default (extra cost).
    pub core_minimize: bool,
}

/// Rewrite every string constant in `deps` to its interned symbol in
/// `table`, so dependency constants compare against [`Value::Sym`] instance
/// columns by id. Non-string values pass through unchanged. The pipeline
/// calls this with the same table that interned the working instance —
/// using a different table would silently break constant/instance joins.
pub fn intern_dependencies(deps: &[Dependency], table: &mut SymbolTable) -> Vec<Dependency> {
    let mut deps = deps.to_vec();
    for dep in &mut deps {
        intern_terms(dep.terms_mut(), table);
    }
    deps
}

/// Swap each string constant among `terms` for its symbol in `table`, in
/// the order the walk visits them — the order symbol ids are handed out.
fn intern_terms<'t>(terms: impl Iterator<Item = &'t mut Term>, table: &mut SymbolTable) {
    for term in terms {
        if let Term::Const(Value::Str(s)) = term {
            *term = Term::Const(Value::Sym(table.intern(s)));
        }
    }
}

fn is_str(t: &Term) -> bool {
    matches!(t, Term::Const(Value::Str(_)))
}

/// [`intern_dependencies`] that copies only when there is something to
/// intern: a program without a single string constant — most are, view
/// ladders over keys and ratings — is handed on as it stands. (Per program,
/// not per dependency: the chase reads one contiguous `&[Dependency]`.)
fn interned_dependencies<'a>(
    deps: &'a [Dependency],
    table: &mut SymbolTable,
) -> Cow<'a, [Dependency]> {
    if deps.iter().any(|d| d.terms().any(is_str)) {
        Cow::Owned(intern_dependencies(deps, table))
    } else {
        Cow::Borrowed(deps)
    }
}

/// [`interned_dependencies`] for a view set. The copy is resolved again —
/// the one place a run builds a [`ViewSet`], and only for view rules that
/// hold a string constant.
fn interned_views<'a>(views: &'a ViewSet, table: &mut SymbolTable) -> Cow<'a, ViewSet> {
    if views.rules().iter().any(|r| r.terms().any(is_str)) {
        let mut rules = views.rules().to_vec();
        for rule in &mut rules {
            intern_terms(rule.terms_mut(), table);
        }
        Cow::Owned(ViewSet::from_rules(rules).expect("interning changes constants only"))
    } else {
        Cow::Borrowed(views)
    }
}

/// What a run certifies its chased instance against: the scenario's own
/// mappings, target constraints and target view rules, in the vocabulary
/// of the chased instance (interned through the run's table, or as they
/// stand when the instance holds plain strings).
type Certificate<'a> = (
    Cow<'a, [Dependency]>,
    Cow<'a, [Dependency]>,
    Cow<'a, ViewSet>,
);

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct ExchangeResult {
    /// The generated target instance `J_T` (target-schema relations only).
    pub target: Instance,
    /// The extents of the source views (empty when there is no source
    /// semantic schema). Empty on a resumed run
    /// ([`MappingScenario::resume`]): the checkpoint holds the extents
    /// among its relations, and nothing is materialized again.
    pub source_view_extents: Instance,
    /// Per-view tuple counts of the source materialization (the deltas
    /// reported by [`grom_engine::materialize_views_tracked`]). Empty on a
    /// resumed run, like [`ExchangeResult::source_view_extents`].
    pub source_view_counts: std::collections::BTreeMap<std::sync::Arc<str>, usize>,
    /// The rewritten program and its diagnostics.
    pub rewritten: RewriteOutput,
    /// Termination analysis of the rewritten program.
    pub wa_report: WeakAcyclicityReport,
    /// Chase statistics (rounds, nulls, scenario counts, …).
    pub chase_stats: ChaseStats,
    /// Per-dependency chase profile (wall time, activation splits, sweep
    /// phase timings; see [`grom_chase::render_report`]).
    pub chase_profile: ChaseProfile,
    /// Core-minimization statistics, when requested via
    /// [`PipelineOptions::core_minimize`].
    pub core_stats: Option<grom_chase::CoreStats>,
    /// The soundness certificate, unless validation was skipped.
    pub validation: Option<ValidationReport>,
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// Scenario-level structural problems (sides, undeclared predicates…).
    Scenario(String),
    Lang(LangError),
    Data(DataError),
    Rewrite(RewriteError),
    Materialize(MaterializeError),
    Chase(ChaseError),
}

impl PipelineError {
    pub fn scenario(msg: impl Into<String>) -> Self {
        PipelineError::Scenario(msg.into())
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Scenario(m) => write!(f, "scenario error: {m}"),
            PipelineError::Lang(e) => write!(f, "{e}"),
            PipelineError::Data(e) => write!(f, "{e}"),
            PipelineError::Rewrite(e) => write!(f, "{e}"),
            PipelineError::Materialize(e) => write!(f, "{e}"),
            PipelineError::Chase(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LangError> for PipelineError {
    fn from(e: LangError) -> Self {
        PipelineError::Lang(e)
    }
}
impl From<DataError> for PipelineError {
    fn from(e: DataError) -> Self {
        PipelineError::Data(e)
    }
}
impl From<RewriteError> for PipelineError {
    fn from(e: RewriteError) -> Self {
        PipelineError::Rewrite(e)
    }
}
impl From<MaterializeError> for PipelineError {
    fn from(e: MaterializeError) -> Self {
        PipelineError::Materialize(e)
    }
}
impl From<ChaseError> for PipelineError {
    fn from(e: ChaseError) -> Self {
        PipelineError::Chase(e)
    }
}

impl MappingScenario {
    /// Rewrite the scenario's semantic mappings into executable
    /// dependencies over the physical schemas (no chase). Source views are
    /// *not* unfolded — they are materialized at run time (the composition
    /// reduction of §3), so the rewriting only unfolds target views.
    pub fn rewrite(&self, options: &RewriteOptions) -> Result<RewriteOutput, PipelineError> {
        let deps = self.all_dependencies();
        Ok(rewrite_program(&self.target_views, deps, options)?)
    }

    /// Run the full pipeline on a source instance.
    pub fn run(
        &self,
        source: &Instance,
        options: &PipelineOptions,
    ) -> Result<ExchangeResult, PipelineError> {
        self.validate()?;
        self.typecheck_source(source)?;

        // 1. Materialize the source semantic schema (if any); its extents
        //    join the source as chase input in step 4.
        let source_views = grom_engine::materialize_views_tracked(&self.source_views, source)?;

        // 2. Rewrite against the target views.
        let rewritten = self.rewrite(&options.rewrite)?;

        // 3. Termination analysis (informational — the chase also has a
        //    round budget).
        let wa_report = grom_chase::is_weakly_acyclic(&rewritten.deps);

        // 4. Chase (greedy ded strategy when deds are present). Everything
        //    the rest of the run compares against instance columns passes
        //    through one symbol table first — source ∪ source extents
        //    (interned straight into the chase input; their vocabularies are
        //    disjoint, `validate` rejects a view named like a relation), the
        //    rewritten program, and what step 5 validates with: the
        //    scenario's own dependencies and target view rules — so every
        //    join, dedup and check from here to step 6 compares dense ids.
        //    An interrupted chase is un-interned before it propagates, so
        //    its checkpoint serializes plain strings and resumes without
        //    the run's symbol table.
        let mut table = SymbolTable::new();
        let interned = Instance::interned(&[source, &source_views.extents], &mut table);
        let deps = interned_dependencies(&rewritten.deps, &mut table);
        let certificate = (!options.skip_validation).then(|| {
            (
                interned_dependencies(&self.mappings, &mut table),
                interned_dependencies(&self.target_constraints, &mut table),
                interned_views(&self.target_views, &mut table),
            )
        });
        drop(table);
        let result = match chase_with_deds(interned, &deps, &options.chase) {
            Ok(r) => r,
            Err(ChaseError::Interrupted(mut i)) => {
                i.unintern();
                return Err(PipelineError::Chase(ChaseError::Interrupted(i)));
            }
            Err(e) => return Err(e.into()),
        };
        drop(deps);
        self.finish(
            result,
            certificate,
            options,
            rewritten,
            wa_report,
            source_views,
        )
    }

    /// The pipeline after the chase, for [`MappingScenario::run`] and
    /// [`MappingScenario::resume`] alike.
    ///
    /// 5. The chased instance is source ∪ source extents ∪ target, indexed
    ///    and (on a fresh run) interned: split it by moving each relation
    ///    whole into `target` (target-schema names) or `rest`, minimize the
    ///    target towards its core when asked, and certify it as it stands
    ///    unless `certificate` is `None` — `rest`, `target` and
    ///    `Υ_T(target)` read as one database, the chase's indexes still in
    ///    place. Unless there are target views: then `Υ_T(target)` is about
    ///    to be allocated beside all of it, and the indexes are the part
    ///    that can be given back first (validation rebuilds the few it
    ///    probes) — kept, they put the run's peak here instead of in the
    ///    chase.
    /// 6. Only then do the symbols turn back into plain strings, inside the
    ///    rows the chase built: no `Sym` reaches the caller.
    fn finish(
        &self,
        chased: ChaseResult,
        certificate: Option<Certificate<'_>>,
        options: &PipelineOptions,
        rewritten: RewriteOutput,
        wa_report: WeakAcyclicityReport,
        source_views: ViewMaterialization,
    ) -> Result<ExchangeResult, PipelineError> {
        let (mut target, mut rest) = chased
            .instance
            .partition(|name| self.target_schema.contains(name));
        let core_stats = options
            .core_minimize
            .then(|| grom_chase::core_minimize(&mut target));
        let validation = match &certificate {
            Some((mappings, constraints, views)) => {
                if !views.is_empty() {
                    target.forget_indexes();
                    rest.forget_indexes();
                }
                Some(validate_layers(
                    &[&rest],
                    &target,
                    views,
                    mappings.iter().chain(constraints.iter()),
                )?)
            }
            None => None,
        };
        drop(rest);
        target.unintern();

        Ok(ExchangeResult {
            target,
            source_view_extents: source_views.extents,
            source_view_counts: source_views.per_view,
            rewritten,
            wa_report,
            chase_stats: chased.stats,
            chase_profile: chased.profile,
            core_stats,
            validation,
        })
    }

    /// Project a chased instance down to the target schema as plain
    /// strings: a copy of the target relations, un-interned the way
    /// [`MappingScenario::run`] un-interns the ones it owns.
    pub fn extract_target(&self, chased: &Instance) -> Result<Instance, PipelineError> {
        let mut target = chased.restricted(|name| self.target_schema.contains(name));
        target.unintern();
        Ok(target)
    }

    /// Continue an interrupted pipeline run from a chase checkpoint: `run`
    /// with the chase continued from `checkpoint` instead of started from a
    /// source. Everything after the chase is `run`'s — the target split
    /// off, core-minimized when asked, validated unless skipped.
    ///
    /// The scenario is re-rewritten to recover the dependency set the
    /// checkpoint's worklist is aligned with; source materialization is
    /// skipped — the checkpoint instance already contains the sources and
    /// their view extents, which validation reads as the source side.
    /// Interning is likewise skipped: checkpoints always store plain
    /// strings (see [`grom_chase::Interrupted::unintern`]). A budget,
    /// cancellation or fault stop is
    /// `Err(PipelineError::Chase(ChaseError::Interrupted(_)))`, as in `run`.
    ///
    /// Scenarios whose rewriting produces disjunctive embedded
    /// dependencies chase a *derived* dependency set per ded scenario; a
    /// checkpoint from such a run resumes exactly only under the same
    /// derived set, which this method does not reconstruct — it fails up
    /// front instead of resuming against the wrong program.
    pub fn resume(
        &self,
        checkpoint: &grom_chase::Checkpoint,
        options: &PipelineOptions,
    ) -> Result<ExchangeResult, PipelineError> {
        self.validate()?;
        let rewritten = self.rewrite(&options.rewrite)?;
        if !rewritten.is_ded_free() {
            return Err(PipelineError::scenario(
                "cannot resume a checkpoint for a scenario with disjunctive \
                 dependencies: the ded campaign chases derived programs the \
                 checkpoint worklist is not aligned with",
            ));
        }
        let wa_report = grom_chase::is_weakly_acyclic(&rewritten.deps);
        let result = grom_chase::chase_resume(checkpoint, &rewritten.deps, &options.chase)?;
        let certificate = (!options.skip_validation).then(|| {
            (
                Cow::Borrowed(&self.mappings[..]),
                Cow::Borrowed(&self.target_constraints[..]),
                Cow::Borrowed(&self.target_views),
            )
        });
        let source_views = ViewMaterialization {
            extents: Instance::new(),
            per_view: Default::default(),
        };
        self.finish(
            result,
            certificate,
            options,
            rewritten,
            wa_report,
            source_views,
        )
    }

    /// Check a source instance against the source schema: every relation
    /// declared, every tuple well-typed.
    pub fn typecheck_source(&self, source: &Instance) -> Result<(), PipelineError> {
        for name in source.relation_names() {
            let Some(rel_schema) = self.source_schema.relation(name) else {
                return Err(PipelineError::scenario(format!(
                    "source instance populates `{name}`, which is not in the source schema"
                )));
            };
            for t in source.tuples(name) {
                rel_schema.check_tuple(t)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_chase::SchedulerMode;
    use grom_data::{Tuple, Value};
    use grom_lang::Program;

    fn paper_scenario() -> MappingScenario {
        let prog = Program::parse(crate::scenario::tests::PAPER_SCENARIO).unwrap();
        MappingScenario::from_program(&prog).unwrap()
    }

    fn paper_source() -> Instance {
        let mut s = Instance::new();
        // (id, name, store, rating)
        for (id, name, store, rating) in [
            (1, "tv", "acme", 5),
            (2, "radio", "acme", 3),
            (3, "fridge", "bestbuy", 1),
        ] {
            s.add(
                "S_Product",
                vec![
                    Value::int(id),
                    Value::str(name),
                    Value::str(store),
                    Value::int(rating),
                ],
            )
            .unwrap();
        }
        for (name, loc) in [("acme", "rome"), ("bestbuy", "milan")] {
            s.add("S_Store", vec![Value::str(name), Value::str(loc)])
                .unwrap();
        }
        s
    }

    #[test]
    fn paper_running_example_end_to_end() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();

        // Every product id lands in T_Product. (The universal solution may
        // contain extra tuples with labeled nulls — e.g. the SoldAt
        // unfolding re-derives products — so count distinct ids.)
        let mut pids: Vec<i64> = res
            .target
            .tuples("T_Product")
            .filter_map(|t| t.get(0).unwrap().as_int())
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, vec![1, 2, 3]);
        // The average product (rating 3) needs a 1-rating witness; the
        // unpopular one (rating 1) needs a 0-rating witness.
        let ratings: Vec<&Tuple> = res.target.tuples("T_Rating").collect();
        assert!(ratings.len() >= 2, "ratings: {ratings:?}");
        // Stores are created with invented ids.
        assert!(res.target.tuples("T_Store").count() >= 2);

        // The soundness certificate holds.
        let validation = res.validation.unwrap();
        assert!(validation.ok, "{validation}");

        // e0 over negated views makes the rewritten program contain deds.
        assert!(!res.rewritten.is_ded_free());
    }

    #[test]
    fn classification_respects_view_semantics() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        // Materialize the target views over J_T and check the product
        // classification matches the source ratings.
        let extents = grom_engine::materialize_views(&sc.target_views, &res.target).unwrap();
        let ids = |view: &str| -> Vec<i64> {
            let mut v: Vec<i64> = extents
                .tuples(view)
                .map(|t| t.get(0).unwrap().as_int().unwrap())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(ids("PopularProduct"), vec![1]);
        assert_eq!(ids("AvgProduct"), vec![2]);
        assert_eq!(ids("UnpopularProduct"), vec![3]);
    }

    #[test]
    fn key_conflict_makes_chase_fail() {
        // Two distinct popular products with the same name violate e0; the
        // rewritten ded d0 lets the chase invent a 0-rating for one of them
        // — but then that product must not be popular, which m2 forces it
        // to be: the pipeline must fail (paper: "we say nothing about the
        // cases in which the rewritten mappings fail").
        let sc = paper_scenario();
        let mut source = Instance::new();
        for (id, name) in [(1, "tv"), (2, "tv")] {
            source
                .add(
                    "S_Product",
                    vec![
                        Value::int(id),
                        Value::str(name),
                        Value::str("acme"),
                        Value::int(5),
                    ],
                )
                .unwrap();
        }
        source
            .add("S_Store", vec![Value::str("acme"), Value::str("rome")])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default());
        assert!(
            matches!(res, Err(PipelineError::Chase(_))),
            "expected chase failure, got {res:?}"
        );
    }

    #[test]
    fn source_views_materialize_and_feed_mappings() {
        let prog = Program::parse(
            r#"
            schema source { S_Emp(name: string, salary: int); }
            schema target { T_Rich(name: string); }
            view RichEmp(n) <- S_Emp(n, s), s > 100.
            tgd m: RichEmp(n) -> T_Rich(n).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source
            .add("S_Emp", vec![Value::str("ann"), Value::int(200)])
            .unwrap();
        source
            .add("S_Emp", vec![Value::str("bob"), Value::int(50)])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(res.source_view_extents.tuples("RichEmp").count(), 1);
        let rich: Vec<_> = res.target.tuples("T_Rich").collect();
        assert_eq!(rich.len(), 1);
        assert_eq!(rich[0].get(0), Some(&Value::str("ann")));
        assert!(res.validation.unwrap().ok);
    }

    #[test]
    fn source_view_counts_reported() {
        let prog = Program::parse(
            r#"
            schema source { S_Emp(name: string, salary: int); }
            schema target { T_Rich(name: string); }
            view RichEmp(n) <- S_Emp(n, s), s > 100.
            tgd m: RichEmp(n) -> T_Rich(n).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source
            .add("S_Emp", vec![Value::str("ann"), Value::int(200)])
            .unwrap();
        source
            .add("S_Emp", vec![Value::str("cyn"), Value::int(300)])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(res.source_view_counts["RichEmp"], 2);
    }

    #[test]
    fn full_rescan_scheduler_agrees_with_delta_default() {
        let sc = paper_scenario();
        let delta = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        let naive_opts = PipelineOptions {
            chase: ChaseConfig::default().with_scheduler(SchedulerMode::FullRescan),
            ..Default::default()
        };
        let naive = sc.run(&paper_source(), &naive_opts).unwrap();
        assert!(delta.validation.unwrap().ok);
        assert!(naive.validation.unwrap().ok);
        // Identical targets up to null relabeling.
        assert_eq!(
            grom_data::canonical_render(&delta.target),
            grom_data::canonical_render(&naive.target)
        );
        // The delta run actually exercised delta scheduling.
        assert!(delta.chase_stats.delta_activations > 0);
        assert_eq!(naive.chase_stats.delta_activations, 0);
    }

    #[test]
    fn parallel_pipeline_agrees_with_sequential() {
        let sc = paper_scenario();
        let seq = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        let par_opts = PipelineOptions {
            chase: ChaseConfig::default().with_scheduler(SchedulerMode::with_threads(4)),
            ..Default::default()
        };
        let par = sc.run(&paper_source(), &par_opts).unwrap();
        assert!(par.validation.unwrap().ok);
        assert_eq!(
            grom_data::canonical_render(&seq.target),
            grom_data::canonical_render(&par.target)
        );
    }

    #[test]
    fn typecheck_rejects_bad_source() {
        let sc = paper_scenario();
        let mut source = Instance::new();
        source.add("Unknown", vec![Value::int(1)]).unwrap();
        let err = sc.run(&source, &PipelineOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not in the source schema"));

        let mut source = Instance::new();
        source
            .add("S_Store", vec![Value::int(3), Value::str("x")])
            .unwrap();
        let err = sc.run(&source, &PipelineOptions::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Data(_)));
    }

    #[test]
    fn empty_source_gives_empty_target() {
        let sc = paper_scenario();
        let res = sc
            .run(&Instance::new(), &PipelineOptions::default())
            .unwrap();
        assert!(res.target.is_empty());
        assert!(res.validation.unwrap().ok);
    }

    #[test]
    fn skip_validation_option() {
        let sc = paper_scenario();
        let opts = PipelineOptions {
            skip_validation: true,
            ..Default::default()
        };
        let res = sc.run(&paper_source(), &opts).unwrap();
        assert!(res.validation.is_none());
    }

    #[test]
    fn core_minimization_folds_redundant_witnesses() {
        // Two mappings target T: one with an existential witness, one with
        // concrete data. The restricted chase (visiting `a` before `b`)
        // leaves a redundant T(1, N) beside T(1, 5); the core folds it and
        // the result still validates (the core of a universal solution is a
        // universal solution).
        let prog = Program::parse(
            r#"
            schema source { S(x: int); S2(x: int, y: int); }
            schema target { T(x: int, y: int); }
            view V(x) <- T(x, y).
            view V2(x, y) <- T(x, y).
            tgd a: S(x) -> V(x).
            tgd b: S2(x, y) -> V2(x, y).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source.add("S", vec![Value::int(1)]).unwrap();
        source
            .add("S2", vec![Value::int(1), Value::int(5)])
            .unwrap();

        let plain = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(plain.target.tuples("T").count(), 2);

        let opts = PipelineOptions {
            core_minimize: true,
            ..Default::default()
        };
        let cored = sc.run(&source, &opts).unwrap();
        let stats = cored.core_stats.unwrap();
        assert_eq!(stats.nulls_folded, 1, "{stats:?}");
        assert_eq!(cored.target.tuples("T").count(), 1);
        let t: Vec<_> = cored.target.tuples("T").collect();
        assert_eq!(t[0].get(1), Some(&Value::int(5)));
        assert!(cored.validation.unwrap().ok);
    }

    #[test]
    fn paper_scenario_is_already_core() {
        // In the running example every invented store block is linked to
        // its own product row, so nothing folds: the chase output is its
        // own core (a meaningful negative result).
        let sc = paper_scenario();
        let opts = PipelineOptions {
            core_minimize: true,
            ..Default::default()
        };
        let res = sc.run(&paper_source(), &opts).unwrap();
        assert_eq!(res.core_stats.unwrap().nulls_folded, 0);
        assert!(res.validation.unwrap().ok);
    }

    /// The dependencies a report names as violated.
    fn violated(report: &ValidationReport) -> Vec<&str> {
        let names = report.violations.iter().map(|v| v.split('`').nth(1));
        names.map(|n| n.expect("`name` in a violation")).collect()
    }

    #[test]
    fn interned_validation_names_what_string_validation_names() {
        let prog = Program::parse(
            r#"
            schema source { S_Emp(name: string, dept: string); }
            schema target { T_Emp(name: string, dept: string); T_Dept(dept: string, floor: int); }
            view Works(n, d) <- T_Emp(n, d), T_Dept(d, f).
            view Hq(n) <- T_Emp(n, "hq").
            tgd m: S_Emp(n, d) -> Works(n, d).
            tgd hq: S_Emp(n, "hq") -> Hq(n).
            egd key: T_Emp(n, d1), T_Emp(n, d2) -> d1 = d2.
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        for (n, d) in [("ann", "db"), ("bob", "hq"), ("cy", "db")] {
            source
                .add("S_Emp", vec![Value::str(n), Value::str(d)])
                .unwrap();
        }

        // `run` up to the chase, kept apart so that the chased instance
        // can be tampered with before the tail sees it.
        let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
        let mut table = SymbolTable::new();
        let interned = Instance::interned(&[&source], &mut table);
        let deps = interned_dependencies(&rewritten.deps, &mut table);
        let mappings = interned_dependencies(&sc.mappings, &mut table);
        let constraints = interned_dependencies(&sc.target_constraints, &mut table);
        let views = interned_views(&sc.target_views, &mut table);
        assert!(matches!(views, Cow::Owned(_)) && matches!(constraints, Cow::Borrowed(_)));
        let chased = chase_with_deds(interned, &deps, &ChaseConfig::default())
            .unwrap()
            .instance;

        // Both validations of one chased instance; they must name the same
        // dependencies (witnesses may differ: the layers enumerate apart).
        let verdict = |chased: Instance| -> Vec<String> {
            let copy = sc.extract_target(&chased).unwrap();
            let by_strings = crate::validate_solution(&sc, &source, &copy).unwrap();
            let (target, rest) = chased.partition(|name| sc.target_schema.contains(name));
            let own = mappings.iter().chain(constraints.iter());
            let by_ids = validate_layers(&[&rest], &target, &views, own).unwrap();
            assert_eq!(violated(&by_ids), violated(&by_strings));
            assert_eq!(by_ids.checked, by_strings.checked);
            assert_eq!(by_ids.ok, by_strings.ok);
            violated(&by_ids).into_iter().map(String::from).collect()
        };
        assert_eq!(verdict(chased.clone()), Vec::<String>::new());

        // Delete one target tuple: bob no longer works at the hq.
        let sym = |table: &mut SymbolTable, s: &str| Value::Sym(table.intern(&s.into()));
        let bob = Tuple::new(vec![sym(&mut table, "bob"), sym(&mut table, "hq")]);
        assert!(chased.contains_fact("T_Emp", &bob));
        let without = chased
            .facts()
            .filter(|f| !(f.relation.as_ref() == "T_Emp" && f.tuple == bob));
        let without = Instance::from_facts(without).unwrap();
        assert_eq!(without.len(), chased.len() - 1);
        assert_eq!(verdict(without), ["m", "hq"]);

        // Add one key-violating tuple: ann in a second department.
        let mut doubled = chased.clone();
        let moonlighting = vec![sym(&mut table, "ann"), sym(&mut table, "hq")];
        assert!(doubled.add("T_Emp", moonlighting).unwrap());
        assert_eq!(verdict(doubled), ["key"]);
    }

    #[test]
    fn constant_free_programs_are_interned_without_a_copy() {
        let sc = paper_scenario();
        let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
        let mut table = SymbolTable::new();
        // Ratings are ints: nothing to intern, nothing copied.
        assert!(matches!(
            interned_dependencies(&rewritten.deps, &mut table),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            interned_views(&sc.target_views, &mut table),
            Cow::Borrowed(_)
        ));
        assert!(table.is_empty());
        // One string constant anywhere and the program is interned whole,
        // exactly as `intern_dependencies` does it.
        let dep = grom_lang::parser::parse_dependency(r#"tgd t: S(x, "a") -> T(x, "b")."#).unwrap();
        let program = [rewritten.deps[0].clone(), dep];
        let interned = interned_dependencies(&program, &mut table);
        assert!(matches!(interned, Cow::Owned(_)));
        assert_eq!(
            interned.as_ref(),
            intern_dependencies(&program, &mut SymbolTable::new())
        );
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn wa_report_present() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        assert!(res.wa_report.weakly_acyclic, "{}", res.wa_report);
    }
}
