//! The measured op, and its staged replica.
//!
//! The op is what `grom run scenario.grom data.facts` does minus process
//! start-up: parse → scenario → read facts → `MappingScenario::run` →
//! render. [`run_op`] calls `run` as a user would; [`run_staged`] repeats
//! `run`'s stage sequence from the same public functions with one span
//! around each call, so per-layer time is measured from outside the
//! library. The two must produce the same target (checked by digest).

use grom::chase::{chase_with_deds, is_weakly_acyclic, ChaseConfig, ChaseResult, SchedulerMode};
use grom::data::{read_instance, Instance, SymbolTable};
use grom::engine::materialize_views_tracked;
use grom::lang::{Dependency, Program};
use grom::rewrite::RewriteOutput;
use grom::{intern_dependencies, validate_solution, MappingScenario, PipelineOptions, TraceHandle};

use crate::spans::Tracer;

/// A chase configuration with the scheduler pinned: `ChaseConfig::default`
/// reads `GROM_THREADS`, and a benchmark must not depend on the
/// environment.
pub fn chase_config(mode: SchedulerMode, trace: TraceHandle) -> ChaseConfig {
    ChaseConfig::default()
        .with_scheduler(mode)
        .with_trace(trace)
}

/// The CLI's defaults (typecheck, interning and validation on) with the
/// scheduler pinned.
pub fn options(mode: SchedulerMode) -> PipelineOptions {
    PipelineOptions {
        chase: chase_config(mode, TraceHandle::none()),
        ..PipelineOptions::default()
    }
}

/// What one op hands back for checking.
pub struct OpOutput {
    pub target: Instance,
    pub rendered: String,
    pub validation_ok: bool,
}

/// One untraced op.
pub fn run_op(
    scenario_text: &str,
    facts_text: &str,
    mode: SchedulerMode,
) -> Result<OpOutput, String> {
    let program = Program::parse(scenario_text).map_err(|e| e.to_string())?;
    let scenario = MappingScenario::from_program(&program).map_err(|e| e.to_string())?;
    let source = read_instance(facts_text).map_err(|e| e.to_string())?;
    let result = scenario
        .run(&source, &options(mode))
        .map_err(|e| e.to_string())?;
    let rendered = result.target.to_string();
    Ok(OpOutput {
        validation_ok: result.validation.as_ref().is_some_and(|v| v.ok),
        target: result.target,
        rendered,
    })
}

/// Everything a staged op leaves behind: the output to check, plus the
/// intermediate products the layer kernels run on.
pub struct Staged {
    pub output: OpOutput,
    pub scenario: MappingScenario,
    pub rewritten: RewriteOutput,
    /// The interned working instance the chase started from.
    pub chase_input: Instance,
    /// The rewritten dependencies with interned constants.
    pub chase_deps: Vec<Dependency>,
    pub chase: ChaseResult,
}

/// One traced op: `pipeline::run`'s stage sequence under the sequential
/// delta scheduler, one span per call into a layer. `op` tags the spans.
pub fn run_staged(
    scenario_text: &str,
    facts_text: &str,
    tracer: &mut Tracer,
    op: u32,
) -> Result<Staged, String> {
    let root = tracer.open("op", None, op);

    let s = tracer.open("lang.parse", Some(root), op);
    let program = Program::parse(scenario_text).map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("core.from_program", Some(root), op);
    let scenario = MappingScenario::from_program(&program).map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("data.read_facts", Some(root), op);
    let source = read_instance(facts_text).map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("core.typecheck", Some(root), op);
    scenario.validate().map_err(|e| e.to_string())?;
    scenario
        .typecheck_source(&source)
        .map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("engine.materialize_source", Some(root), op);
    let materialized =
        materialize_views_tracked(&scenario.source_views, &source).map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("data.working_copy", Some(root), op);
    let mut working = source.clone();
    working
        .absorb(&materialized.extents)
        .map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("rewrite.rewrite", Some(root), op);
    let rewritten = scenario
        .rewrite(&PipelineOptions::default().rewrite)
        .map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("chase.wa", Some(root), op);
    let wa = is_weakly_acyclic(&rewritten.deps);
    std::hint::black_box(&wa);
    tracer.close(s);

    let s = tracer.open("data.intern", Some(root), op);
    let mut table = SymbolTable::new();
    let chase_input = working.intern_strings(&mut table);
    let chase_deps = intern_dependencies(&rewritten.deps, &mut table);
    tracer.close(s);
    drop(working);

    // The clone is the harness keeping the chase's input for the kernels;
    // `run` moves its interned instance into the chase.
    let input = chase_input.clone();
    let s = tracer.open("chase.run", Some(root), op);
    let chase = chase_with_deds(
        input,
        &chase_deps,
        &chase_config(SchedulerMode::Delta, TraceHandle::none()),
    )
    .map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("core.extract_target", Some(root), op);
    let target = scenario
        .extract_target(&chase.instance)
        .map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("core.validate", Some(root), op);
    let validation = validate_solution(&scenario, &source, &target).map_err(|e| e.to_string())?;
    tracer.close(s);

    let s = tracer.open("data.render", Some(root), op);
    let rendered = target.to_string();
    tracer.close(s);

    tracer.close(root);
    Ok(Staged {
        output: OpOutput {
            target,
            rendered,
            validation_ok: validation.ok,
        },
        scenario,
        rewritten,
        chase_input,
        chase_deps,
        chase,
    })
}
