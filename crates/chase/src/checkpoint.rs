//! Sweep-aligned chase checkpoints.
//!
//! The sweep driver ([`crate::sweep`]) interrupts only at a sweep boundary,
//! under every scheduler mode: the sweep's equality obligations have been
//! substituted into the instance, every insert sits in the master instance
//! past its readers' watermarks, and the null generator cursor is past every
//! allocated label. A [`Checkpoint`] captures exactly that state —
//! instance, per-dependency pending work, flattened `NullMap`, null cursor,
//! and the round count — and [`chase_resume`] continues from it to a final
//! instance that is `canonical_render`-identical to an uninterrupted run.
//!
//! ## The envelope
//!
//! Checkpoints serialize through the JSON layer of `grom-trace`; the
//! instance rides inside a JSON string in the fact-per-line text format of
//! `grom_data::write_instance`, so the file stays greppable and the value
//! grammar lives in one place. Writing an instance drops its tombstones and
//! renumbers its slots, so the worklist is stored slot-free: envelope
//! **v3** holds, per dependency, `idle`, `full`, or `delta` with the
//! **count of trailing rows** of each premise relation the dependency has
//! yet to see (`"new":{"R":3}`). Versions 1 and 2 carried those rows as
//! tuple text (v2 with the counts beside them); they still load, each list
//! reduced to its length once it is checked to be the relation's trailing
//! rows. No input can panic the loader: an unknown version, a count for a
//! relation the dependency does not read, a count larger than the
//! relation, or a list that is not a suffix of its relation is an `Err`.

use std::sync::Arc;

use grom_data::{read_instance, write_instance, Instance, NullId, Relation, Value};
use grom_lang::{Dependency, Literal};
use grom_trace::json::{self, JsonObject, JsonValue};

use crate::config::ChaseConfig;
use crate::nullmap::NullMap;
use crate::result::{ChaseError, ChaseResult};
use crate::scheduler::Pending;

/// The relation name carrying the flattened null map in serialized form:
/// one row `__nullmap(N<label>, value)` per mapped label.
const NULLMAP_REL: &str = "__nullmap";

/// A resumable snapshot of an interrupted chase, captured at a sweep
/// boundary. Construct via an interrupted run (see
/// [`crate::Interrupted`]); re-hydrate from disk with
/// [`Checkpoint::from_json`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Scheduler mode of the interrupted run (`delta`, `full_rescan`,
    /// `parallel<n>`). Informational: resume follows the *config*'s mode,
    /// and the pending worklist is valid under any of them.
    mode: String,
    /// Rounds completed before the interruption; resume continues the
    /// round count from here so `max_rounds` stays cumulative.
    rounds: usize,
    /// Null-generator cursor: the next fresh label.
    next_null: u64,
    /// The instance-so-far (sources plus everything derived).
    instance: Instance,
    /// Flattened equality obligations, sorted by label: `label -> value`.
    nullmap: Vec<(u64, Value)>,
    /// Per-dependency pending work, index-aligned with the dependency set.
    pending: Vec<Pending>,
}

impl Checkpoint {
    pub(crate) fn capture(
        mode: &str,
        rounds: usize,
        next_null: u64,
        instance: &Instance,
        nullmap: &mut NullMap,
        pending: Vec<Pending>,
    ) -> Checkpoint {
        let mut flat: Vec<(u64, Value)> = nullmap
            .flatten()
            .into_iter()
            .map(|(NullId(label), v)| (label, v))
            .collect();
        flat.sort_by_key(|(label, _)| *label);
        Checkpoint {
            mode: mode.to_string(),
            rounds,
            next_null,
            instance: instance.clone(),
            nullmap: flat,
            pending,
        }
    }

    pub fn mode(&self) -> &str {
        &self.mode
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Map interned symbols back to plain strings everywhere a value can
    /// hide: the instance and the null map (the worklist holds counts).
    pub(crate) fn unintern(&mut self) {
        self.instance.unintern();
        for (_, v) in &mut self.nullmap {
            v.unintern();
        }
    }

    /// Rebuild the loop state this checkpoint froze. Fails when the
    /// checkpoint's worklist does not fit `deps` (a resume against a
    /// different program): another number of dependencies, or new rows
    /// counted for a relation the dependency's premise does not read.
    pub(crate) fn restore(&self, deps: &[Dependency]) -> Result<ResumeState, ChaseError> {
        let misfit = |reason: String| ChaseError::NotExecutable {
            dependency: Arc::from("__checkpoint"),
            reason,
        };
        if self.pending.len() != deps.len() {
            return Err(misfit(format!(
                "checkpoint worklist covers {} dependencies, program has {}",
                self.pending.len(),
                deps.len()
            )));
        }
        for (dep, pending) in deps.iter().zip(&self.pending) {
            let reads = |rel: &Arc<str>| {
                let mut premise = dep.premise.iter();
                premise.any(|l| matches!(l, Literal::Pos(a) if a.predicate == *rel))
            };
            let Pending::New(counts) = pending else {
                continue;
            };
            if let Some((rel, _)) = counts.iter().find(|(rel, _)| !reads(rel)) {
                return Err(misfit(format!(
                    "checkpoint counts new rows of `{rel}` for `{}`, whose premise does not read it",
                    dep.name
                )));
            }
        }
        let mut nullmap = NullMap::new();
        for (label, v) in &self.nullmap {
            // Re-unifying label -> value reproduces the flattened mapping:
            // constants win, and flatten targets are always the lowest
            // label of their class, so orientation is preserved.
            let _ = nullmap.unify(&Value::Null(NullId(*label)), v);
        }
        Ok(ResumeState {
            inst: self.instance.clone(),
            rounds: self.rounds,
            next_null: self.next_null,
            nullmap,
            pending: self.pending.clone(),
        })
    }

    // ------------------------------------------------------------- json --

    pub fn to_json(&self) -> String {
        let pending = self.pending.iter().map(|p| {
            let mut entry = JsonObject::new();
            match p {
                Pending::Full => entry.str("kind", "full"),
                Pending::New(counts) if counts.is_empty() => entry.str("kind", "idle"),
                Pending::New(counts) => {
                    let mut new = JsonObject::new();
                    for (rel, n) in counts {
                        new.usize(rel, *n);
                    }
                    entry.str("kind", "delta").object("new", new)
                }
            };
            entry
        });
        let mut out = JsonObject::new();
        out.u64("version", 3)
            .str("mode", &self.mode)
            .usize("rounds", self.rounds)
            .u64("next_null", self.next_null)
            .str("instance", &write_instance(&self.instance))
            .str(
                "nullmap",
                &write_instance(&nullmap_to_instance(&self.nullmap)),
            )
            .array("pending", pending);
        out.finish()
    }

    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v = json::parse(text)?;
        let field = |key: &str| v.get(key).ok_or(format!("checkpoint has no {key}"));
        let number = |key: &str| {
            let n = field(key)?.as_u64();
            n.ok_or(format!("checkpoint {key} is not a count"))
        };
        let text = |key: &str| {
            let s = field(key)?.as_str();
            s.ok_or(format!("checkpoint {key} is not a string"))
        };
        let version = number("version")?;
        if !(1..=3).contains(&version) {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let instance =
            read_instance(text("instance")?).map_err(|e| format!("checkpoint instance: {e}"))?;
        let nullmap =
            read_instance(text("nullmap")?).map_err(|e| format!("checkpoint nullmap: {e}"))?;
        let JsonValue::Arr(items) = field("pending")? else {
            return Err("checkpoint pending is not an array".into());
        };
        let mut pending = Vec::with_capacity(items.len());
        for item in items {
            let kind = item.get("kind").and_then(JsonValue::as_str);
            pending.push(match kind.ok_or("pending entry has no kind")? {
                "idle" => Pending::New(Vec::new()),
                "full" => Pending::Full,
                "delta" if version == 3 => Pending::New(new_row_counts(item, &instance)?),
                "delta" => Pending::New(trailing_rows(item, &instance)?),
                other => return Err(format!("unknown pending kind `{other}`")),
            });
        }
        Ok(Checkpoint {
            mode: text("mode")?.to_string(),
            rounds: number("rounds")? as usize,
            next_null: number("next_null")?,
            instance,
            nullmap: instance_to_nullmap(&nullmap)?,
            pending,
        })
    }
}

/// A v3 delta entry: `"new":{relation: count}`, no count beyond what the
/// relation holds.
fn new_row_counts(item: &JsonValue, instance: &Instance) -> Result<Vec<(Arc<str>, usize)>, String> {
    let Some(JsonValue::Obj(new)) = item.get("new") else {
        return Err("delta pending entry has no counts".into());
    };
    let mut counts = Vec::with_capacity(new.len());
    for (rel, n) in new {
        let n = n
            .as_u64()
            .ok_or(format!("new-row count of `{rel}` is not a count"))?;
        let stored = instance.relation(rel).map_or(0, Relation::len);
        if n > stored as u64 {
            return Err(format!(
                "checkpoint counts {n} new rows of `{rel}`, which holds {stored}"
            ));
        }
        counts.push((Arc::from(rel.as_str()), n as usize));
    }
    Ok(counts)
}

/// A v1/v2 delta entry: the unseen rows as tuple text, which must be the
/// trailing rows of their relation; reduced to their number.
fn trailing_rows(item: &JsonValue, instance: &Instance) -> Result<Vec<(Arc<str>, usize)>, String> {
    let text = item.get("tuples").and_then(JsonValue::as_str);
    let text = text.ok_or("delta pending entry has no tuples")?;
    let lists = read_instance(text).map_err(|e| format!("checkpoint delta: {e}"))?;
    let mut counts = Vec::new();
    for rel in lists.relation_names() {
        let n = lists.tuples(rel).count();
        let stored = instance.relation(rel).map_or(0, Relation::len);
        let tail = instance.tuples(rel).skip(stored.saturating_sub(n));
        if n > stored || !tail.eq(lists.tuples(rel)) {
            return Err(format!(
                "the {n} pending tuples of `{rel}` are not the relation's trailing rows"
            ));
        }
        counts.push((rel.clone(), n));
    }
    Ok(counts)
}

/// Run state rebuilt from a checkpoint (or built fresh at chase entry):
/// what the sweep driver starts from.
pub(crate) struct ResumeState {
    pub inst: Instance,
    pub rounds: usize,
    pub next_null: u64,
    pub nullmap: NullMap,
    pub pending: Vec<Pending>,
}

impl ResumeState {
    /// Fresh state for a run starting at `start`: no rounds, every
    /// dependency scheduled for its first full scan.
    pub(crate) fn fresh(start: Instance, deps: &[Dependency]) -> ResumeState {
        let next_null = start.max_null_label().map_or(0, |l| l + 1);
        ResumeState {
            inst: start,
            rounds: 0,
            next_null,
            nullmap: NullMap::new(),
            pending: vec![Pending::Full; deps.len()],
        }
    }
}

fn nullmap_to_instance(pairs: &[(u64, Value)]) -> Instance {
    let mut out = Instance::new();
    for (label, v) in pairs {
        out.add(NULLMAP_REL, vec![Value::Null(NullId(*label)), v.clone()])
            .expect("nullmap rows share one arity");
    }
    out
}

fn instance_to_nullmap(inst: &Instance) -> Result<Vec<(u64, Value)>, String> {
    let mut out = Vec::new();
    for t in inst.tuples(NULLMAP_REL) {
        match (t.get(0), t.get(1)) {
            (Some(Value::Null(NullId(label))), Some(v)) => out.push((*label, v.clone())),
            _ => return Err("malformed nullmap row".into()),
        }
    }
    Ok(out)
}

/// Continue an interrupted chase from `checkpoint` under `config`'s
/// scheduler mode (any mode resumes any checkpoint: the pending worklist
/// is mode-agnostic, and the full-rescan reference simply rescans). `deps` must
/// be the same dependency set, in the same order, as the interrupted run.
///
/// The resumed run is itself budget-aware: it can complete, interrupt
/// again ([`ChaseError::Interrupted`]; fresh budget, cumulative round
/// count), or fail hard, exactly like a fresh chase.
pub fn chase_resume(
    checkpoint: &Checkpoint,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    let state = checkpoint.restore(deps)?;
    crate::sweep::run_chase(state, deps, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::parse_program;

    fn sample() -> Checkpoint {
        let mut inst = Instance::new();
        inst.add("S", vec![Value::int(0), Value::str("old")])
            .unwrap();
        inst.add("S", vec![Value::int(1), Value::str("a\"b")])
            .unwrap();
        inst.add("T", vec![Value::null(3), Value::bool(true)])
            .unwrap();
        let mut nullmap = NullMap::new();
        let _ = nullmap.unify(&Value::null(5), &Value::int(9));
        let _ = nullmap.unify(&Value::null(7), &Value::null(2));
        let unseen = Pending::New(vec![(Arc::from("S"), 1)]);
        let pending = vec![Pending::New(Vec::new()), Pending::Full, unseen];
        Checkpoint::capture("delta", 4, 11, &inst, &mut nullmap, pending)
    }

    /// A program the sample's worklist fits: the third dependency reads S.
    const FITTING: &str = "tgd a: S(x, y) -> T(x, y).\n\
                           tgd b: T(x, y) -> U(x).\n\
                           tgd c: S(x, y), U(x) -> V(x).";

    #[test]
    fn json_round_trip_preserves_everything() {
        let cp = sample();
        let text = cp.to_json();
        // The envelope is valid JSON for the trace-layer parser.
        assert!(json::parse(&text).is_ok());
        assert!(
            text.starts_with("{\"version\":3,\"mode\":\"delta\""),
            "{text}"
        );
        // The worklist carries counts, never tuple text.
        let pending = &text[text.find("\"pending\"").unwrap()..];
        assert_eq!(
            pending,
            "\"pending\":[{\"kind\":\"idle\"},{\"kind\":\"full\"},\
             {\"kind\":\"delta\",\"new\":{\"S\":1}}]}"
        );
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back.mode, cp.mode);
        assert_eq!(back.rounds, cp.rounds);
        assert_eq!(back.next_null, cp.next_null);
        assert_eq!(back.nullmap, cp.nullmap);
        assert_eq!(write_instance(&back.instance), write_instance(&cp.instance));
        assert_eq!(back.pending, cp.pending);
    }

    #[test]
    fn restore_rejects_misaligned_programs() {
        let cp = sample();
        let p = parse_program("tgd a: S(x, y) -> T(x, y).").unwrap();
        assert!(matches!(
            cp.restore(&p.deps),
            Err(ChaseError::NotExecutable { .. })
        ));
        // Right length, but the third dependency does not read S.
        let p = parse_program(&FITTING.replace("S(x, y), U(x)", "U(x)")).unwrap();
        match cp.restore(&p.deps) {
            Err(ChaseError::NotExecutable { reason, .. }) => {
                assert!(reason.contains("does not read"), "{reason}")
            }
            other => panic!("a count for an unread relation restored: {:?}", other.err()),
        }
    }

    #[test]
    fn restore_reinstalls_the_null_map() {
        let cp = sample();
        let p = parse_program(FITTING).unwrap();
        let state = cp.restore(&p.deps).unwrap();
        let mut nm = state.nullmap;
        assert_eq!(nm.resolve(&Value::null(5)), Value::int(9));
        assert_eq!(nm.resolve(&Value::null(7)), Value::null(2));
        assert_eq!(state.rounds, 4);
        assert_eq!(state.next_null, 11);
        assert_eq!(state.pending, cp.pending);
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("{\"version\":2}").is_err());
        assert!(Checkpoint::from_json("{\"version\":3}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
        let text = sample().to_json();
        assert!(Checkpoint::from_json(&text[..40]).is_err());
        let unknown = text.replace("{\"version\":3", "{\"version\":4");
        let err = Checkpoint::from_json(&unknown).unwrap_err();
        assert!(err.contains("unsupported checkpoint version 4"), "{err}");
        // A count beyond what the relation holds, or no counts at all.
        let err = Checkpoint::from_json(&text.replace("{\"S\":1}", "{\"S\":3}")).unwrap_err();
        assert!(err.contains("3 new rows of `S`, which holds 2"), "{err}");
        let err = Checkpoint::from_json(&text.replace("{\"S\":1}", "{\"Q\":1}")).unwrap_err();
        assert!(err.contains("`Q`, which holds 0"), "{err}");
        assert!(Checkpoint::from_json(&text.replace(",\"new\":{\"S\":1}", "")).is_err());
        assert!(Checkpoint::from_json(&text.replace("{\"S\":1}", "{\"S\":-1}")).is_err());
    }

    /// The sample in the v2 envelope (v1 without the `new` record): the
    /// unseen rows as tuple text.
    fn older(version: u32, tuples: &str) -> String {
        let new = if version == 2 {
            ",\"new\":{\"S\":1}"
        } else {
            ""
        };
        let delta = format!(
            "{{\"kind\":\"delta\",\"tuples\":\"{}\"{new}}}",
            json::escape(tuples)
        );
        sample()
            .to_json()
            .replace("{\"version\":3", &format!("{{\"version\":{version}"))
            .replace("{\"kind\":\"delta\",\"new\":{\"S\":1}}", &delta)
    }

    /// Every tuple a v1 (or v2) delta list holds is new: the list loads as
    /// its length, once it is known to be its relation's trailing rows.
    #[test]
    fn v1_checkpoints_read_as_all_new() {
        let trailing = "S(1, \"a\\\"b\").\n";
        for version in [1, 2] {
            let back = Checkpoint::from_json(&older(version, trailing)).unwrap();
            assert_eq!(back.pending, sample().pending, "v{version}");
        }
        // A list that is not the relation's trailing rows is refused: an
        // older row, a row the relation does not hold, a relation it lacks.
        for stray in ["S(0, \"old\").\n", "S(9, \"x\").\n", "Q(1).\n"] {
            let err = Checkpoint::from_json(&older(2, stray)).unwrap_err();
            assert!(err.contains("not the relation's trailing rows"), "{err}");
        }
        let both = "S(0, \"old\").\nS(1, \"a\\\"b\").\n";
        let back = Checkpoint::from_json(&older(1, both)).unwrap();
        assert_eq!(back.pending[2], Pending::New(vec![(Arc::from("S"), 2)]));
    }
}
