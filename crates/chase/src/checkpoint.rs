//! Sweep-aligned chase checkpoints.
//!
//! The sweep driver ([`crate::sweep`]) interrupts only at a sweep boundary,
//! under every scheduler mode: the sweep's equality obligations have been
//! substituted into the instance, the delta logs have been routed into the
//! scheduler worklist, and the null generator cursor is past every
//! allocated label. A [`Checkpoint`] captures exactly that state —
//! instance, per-dependency pending work, flattened `NullMap`, null cursor,
//! and the round count — and [`chase_resume`] continues from it to a final
//! instance that is `canonical_render`-identical to an uninterrupted run.
//!
//! Checkpoints serialize through the hand-rolled JSON layer of
//! `grom-trace`; instances and delta tuples ride inside JSON strings in
//! the fact-per-line text format of `grom_data::write_instance`, so the
//! file stays greppable and the value grammar lives in one place.

use std::collections::BTreeMap;
use std::sync::Arc;

use grom_data::{read_instance, write_instance, Instance, NullId, Tuple, Value};
use grom_lang::Dependency;
use grom_trace::json::{self, JsonValue};

use crate::config::ChaseConfig;
use crate::nullmap::NullMap;
use crate::result::{ChaseError, ChaseOutcome};
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
    /// hide: the instance, the null map and the pending delta tuples.
    pub(crate) fn unintern(&mut self) {
        self.instance = self.instance.unintern_strings();
        for (_, v) in &mut self.nullmap {
            *v = v.unintern();
        }
        for p in &mut self.pending {
            if let Pending::Delta(map) = p {
                for tuples in map.values_mut() {
                    for t in tuples.iter_mut() {
                        *t = Tuple::new(t.values().iter().map(Value::unintern).collect());
                    }
                }
            }
        }
    }

    /// Rebuild the loop state this checkpoint froze. Fails when the
    /// checkpoint's worklist is not index-aligned with `deps` (a resume
    /// against a different program).
    pub(crate) fn restore(&self, deps: &[Dependency]) -> Result<ResumeState, ChaseError> {
        if self.pending.len() != deps.len() {
            return Err(ChaseError::NotExecutable {
                dependency: Arc::from("__checkpoint"),
                reason: format!(
                    "checkpoint worklist covers {} dependencies, program has {}",
                    self.pending.len(),
                    deps.len()
                ),
            });
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
        use std::fmt::Write as _;
        let mut out = String::from("{\"version\":2");
        let _ = write!(
            out,
            ",\"mode\":\"{}\",\"rounds\":{},\"next_null\":{}",
            json::escape(&self.mode),
            self.rounds,
            self.next_null
        );
        let _ = write!(
            out,
            ",\"instance\":\"{}\"",
            json::escape(&write_instance(&self.instance))
        );
        let _ = write!(
            out,
            ",\"nullmap\":\"{}\"",
            json::escape(&write_instance(&nullmap_to_instance(&self.nullmap)))
        );
        out.push_str(",\"pending\":[");
        for (i, p) in self.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match p {
                Pending::Idle => out.push_str("{\"kind\":\"idle\"}"),
                Pending::Full => out.push_str("{\"kind\":\"full\"}"),
                Pending::Delta(map) => {
                    // v2 records the old/new partition of each delta entry
                    // alongside the tuples. Every pending tuple is *new*
                    // (unclaimed work awaiting its semi-naive anchor scan),
                    // so the partition is the per-relation count of the
                    // serialized lists — written explicitly so a reader can
                    // validate the claim-time cursor arithmetic against the
                    // checkpoint instead of trusting it.
                    let di = delta_to_instance(map);
                    let _ = write!(
                        out,
                        "{{\"kind\":\"delta\",\"tuples\":\"{}\",\"new\":{{",
                        json::escape(&write_instance(&di))
                    );
                    for (j, rel) in di.relation_names().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{}\":{}", json::escape(rel), di.tuples(rel).count());
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push_str("]}");
        out
    }

    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v = json::parse(text)?;
        let version = v
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint has no version")?;
        // v1 carries the same payload without the partition record; all its
        // checkpointed delta tuples are treated as new, which is what they
        // are (pending work is never half-promoted at a sweep boundary).
        if version != 1 && version != 2 {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let mode = v
            .get("mode")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint has no mode")?
            .to_string();
        let rounds = v
            .get("rounds")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint has no rounds")? as usize;
        let next_null = v
            .get("next_null")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint has no next_null")?;
        let inst_text = v
            .get("instance")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint has no instance")?;
        let instance = read_instance(inst_text).map_err(|e| format!("checkpoint instance: {e}"))?;
        let nm_text = v
            .get("nullmap")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint has no nullmap")?;
        let nm_inst = read_instance(nm_text).map_err(|e| format!("checkpoint nullmap: {e}"))?;
        let nullmap = instance_to_nullmap(&nm_inst)?;
        let pending_json = match v.get("pending") {
            Some(JsonValue::Arr(items)) => items,
            _ => return Err("checkpoint has no pending array".into()),
        };
        let mut pending = Vec::with_capacity(pending_json.len());
        for item in pending_json {
            let kind = item
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("pending entry has no kind")?;
            pending.push(match kind {
                "idle" => Pending::Idle,
                "full" => Pending::Full,
                "delta" => {
                    let text = item
                        .get("tuples")
                        .and_then(JsonValue::as_str)
                        .ok_or("delta pending entry has no tuples")?;
                    let di = read_instance(text).map_err(|e| format!("checkpoint delta: {e}"))?;
                    let map = instance_to_delta(&di);
                    // v2 checkpoints record the partition; validate it
                    // against the parsed lists so a truncated or edited
                    // tuple block cannot silently shift the old/new split.
                    if let Some(JsonValue::Obj(counts)) = item.get("new") {
                        for (rel, count) in counts {
                            let have = map.get(rel.as_str()).map_or(0, Vec::len) as u64;
                            if count.as_u64() != Some(have) {
                                return Err(format!(
                                    "delta partition mismatch for `{rel}`: \
                                     recorded {count:?} new tuples, parsed {have}"
                                ));
                            }
                        }
                    } else if version >= 2 {
                        return Err("v2 delta pending entry has no partition record".into());
                    }
                    Pending::Delta(map)
                }
                other => return Err(format!("unknown pending kind `{other}`")),
            });
        }
        Ok(Checkpoint {
            mode,
            rounds,
            next_null,
            instance,
            nullmap,
            pending,
        })
    }
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

fn delta_to_instance(map: &BTreeMap<Arc<str>, Vec<Tuple>>) -> Instance {
    let mut out = Instance::new();
    for (rel, tuples) in map {
        for t in tuples {
            // Scheduler delta lists are duplicate-free (the delta log only
            // records genuinely new inserts), so this dedup is a no-op; it
            // also guards the trailing-rows invariant the semi-naive split
            // relies on, since a duplicate would inflate the claimed count.
            let _ = out.insert(rel, t.clone());
        }
    }
    out
}

fn instance_to_delta(inst: &Instance) -> BTreeMap<Arc<str>, Vec<Tuple>> {
    let mut out = BTreeMap::new();
    for rel in inst.relation_names() {
        let tuples: Vec<Tuple> = inst.tuples(rel).cloned().collect();
        if !tuples.is_empty() {
            out.insert(rel.clone(), tuples);
        }
    }
    out
}

/// Continue an interrupted chase from `checkpoint` under `config`'s
/// scheduler mode (any mode resumes any checkpoint: the pending worklist
/// is mode-agnostic, and the full-rescan reference simply rescans). `deps` must
/// be the same dependency set, in the same order, as the interrupted run.
///
/// The resumed run is itself budget-aware: it can complete, interrupt
/// again (fresh budget, cumulative round count), or fail hard, exactly
/// like a fresh chase.
pub fn chase_resume(
    checkpoint: &Checkpoint,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseOutcome, ChaseError> {
    let state = checkpoint.restore(deps)?;
    ChaseOutcome::from_run(crate::sweep::run_chase(state, deps, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut inst = Instance::new();
        inst.add("S", vec![Value::int(1), Value::str("a\"b")])
            .unwrap();
        inst.add("T", vec![Value::null(3), Value::bool(true)])
            .unwrap();
        let mut nullmap = NullMap::new();
        let _ = nullmap.unify(&Value::null(5), &Value::int(9));
        let _ = nullmap.unify(&Value::null(7), &Value::null(2));
        let mut delta = BTreeMap::new();
        delta.insert(
            Arc::from("S"),
            vec![Tuple::new(vec![Value::int(1), Value::str("a\"b")])],
        );
        Checkpoint::capture(
            "delta",
            4,
            11,
            &inst,
            &mut nullmap,
            vec![Pending::Idle, Pending::Full, Pending::Delta(delta)],
        )
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let cp = sample();
        let text = cp.to_json();
        // The envelope is valid JSON for the trace-layer parser.
        assert!(json::parse(&text).is_ok());
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back.mode, cp.mode);
        assert_eq!(back.rounds, cp.rounds);
        assert_eq!(back.next_null, cp.next_null);
        assert_eq!(back.nullmap, cp.nullmap);
        assert_eq!(write_instance(&back.instance), write_instance(&cp.instance));
        assert_eq!(back.pending.len(), cp.pending.len());
        assert!(matches!(back.pending[0], Pending::Idle));
        assert!(matches!(back.pending[1], Pending::Full));
        match (&back.pending[2], &cp.pending[2]) {
            (Pending::Delta(a), Pending::Delta(b)) => assert_eq!(a, b),
            other => panic!("delta slot did not round-trip: {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_misaligned_programs() {
        use grom_lang::parser::parse_program;
        let cp = sample();
        let p = parse_program("tgd a: S(x, y) -> T(x, y).").unwrap();
        assert!(matches!(
            cp.restore(&p.deps),
            Err(ChaseError::NotExecutable { .. })
        ));
    }

    #[test]
    fn restore_reinstalls_the_null_map() {
        use grom_lang::parser::parse_program;
        let cp = sample();
        let p = parse_program(
            "tgd a: S(x, y) -> T(x, y).\n\
             tgd b: T(x, y) -> U(x).\n\
             tgd c: U(x) -> V(x).",
        )
        .unwrap();
        let state = cp.restore(&p.deps).unwrap();
        let mut nm = state.nullmap;
        assert_eq!(nm.resolve(&Value::null(5)), Value::int(9));
        assert_eq!(nm.resolve(&Value::null(7)), Value::null(2));
        assert_eq!(state.rounds, 4);
        assert_eq!(state.next_null, 11);
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("{\"version\":2}").is_err());
        assert!(Checkpoint::from_json("{\"version\":3}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
        let cp = sample();
        let truncated = &cp.to_json()[..40];
        assert!(Checkpoint::from_json(truncated).is_err());
    }

    #[test]
    fn v2_envelope_records_and_validates_the_partition() {
        let cp = sample();
        let text = cp.to_json();
        assert!(text.starts_with("{\"version\":2"));
        // The sample's one delta entry holds one new S tuple.
        assert!(text.contains("\"new\":{\"S\":1}"), "{text}");
        // Tampering with the recorded partition is detected.
        let tampered = text.replace("\"new\":{\"S\":1}", "\"new\":{\"S\":7}");
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("partition mismatch"), "{err}");
        // A v2 delta entry without a partition record is rejected.
        let stripped = text.replace(",\"new\":{\"S\":1}", "");
        assert!(Checkpoint::from_json(&stripped).is_err());
    }

    #[test]
    fn v1_checkpoints_read_as_all_new() {
        // A v1 envelope is a v2 envelope without partition records; every
        // checkpointed delta tuple is treated as new.
        let cp = sample();
        let v1 = cp
            .to_json()
            .replace("{\"version\":2", "{\"version\":1")
            .replace(",\"new\":{\"S\":1}", "");
        let back = Checkpoint::from_json(&v1).unwrap();
        assert_eq!(back.mode, cp.mode);
        match (&back.pending[2], &cp.pending[2]) {
            (Pending::Delta(a), Pending::Delta(b)) => assert_eq!(a, b),
            other => panic!("v1 delta slot did not read back: {other:?}"),
        }
    }
}
