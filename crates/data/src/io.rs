//! Plain-text instance I/O.
//!
//! Instances serialize to the same fact syntax the scenario language uses
//! (`Relation(v1, v2, …).`, one fact per line), so data files, inline
//! `fact` declarations and `Instance::to_string()` are interchangeable.
//! Labeled nulls round-trip as `N<k>` tokens — useful for saving chase
//! outputs and reloading them.

use std::sync::Arc;

use crate::error::GromError;
use crate::instance::Instance;
use crate::value::Value;

/// Historical name for [`GromError`] as raised by the fact-file reader.
/// Syntax problems surface as [`GromError::Syntax`]; storage problems (e.g.
/// arity drift between facts of one relation) surface as the underlying
/// data variant wrapped in [`GromError::AtLine`].
pub type ReadError = GromError;

/// Parse one value token: integer, quoted string, boolean, or null `N<k>`.
fn parse_value(token: &str, line: usize) -> Result<Value, ReadError> {
    let t = token.trim();
    if t.is_empty() {
        return Err(ReadError::Syntax {
            line,
            message: "empty value".into(),
        });
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Value::int(i));
    }
    if t == "true" {
        return Ok(Value::bool(true));
    }
    if t == "false" {
        return Ok(Value::bool(false));
    }
    if let Some(rest) = t.strip_prefix('N') {
        if let Ok(label) = rest.parse::<u64>() {
            return Ok(Value::null(label));
        }
    }
    if (t.starts_with('"') && t.ends_with('"') && t.len() >= 2)
        || (t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2)
    {
        return Ok(unescape(&t[1..t.len() - 1]));
    }
    Err(ReadError::Syntax {
        line,
        message: format!("cannot parse value `{t}` (quote strings)"),
    })
}

/// The string constant written between the quotes as `inner`: a backslash
/// before a quote or a backslash is dropped, any other stays.
fn unescape(inner: &str) -> Value {
    if !inner.contains('\\') {
        return Value::str(inner);
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars().peekable();
    while let Some(c) = chars.next() {
        match chars.peek() {
            Some(&next @ ('"' | '\'' | '\\')) if c == '\\' => {
                out.push(next);
                chars.next();
            }
            _ => out.push(c),
        }
    }
    Value::from(out)
}

/// Split a comma-separated argument list into `out`, honoring quotes. The
/// delimiters are ASCII, so the scan can go byte by byte.
fn split_args<'a>(body: &'a str, line: usize, out: &mut Vec<&'a str>) -> Result<(), ReadError> {
    out.clear();
    let mut start = 0;
    let mut quote: Option<u8> = None;
    let mut escaped = false;
    for (i, b) in body.bytes().enumerate() {
        match quote {
            Some(q) => {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'"' | b'\'' => quote = Some(b),
                b',' => {
                    out.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            },
        }
    }
    if quote.is_some() {
        return Err(ReadError::Syntax {
            line,
            message: "unterminated string".into(),
        });
    }
    let last = &body[start..];
    if !last.trim().is_empty() || !out.is_empty() {
        out.push(last);
    }
    Ok(())
}

/// Read an instance from fact-per-line text. Blank lines and `#`/`//`
/// comments are ignored; the trailing `.` is optional.
pub fn read_instance(text: &str) -> Result<Instance, ReadError> {
    let mut inst = Instance::new();
    // Facts of one relation come in runs: share the name between them.
    let mut rel: Option<Arc<str>> = None;
    let mut args = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        let line = line.strip_suffix('.').unwrap_or(line).trim_end();
        let open = line.find('(').ok_or_else(|| ReadError::Syntax {
            line: line_no,
            message: "expected `Relation(...)`".into(),
        })?;
        if !line.ends_with(')') {
            return Err(ReadError::Syntax {
                line: line_no,
                message: "expected closing `)`".into(),
            });
        }
        let name = line[..open].trim();
        if name.is_empty() {
            return Err(ReadError::Syntax {
                line: line_no,
                message: "missing relation name".into(),
            });
        }
        let rel = match &mut rel {
            Some(last) if **last == *name => last,
            other => other.insert(Arc::from(name)),
        };
        split_args(&line[open + 1..line.len() - 1], line_no, &mut args)?;
        let values = args
            .iter()
            .map(|token| parse_value(token, line_no))
            .collect::<Result<Vec<Value>, _>>()?;
        inst.insert(rel, values.into())
            .map_err(|e| e.at_line(line_no))?;
    }
    Ok(inst)
}

/// Serialize an instance as fact-per-line text (the format
/// [`read_instance`] reads; also valid `fact` syntax for scenario files
/// when no nulls are present).
pub fn write_instance(inst: &Instance) -> String {
    let mut out = String::new();
    inst.render_lines(".\n", |line| {
        out.push_str(line);
        Ok(())
    })
    .expect("writing into a String cannot fail");
    out
}

/// Render an instance in a form that is stable under null relabeling and
/// insertion-order differences: facts are serialized with null labels
/// replaced by *canonical ranks* and the lines sorted.
///
/// Two chase runs that produce the same instance up to a renaming of
/// labeled nulls (the usual notion of equality for universal solutions)
/// render identically; instances that differ structurally render
/// differently except for pathological automorphism cases. Ranks are
/// computed by iterated partition refinement on each null's occurrence
/// signature (relation, column, co-occurring values), so nulls are
/// distinguished by their join structure, not by their labels.
pub fn canonical_render(inst: &Instance) -> String {
    use crate::value::NullId;
    use std::collections::BTreeMap;

    let facts: Vec<_> = inst.facts().collect();
    let nulls: Vec<NullId> = {
        let mut set: std::collections::BTreeSet<NullId> = Default::default();
        for f in &facts {
            set.extend(f.tuple.nulls());
        }
        set.into_iter().collect()
    };

    // rank[n]: canonical equivalence class of null n, refined iteratively.
    let mut rank: BTreeMap<NullId, usize> = nulls.iter().map(|&n| (n, 0)).collect();
    let render_value = |v: &Value, rank: &BTreeMap<NullId, usize>| match v.as_null() {
        Some(n) => format!("?{}", rank[&n]),
        None => v.to_string(),
    };
    for _ in 0..=nulls.len() {
        // Signature of each null under the current ranking: the sorted list
        // of its occurrence contexts.
        let mut sig: BTreeMap<NullId, Vec<String>> =
            nulls.iter().map(|&n| (n, Vec::new())).collect();
        for f in &facts {
            for (col, v) in f.tuple.values().iter().enumerate() {
                if let Some(n) = v.as_null() {
                    let ctx: Vec<String> = f
                        .tuple
                        .values()
                        .iter()
                        .map(|w| render_value(w, &rank))
                        .collect();
                    sig.get_mut(&n).expect("null collected above").push(format!(
                        "{}#{col}({})",
                        f.relation,
                        ctx.join(",")
                    ));
                }
            }
        }
        let mut keyed: Vec<(Vec<String>, NullId)> = sig
            .into_iter()
            .map(|(n, mut s)| {
                s.sort();
                (s, n)
            })
            .collect();
        keyed.sort();
        let mut next = BTreeMap::new();
        let mut class = 0usize;
        for (i, (s, n)) in keyed.iter().enumerate() {
            if i > 0 && *s != keyed[i - 1].0 {
                class += 1;
            }
            next.insert(*n, class);
        }
        if next == rank {
            break;
        }
        rank = next;
    }

    let mut lines: Vec<String> = facts
        .iter()
        .map(|f| {
            let vals: Vec<String> = f
                .tuple
                .values()
                .iter()
                .map(|v| render_value(v, &rank))
                .collect();
            format!("{}({})", f.relation, vals.join(","))
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    #[test]
    fn round_trip_all_value_kinds() {
        let mut inst = Instance::new();
        inst.add(
            "R",
            vec![
                Value::int(-5),
                Value::str("hello world"),
                Value::bool(true),
                Value::null(3),
            ],
        )
        .unwrap();
        inst.add("S_Empty", vec![Value::str("")]).unwrap();
        let text = write_instance(&inst);
        let back = read_instance(&text).unwrap();
        assert_eq!(back.len(), inst.len());
        assert!(back.contains_fact(
            "R",
            &Tuple::new(vec![
                Value::int(-5),
                Value::str("hello world"),
                Value::bool(true),
                Value::null(3),
            ])
        ));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nR(1, 2).\n// trailing comment\nR(3, 4)\n";
        let inst = read_instance(text).unwrap();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn quoted_strings_with_commas_and_escapes() {
        let text = r#"R("a, b", "say \"hi\"")."#;
        let inst = read_instance(text).unwrap();
        let t: Vec<_> = inst.tuples("R").collect();
        assert_eq!(t[0].get(0), Some(&Value::str("a, b")));
        assert_eq!(t[0].get(1), Some(&Value::str("say \"hi\"")));
    }

    #[test]
    fn quotes_and_backslashes_round_trip() {
        let strings = [
            r#"say "hi""#,
            r"back\slash",
            r#"\"#,
            r#"\""#,
            r#""\"\\""#,     // nothing but escapes
            r#"é"ü\日"#,     // multi-byte characters next to escapes
            "it's, (fine).", // the other quote, a comma, the line's own syntax
            "",
        ];
        let mut inst = Instance::new();
        for (i, s) in strings.iter().enumerate() {
            inst.add("R", vec![Value::int(i as i64), Value::str(s)])
                .unwrap();
        }
        let back = read_instance(&write_instance(&inst)).unwrap();
        let read: Vec<_> = back.tuples("R").collect();
        assert_eq!(read.len(), strings.len());
        for (t, s) in read.iter().zip(strings) {
            assert_eq!(t.get(1), Some(&Value::str(s)));
        }
    }

    #[test]
    fn malformed_lines_are_errors_with_their_line() {
        for (text, needle) in [
            ("R(1).\nR(1,).", "empty value"),
            ("R(1).\nR(,).", "empty value"),
            ("R(1).\nR(1, 'open).", "unterminated"),
            ("R(1).\nR(bare, \"open).", "unterminated"),
            ("R(1).\n(1).", "missing relation name"),
            ("R(1).\nR(1", "closing"),
            ("R(1).\nR 1).", "expected `Relation"),
            ("R(1).\nR(\"a\"b).", "quote strings"),
            ("R(1).\nR(é).", "quote strings"),
        ] {
            let err = read_instance(text).unwrap_err();
            assert_eq!(err.line(), Some(2), "{text:?}");
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn relation_names_are_shared_along_a_run() {
        let inst = read_instance("R(1).\nR(2).\nS(1).\nR(3).").unwrap();
        assert_eq!(inst.relation("R").unwrap().len(), 3);
        assert_eq!(inst.relation("S").unwrap().len(), 1);
        let names: Vec<_> = inst.facts().map(|f| f.relation).collect();
        assert!(Arc::ptr_eq(&names[0], &names[2]));
    }

    #[test]
    fn null_tokens_parse() {
        let inst = read_instance("R(N0, N17).").unwrap();
        let t: Vec<_> = inst.tuples("R").collect();
        assert_eq!(t[0].get(0), Some(&Value::null(0)));
        assert_eq!(t[0].get(1), Some(&Value::null(17)));
    }

    #[test]
    fn zero_arity_facts() {
        let inst = read_instance("Flag().").unwrap();
        assert_eq!(inst.relation("Flag").unwrap().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_instance("R(1).\noops\n").unwrap_err();
        assert!(matches!(err, ReadError::Syntax { line: 2, .. }));
        let err = read_instance("R(bare_word).").unwrap_err();
        assert!(err.to_string().contains("quote strings"));
        let err = read_instance("R(\"unterminated).").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn arity_drift_detected() {
        let err = read_instance("R(1).\nR(1, 2).").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(matches!(
            err.unwrap_context(),
            ReadError::ArityMismatch {
                expected: 1,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn canonical_render_is_null_renaming_invariant() {
        // Same structure, different labels and insertion order.
        let mut a = Instance::new();
        a.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        a.add("U", vec![Value::null(0), Value::null(7)]).unwrap();
        let mut b = Instance::new();
        b.add("U", vec![Value::null(3), Value::null(1)]).unwrap();
        b.add("T", vec![Value::int(1), Value::null(3)]).unwrap();
        assert_eq!(canonical_render(&a), canonical_render(&b));
    }

    #[test]
    fn canonical_render_distinguishes_join_structure() {
        // a: the same null links T and U; b: two unrelated nulls.
        let mut a = Instance::new();
        a.add("T", vec![Value::null(0)]).unwrap();
        a.add("U", vec![Value::null(0)]).unwrap();
        let mut b = Instance::new();
        b.add("T", vec![Value::null(0)]).unwrap();
        b.add("U", vec![Value::null(1)]).unwrap();
        assert_ne!(canonical_render(&a), canonical_render(&b));
    }

    #[test]
    fn canonical_render_counts_duplicated_shapes() {
        let mut a = Instance::new();
        a.add("T", vec![Value::null(0)]).unwrap();
        a.add("T", vec![Value::null(1)]).unwrap();
        let mut b = Instance::new();
        b.add("T", vec![Value::null(0)]).unwrap();
        assert_ne!(canonical_render(&a), canonical_render(&b));
    }
}
