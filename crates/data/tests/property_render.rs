//! `Display for Instance` and `write_instance` assemble each fact in a line
//! buffer instead of going through `fmt` once per value. On random
//! instances they must print what formatting fact by fact, value by value
//! prints — spelled out here independently, escapes done a character at a
//! time — and the text must read back as the same instance.

use proptest::prelude::*;

use grom_data::{read_instance, write_instance, Instance, SymbolTable, Value};

const STRINGS: [&str; 10] = [
    "",
    "plain",
    r#"say "hi""#,
    r"back\slash",
    r#"\"#,
    r#""\"\\""#,
    r#"é"ü\日"#,
    "it's, (fine).",
    "N3",
    "zürich — 東京",
];

const INTS: [i64; 6] = [0, 7, -1, -40_000, i64::MIN, i64::MAX];

/// Strings are symbols when a table is given (one kind per instance, as
/// everywhere): they print like the strings they stand for.
fn val(sel: usize, table: Option<&mut SymbolTable>) -> Value {
    let k = sel / 4;
    match sel % 4 {
        0 => Value::int(INTS[k % INTS.len()]),
        1 => {
            let text = std::sync::Arc::from(STRINGS[k % STRINGS.len()]);
            match table {
                Some(table) => Value::Sym(table.intern(&text)),
                None => Value::Str(text),
            }
        }
        2 => Value::bool(k.is_multiple_of(2)),
        _ => Value::null([0, 12, u64::MAX][k % 3]),
    }
}

/// One value, the long way round.
fn reference_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => out.push_str(&format!("{i}")),
        Value::Bool(b) => out.push_str(&format!("{b}")),
        Value::Null(id) => out.push_str(&format!("N{}", id.0)),
        Value::Str(_) | Value::Sym(_) => {
            out.push('"');
            for c in v.as_str().unwrap().chars() {
                if c == '"' || c == '\\' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
        }
    }
}

/// Relations by name, rows in insertion order, `end` after each fact.
fn reference(inst: &Instance, end: &str) -> String {
    let mut out = String::new();
    for name in inst.relation_names() {
        for t in inst.tuples(name) {
            out.push_str(name);
            out.push('(');
            for (i, v) in t.values().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                reference_value(v, &mut out);
            }
            out.push(')');
            out.push_str(end);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_writer_prints_what_per_value_formatting_prints(
        rows in prop::collection::vec(
            (0usize..3, prop::collection::vec(0usize..120, 4)),
            0..40,
        ),
        interned in prop::bool::ANY,
    ) {
        let mut table = interned.then(SymbolTable::new);
        let mut inst = Instance::new();
        for (rel, sels) in &rows {
            // Arity per relation: Zeta/1, Alpha/2, Mid_3/3 — first-insert
            // order differs from name order.
            let name = ["Zeta", "Alpha", "Mid_3"][*rel];
            let values = sels[..rel + 1].iter().map(|&s| val(s, table.as_mut())).collect();
            inst.add(name, values).unwrap();
        }
        prop_assert_eq!(inst.to_string(), reference(&inst, "\n"));
        let text = write_instance(&inst);
        prop_assert_eq!(&text, &reference(&inst, ".\n"));
        for fact in inst.facts() {
            // The per-fact `Display` is the same writer.
            prop_assert!(text.contains(&format!("{fact}.\n")));
        }
        let back = read_instance(&text).unwrap();
        prop_assert_eq!(back.len(), inst.len());
        prop_assert_eq!(back.to_string(), inst.to_string());
        prop_assert_eq!(write_instance(&back), text);
    }
}
