//! Integration: the answers an exchanged target gives.
//!
//! Data exchange exists to *answer queries* on the target; these tests run
//! the pipeline and check what `J_T` (and its semantic views) hold: which
//! facts are certain, and which carry invented nulls.

use grom::prelude::*;

fn exchange() -> (MappingScenario, ExchangeResult) {
    let prog = Program::parse(
        r#"
        schema source {
            S_Emp(name: string, dept: string, salary: int);
        }
        schema target {
            T_Emp(name: string, dept: int);
            T_Dept(id: int, name: string);
        }
        view Works(n, dname) <- T_Emp(n, d), T_Dept(d, dname).
        tgd m: S_Emp(n, dname, s) -> Works(n, dname).
        egd dept_key: T_Dept(d1, n), T_Dept(d2, n) -> d1 = d2.
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let mut source = Instance::new();
    for (n, d, s) in [("ann", "db", 100), ("bob", "db", 90), ("carl", "ai", 80)] {
        source
            .add("S_Emp", vec![Value::str(n), Value::str(d), Value::int(s)])
            .unwrap();
    }
    let res = sc.run(&source, &PipelineOptions::default()).unwrap();
    (sc, res)
}

/// `T_Emp(n, d), T_Dept(d, dn)` over the target: (name, department name).
fn works_in(target: &Instance) -> Vec<(Value, Value)> {
    let mut out = Vec::new();
    for emp in target.tuples("T_Emp") {
        for dept in target.tuples("T_Dept") {
            if emp.get(1) == dept.get(0) {
                out.push((emp.get(0).unwrap().clone(), dept.get(1).unwrap().clone()));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The department id of the employee called `name`.
fn dept_of(target: &Instance, name: &str) -> Value {
    target
        .tuples("T_Emp")
        .find(|t| t.get(0) == Some(&Value::str(name)))
        .and_then(|t| t.get(1))
        .cloned()
        .expect("every employee has a row")
}

#[test]
fn certain_answers_on_exchanged_target() {
    let (_, res) = exchange();
    // Department ids are invented nulls, but the *join* through them is
    // certain: who works in which named department.
    let answers = works_in(&res.target);
    assert_eq!(answers.len(), 3);
    assert!(answers.iter().all(|(n, dn)| !n.is_null() && !dn.is_null()));
    assert!(answers.contains(&(Value::str("ann"), Value::str("db"))));
    assert!(answers.contains(&(Value::str("bob"), Value::str("db"))));
    assert!(answers.contains(&(Value::str("carl"), Value::str("ai"))));
}

#[test]
fn null_projections_are_not_certain() {
    let (_, res) = exchange();
    // Projecting the department *id* yields nulls — not certain answers.
    assert_eq!(res.target.tuples("T_Emp").count(), 3);
    assert!(["ann", "bob", "carl"]
        .iter()
        .all(|n| dept_of(&res.target, n).is_null()));
}

#[test]
fn dept_key_merges_department_ids() {
    let (_, res) = exchange();
    // The egd on T_Dept merged the two "db" department witnesses: ann and
    // bob share a department id, carl does not.
    assert_eq!(dept_of(&res.target, "ann"), dept_of(&res.target, "bob"));
    assert_ne!(dept_of(&res.target, "ann"), dept_of(&res.target, "carl"));
    // Exactly two department rows remain after the key merge.
    assert_eq!(res.target.tuples("T_Dept").count(), 2);
    assert!(res.validation.unwrap().ok);
}

#[test]
fn queries_over_materialized_semantic_views() {
    let (sc, res) = exchange();
    // The *semantic* schema: materialize Υ_T(J_T) and read Works(_, "db").
    let extents = grom::engine::materialize_views(&sc.target_views, &res.target).unwrap();
    let mut works: Vec<String> = extents.tuples("Works").map(|t| t.to_string()).collect();
    works.sort();
    assert_eq!(
        works,
        [r#"("ann", "db")"#, r#"("bob", "db")"#, r#"("carl", "ai")"#]
    );
    let in_db = extents
        .tuples("Works")
        .filter(|t| t.get(1) == Some(&Value::str("db")));
    assert_eq!(in_db.count(), 2);
}

#[test]
fn union_query_over_target() {
    let (_, res) = exchange();
    // Workers of "db" united with workers of "ai": all three employees.
    let mut names: Vec<Value> = works_in(&res.target)
        .into_iter()
        .filter(|(_, dn)| *dn == Value::str("db") || *dn == Value::str("ai"))
        .map(|(n, _)| n)
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 3);
}
