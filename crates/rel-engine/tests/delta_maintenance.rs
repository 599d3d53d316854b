//! Delta maintenance of non-recursive strata, checked against full
//! re-materialization: a corpus of non-recursive rule shapes — projection,
//! filter, self-join, negation, `sum`/`count`/`max`, `<++`, `x in R`
//! heads, constant heads, multi-rule strata, and keyless aggregates that
//! must fall back — is driven through seeded insert/delete streams. After
//! every round the incrementally maintained state must equal
//! `materialize_with_cache` over the new database, flattened and compared
//! byte for byte, and the per-stratum classification must show the
//! delta paths actually ran (and the keyless shapes never took the keyed
//! one). A second test replays prepared steps with changing parameters
//! through two sessions, incremental maintenance on and off.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{Database, Name, Relation, Tuple, Value};
use rel_engine::{
    materialize_incremental_with_stats, materialize_with_cache, IncrementalStats, Params, PreState,
    Session, SharedIndexCache,
};
use std::collections::BTreeMap;

const AGGREGATES: &str = "\
def sum[{A}] : reduce[add, A]
def count[{A}] : reduce[add, (A, 1)]
def max[{A}] : reduce[maximum, A]
";

/// The corpus: a name, the rules, and whether a change to the shape's
/// inputs can take a delta path (the keyless aggregates cannot).
const SHAPES: &[(&str, &str, bool)] = &[
    ("projection", "def P(x) : R(x, _)", true),
    ("filter", "def P(x, y) : R(x, y) and y > 2", true),
    (
        "self-join",
        "def P(x, z) : exists((y) | R(x, y) and R(y, z))",
        true,
    ),
    ("negation", "def P(x, y) : R(x, y) and not S(x, y)", true),
    // One input, two occurrences keying the head through swapped columns.
    ("asymmetric", "def P(x, y) : R(x, y) and not R(y, x)", true),
    (
        "negated-exists",
        "def P(x) : U(x) and not exists((y) | S(x, y))",
        true,
    ),
    ("sum", "def P[x] : sum[T[x]]", true),
    ("count", "def P[x] : count[R[x]]", true),
    ("max", "def P[x] : max[T[x]]", true),
    ("override-default", "def P[x in U] : sum[T[x]] <++ 0", true),
    ("override-relations", "def P[x in U] : R[x] <++ S[x]", true),
    ("domain-head", "def P(x in U, y) : S(x, y)", true),
    (
        "constant-heads",
        "def P(x, 1) : R(x, _)\ndef P(x, 2) : S(x, _) and not U(x)",
        true,
    ),
    (
        "multi-rule",
        "def P(x, y) : R(x, y)\ndef P(x, y) : S(y, x) and not U(x)",
        true,
    ),
    ("repeated-head-var", "def P(x, y, x) : R(x, y)", true),
    // `V` mixes arities: a column after a tuple variable is not fixed.
    ("tuple-var-head", "def P(x, y...) : V(x, y...)", true),
    (
        "tuple-var-suffix",
        "def P(x) : exists((y...) | V(y..., x))",
        true,
    ),
    (
        "aggregate-chain",
        "def A[x in U] : sum[T[x]] <++ 0\n\
              def B(x) : exists((s) | A(x, s) and s > 12)\n\
              def C(x, y) : R(x, y) and B(x) and not B(y)\n\
              def D[x in U] : count[C[x]] <++ 0",
        true,
    ),
    ("keyless-count", "def P(n) : n = count[R]", false),
    (
        "keyless-max",
        "def P(x, m) : U(x) and m = max[(v) : exists((a, b) | T(a, b, v))]",
        false,
    ),
];

const DOMAIN: i64 = 8;

fn random_tuple(rng: &mut StdRng, rel: &str) -> Tuple {
    let v = |rng: &mut StdRng| Value::int(rng.gen_range(0..DOMAIN));
    match rel {
        "U" => Tuple::from(vec![v(rng)]),
        "T" => Tuple::from(vec![v(rng), v(rng), Value::int(rng.gen_range(1..20))]),
        "V" => Tuple::from((0..rng.gen_range(1..4)).map(|_| v(rng)).collect::<Vec<_>>()),
        _ => Tuple::from(vec![v(rng), v(rng)]),
    }
}

const BASES: [&str; 5] = ["R", "S", "U", "T", "V"];

fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for rel in BASES {
        db.set(rel, Relation::new());
        // `V` stays sparse, so one tuple is often a key's only support.
        let len = if rel == "V" {
            rng.gen_range(3..8)
        } else {
            rng.gen_range(10..24)
        };
        for _ in 0..len {
            let t = random_tuple(rng, rel);
            db.insert(rel, t);
        }
    }
    db
}

/// One to three single-tuple inserts or deletes: small deltas, so keyed
/// strata usually stay under the recompute threshold.
fn mutate(rng: &mut StdRng, db: &mut Database) {
    for _ in 0..rng.gen_range(1..4) {
        let rel = BASES[rng.gen_range(0..BASES.len())];
        let existing = db.get(rel).filter(|r| !r.is_empty()).cloned();
        match existing {
            Some(r) if rng.gen_bool(0.45) => {
                let t = r
                    .iter()
                    .nth(rng.gen_range(0..r.len()))
                    .expect("in range")
                    .clone();
                db.get_mut(rel).remove(&t);
            }
            _ => {
                let t = random_tuple(rng, rel);
                db.insert(rel, t);
            }
        }
    }
}

fn flatten(rels: &BTreeMap<Name, Relation>) -> Vec<(Name, Vec<Tuple>)> {
    rels.iter()
        .map(|(n, r)| (n.clone(), r.iter().cloned().collect()))
        .collect()
}

fn add(total: &mut IncrementalStats, s: &IncrementalStats) {
    total.reused += s.reused;
    total.delta_seeded += s.delta_seeded;
    total.key_restricted += s.key_restricted;
    total.recomputed += s.recomputed;
}

#[test]
fn nonrecursive_shapes_match_full_under_random_deltas() {
    let mut all = IncrementalStats::default();
    for &(name, src, keyed) in SHAPES {
        let module = rel_sema::compile(&format!("{AGGREGATES}{src}"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            module.strata.iter().all(|s| !s.recursive),
            "{}: the corpus is non-recursive",
            name
        );
        let mut total = IncrementalStats::default();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7919 + name.len() as u64);
            let mut db = random_db(&mut rng);
            let cache = SharedIndexCache::default();
            let mut rels = materialize_with_cache(&module, &db, cache.clone()).unwrap();
            for round in 0..8 {
                let pre = PreState::capture(&db, &rels);
                mutate(&mut rng, &mut db);
                let (inc, stats) =
                    materialize_incremental_with_stats(&module, &pre, &db, cache.clone()).unwrap();
                let full =
                    materialize_with_cache(&module, &db, SharedIndexCache::default()).unwrap();
                assert_eq!(
                    flatten(&inc),
                    flatten(&full),
                    "{} seed {seed} round {round}: maintained state diverged",
                    name
                );
                add(&mut total, &stats);
                rels = inc;
            }
        }
        if keyed {
            assert!(
                total.key_restricted + total.delta_seeded > 0,
                "{}: no stratum took a delta path: {total:?}",
                name
            );
        } else {
            // The aggregate reads its input whole: no key, so its
            // stratum (and P's above it) can only recompute.
            let p = &module.stratum_reads[module.pred_info["P"].stratum];
            assert!(
                p.all().any(|n| p.key_binding(n).is_none()),
                "{}: {p:?}",
                name
            );
            assert!(total.recomputed > 0, "{}: {total:?}", name);
        }
        add(&mut all, &total);
    }
    assert!(all.key_restricted > 0 && all.delta_seeded > 0, "{all:?}");
}

/// Every shape at once, its relations renamed apart.
fn library() -> (String, Vec<String>) {
    let mut lib = String::from(AGGREGATES);
    let mut derived = Vec::new();
    for (i, (_, src, _)) in SHAPES.iter().enumerate() {
        let mut s = src.to_string();
        for p in ["A", "B", "C", "D", "P"] {
            if s.contains(&format!("def {p}")) {
                let renamed = format!("{p}{i}");
                s = rename(&s, p, &renamed);
                derived.push(renamed);
            }
        }
        lib.push_str(&s);
        lib.push('\n');
    }
    (lib, derived)
}

/// Replace the identifier `from` (a whole word) by `to`.
fn rename(src: &str, from: &str, to: &str) -> String {
    let mut out = String::new();
    let mut word = String::new();
    for c in src.chars().chain(std::iter::once('\n')) {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
            continue;
        }
        out.push_str(if word == from { to } else { &word });
        word.clear();
        out.push(c);
    }
    out.pop();
    out
}

#[test]
fn prepared_steps_with_changing_params_match_full() {
    let (lib, derived) = library();
    let full_module = rel_sema::compile(&lib).unwrap();
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    let db = random_db(&mut rng);
    let mut sessions: Vec<Session> = [true, false]
        .into_iter()
        .map(|incremental| {
            let mut s = Session::new(db.clone()).with_library(&lib);
            s.set_incremental(incremental);
            s
        })
        .collect();
    let steps = [
        "def insert(:R, x, y) : x = ?a and y = ?b",
        "def delete(:T, x, y, v) : T(x, y, v) and x = ?a and y = ?b",
        "def insert(:U, x) : x = ?a\ndef delete(:S, x, y) : S(x, y) and x = ?a",
    ];
    let prepared: Vec<Vec<_>> = sessions
        .iter()
        .map(|s| steps.iter().map(|src| s.prepare(src).unwrap()).collect())
        .collect();
    // A parameterized read of the defaulted per-key sum.
    let totals = SHAPES
        .iter()
        .position(|s| s.0 == "override-default")
        .expect("in the corpus");
    let totals = format!("P{totals}");
    let read = format!("def output(x, s) : {totals}(x, s) and x = ?a");
    let reads: Vec<_> = sessions.iter().map(|s| s.prepare(&read).unwrap()).collect();
    for round in 0..40 {
        let step = rng.gen_range(0..steps.len());
        let mut params = Params::new().set("a", rng.gen_range(0..DOMAIN));
        if steps[step].contains("?b") {
            params = params.set("b", rng.gen_range(0..DOMAIN));
        }
        let probe_key = rng.gen_range(0..DOMAIN);
        let probe = Params::new().set("a", probe_key);
        for (i, s) in sessions.iter_mut().enumerate() {
            let mut txn = s.begin();
            txn.run_prepared(&prepared[i][step], &params).unwrap();
            txn.commit().unwrap();
            let full =
                materialize_with_cache(&full_module, s.db(), SharedIndexCache::default()).unwrap();
            for name in &derived {
                let got: Vec<Tuple> = s.eval("", name).unwrap().iter().cloned().collect();
                let want: Vec<Tuple> = full
                    .get(name.as_str())
                    .map(|r| r.iter().cloned().collect())
                    .unwrap_or_default();
                assert_eq!(got, want, "round {round} session {i}: {name} diverged");
            }
            let got = reads[i].execute_with(s, &probe).unwrap();
            let want: Relation = full[totals.as_str()]
                .iter()
                .filter(|t| t.values()[0] == Value::int(probe_key))
                .cloned()
                .collect();
            assert_eq!(
                got, want,
                "round {round} session {i}: prepared read diverged"
            );
        }
        assert_eq!(
            sessions[0].db(),
            sessions[1].db(),
            "round {round}: databases diverged"
        );
    }
}
