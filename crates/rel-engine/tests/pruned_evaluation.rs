//! Statement-scoped evaluation: a session compiles every statement to
//! the strata its `output`, `insert`/`delete` and constraints read, and
//! must still answer exactly what the whole library would.
//!
//! The reference is the unpruned program: `rel_sema::compile(lib + src)`
//! materialized from scratch by `rel_engine::materialize`, its
//! constraints checked with [`check_constraints`], and its
//! `insert`/`delete` relations applied by hand. Two libraries run under
//! randomized (seeded) commit streams, with incremental maintenance on
//! and off:
//!
//! * a fraud-detection library (recursion, aggregation, override), with
//!   a constraint over a *derived* relation that calls a demand-mode
//!   predicate nothing else reads;
//! * the paper's Figure 1 programs (§3) with the §3.5 constraints.
//!
//! After every commit attempt, session queries, prepared executes,
//! `Session::eval` of a non-`output` relation, commit outcomes (or the
//! abort error) and standing-query mirrors must equal the reference.
//! The count-based tests at the end pin what pruning buys and what it
//! must keep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::database::{figure1_database, Delta};
use rel_core::{tuple, Database, Name, RelError, RelResult, Relation, Tuple, Value};
use rel_engine::session::check_constraints;
use rel_engine::{
    materialize, EngineConfig, FixpointOutcome, Params, Prepared, Session, StratumAction,
    Transaction, Watch,
};
use rel_sema::ir::{param_relation, EvalMode};
use std::collections::BTreeMap;

/// The fraud library of the `live_feed` benchmark workload, with the
/// stdlib aggregates it needs spelled out.
const FRAUD_LIB: &str = "\
def sum[{A}] : reduce[add, A]
def count[{A}] : reduce[add, (A, 1)]
def Edge(x, y) : Transfer(_, x, y, _)
def Flows(x, y) : Edge(x, y)
def Flows(x, y) : exists((z) | Edge(x, z) and Flows(z, y))
def InRing(x) : Flows(x, x)
def InAmount(y, t, a) : Transfer(t, _, y, a)
def OutAmount(x, t, a) : Transfer(t, x, _, a)
def TotalIn[x in Account] : sum[InAmount[x]] <++ 0
def TotalOut[x in Account] : sum[OutAmount[x]] <++ 0
def SmallIn(y, t) : exists((a) | Transfer(t, _, y, a) and a < 1000 and a >= 900)
def Structuring(y) : exists((c) | c = count[SmallIn[y]] and c >= 3)
def RiskFactor(x, 10) : InRing(x)
def RiskFactor(x, 5)  : Structuring(x)
def RiskFactor(x, 3)  : exists((i, o) | TotalIn(x, i) and TotalOut(x, o) and i > 0 and o * 10 > i * 9)
def RiskScore[x in Account] : sum[RiskFactor[x]] <++ 0
ic positive_amount(t, a) requires Transfer(t, _, _, a) implies a > 0
";

/// A constraint over the derived `TotalIn` that calls the demand-mode
/// `Headroom` (its first argument must be bound), which reads the
/// derived `CapOf`. Nothing but this constraint reaches either.
const INFLOW_CAP: &str = "\
def CapOf(c) : Cap(c)
def Headroom(i, h) : exists((c) | CapOf(c) and h = c - i)
ic inflow_capped(x, i) requires TotalIn(x, i) implies exists((h) | Headroom(i, h) and h >= 0)
";

const INFLOW_LIMIT: i64 = 5000;
const ACCOUNTS: i64 = 6;

const FRAUD_READS: &[&str] = &[
    "def output(x, i, s) : TotalIn(x, i) and RiskScore(x, s)",
    "def output(x) : InRing(x)",
    "def output(x) : Structuring(x)",
    "def output(t, a) : Transfer(t, _, _, a) and a > 500",
];

const TRANSFER_INSERT: &str =
    "def insert(:Transfer, t, x, y, a) : t = ?t and x = ?from and y = ?to and a = ?amount";

/// The paper's Figure 1 programs (§3.1–3.5) as one library.
const PAPER_LIB: &str = "\
def sum[{A}] : reduce[add, A]
def Ord(x) : OrderProductQuantity(x,_,_)
def OrderPaymentAmount(x,y,z) : PaymentOrder(y,x) and PaymentAmount(y,z)
def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0
def LineAmount(o, p, a) : exists((q, pr) | OrderProductQuantity(o, p, q) and ProductPrice(p, pr) and a = q * pr)
def OrderTotal[o in Ord] : sum[LineAmount[o]]
def FullyPaid(x) : exists((u) | OrderPaid(x,u) and OrderTotal(x,u))
def SameOrder(p1, p2) : exists((o) | OrderProductQuantity(o, p1, _) and OrderProductQuantity(o, p2, _))
def SameOrderDiffProduct(p1, p2) : SameOrder(p1, p2) and p1 != p2
def Expensive(p) : exists((price) | ProductPrice(p,price) and price > 15)
ic valid_products(x) requires OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
ic integer_quantities() requires forall((x) | OrderProductQuantity(_,_,x) implies Int(x))
";

const PAPER_READS: &[&str] = &[
    "def output(p) : exists((x in Expensive) | SameOrderDiffProduct(x, p))",
    "def output(x) : FullyPaid(x)",
    "def output[x in Ord] : sum[OrderPaymentAmount[x]]",
    "def output(x) : ProductPrice(x,_) and not OrderProductQuantity(_,x,_)",
    "def output(x, t) : OrderTotal(x, t)",
];

const CLOSE_PAID_ORDERS: &str = "\
def delete(:OrderProductQuantity, x, y, z) : OrderProductQuantity(x,y,z) and FullyPaid(x)
def insert(:ClosedOrders, x) : FullyPaid(x)
def output(x) : FullyPaid(x)";

// ------------------------------------------------------------ reference

fn full_program(lib: &str, src: &str) -> rel_sema::ir::Module {
    rel_sema::compile(&format!("{lib}\n{src}")).expect("reference compiles")
}

/// The unpruned program's relation state over `db`.
fn reference_state(lib: &str, src: &str, db: &Database) -> BTreeMap<Name, Relation> {
    materialize(&full_program(lib, src), db).expect("reference materializes")
}

/// What `Session::query` must return: the unpruned program's `output`,
/// after its constraints (the library's included) passed.
fn reference_query(lib: &str, src: &str, db: &Database) -> Result<Relation, String> {
    let module = full_program(lib, src);
    let rels = materialize(&module, db).map_err(|e| e.to_string())?;
    check_constraints(&module, &rels).map_err(|e| e.to_string())?;
    Ok(rels.get("output").cloned().unwrap_or_default())
}

/// One step of a transaction, as the reference replays it.
#[derive(Clone, Debug)]
enum Step {
    Run(String),
    Prepared(&'static str, Params),
    StageInsert(&'static str, Tuple),
    StageDelete(&'static str, Tuple),
}

/// The reference commit: replay the steps over `db` with the unpruned
/// programs, then check the library's constraints on the final state.
/// Returns `(output, inserted, deleted, post-state)`.
fn reference_commit(
    lib: &str,
    steps: &[Step],
    db: &Database,
) -> Result<(Relation, usize, usize, Database), String> {
    let mut db = db.clone();
    let (mut output, mut inserted, mut deleted) = (Relation::default(), 0, 0);
    for step in steps {
        let (src, bound) = match step {
            Step::Run(src) => (src.as_str(), db.clone()),
            Step::Prepared(src, params) => {
                let mut bound = db.clone();
                for (p, rel) in params.iter() {
                    bound.set(param_relation(p), rel.clone());
                }
                (*src, bound)
            }
            Step::StageInsert(rel, t) => {
                inserted += db.insert(rel, t.clone()) as usize;
                continue;
            }
            Step::StageDelete(rel, t) => {
                if db.defines(rel) {
                    deleted += db.get_mut(rel).remove(t) as usize;
                }
                continue;
            }
        };
        let rels = reference_state(lib, src, &bound);
        let mut delta = Delta::default();
        for (control, is_insert) in [("insert", true), ("delete", false)] {
            for t in rels.get(control).into_iter().flat_map(Relation::iter) {
                let Some(Value::Symbol(target)) = t.get(0) else {
                    return Err(format!("bad {control} tuple {t}"));
                };
                let rest = Tuple::from(t.values()[1..].to_vec());
                if is_insert {
                    inserted += 1;
                    delta.insert(target.as_ref(), rest);
                } else {
                    deleted += 1;
                    delta.delete(target.as_ref(), rest);
                }
            }
        }
        db.apply(&delta);
        output = rels.get("output").cloned().unwrap_or_default();
    }
    let module = full_program(lib, "");
    let rels = materialize(&module, &db).map_err(|e| e.to_string())?;
    check_constraints(&module, &rels).map_err(|e| e.to_string())?;
    Ok((output, inserted, deleted, db))
}

/// A database's non-empty relations, for comparisons that must not care
/// whether a relation was emptied or never created.
fn listing(db: &Database) -> Vec<(Name, Vec<Tuple>)> {
    db.iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(n, r)| (n.clone(), r.iter().cloned().collect()))
        .collect()
}

// -------------------------------------------------------------- session

fn run_step(
    txn: &mut Transaction<'_>,
    prepared: &BTreeMap<&str, Prepared>,
    step: &Step,
) -> RelResult<()> {
    match step {
        Step::Run(src) => txn.run(src).map(drop),
        Step::Prepared(src, params) => txn.run_prepared(&prepared[src], params).map(drop),
        Step::StageInsert(rel, t) => {
            txn.stage_insert(rel, t.clone());
            Ok(())
        }
        Step::StageDelete(rel, t) => {
            txn.stage_delete(rel, t);
            Ok(())
        }
    }
}

struct Mirror {
    watch: Watch,
    rows: Relation,
}

/// One seeded trial: `commits` random transactions from `next_txn`,
/// every read re-checked against the reference after each one.
fn trial(
    lib: &str,
    reads: &[&'static str],
    db: Database,
    incremental: bool,
    commits: usize,
    eval_relation: &str,
    mut next_txn: impl FnMut(&Database) -> Vec<Step>,
) {
    let cfg = EngineConfig::from_env().incremental(incremental);
    let mut session = Session::with_config(db, cfg).with_library(lib);
    let prepared: BTreeMap<&str, Prepared> = reads
        .iter()
        .chain([&TRANSFER_INSERT])
        .map(|src| (*src, session.prepare(src).expect("statement compiles")))
        .collect();
    let mut mirrors: Vec<Mirror> = reads
        .iter()
        .map(|src| {
            let watch = session
                .watch(&prepared[src], &Params::new())
                .expect("watch registers");
            Mirror {
                watch,
                rows: Relation::new(),
            }
        })
        .collect();
    let mut aborts = 0;
    for commit in 0..=commits {
        let db = session.db().clone();
        for m in &mut mirrors {
            while let Some(d) = m.watch.try_recv() {
                m.rows = d.apply_to(&m.rows);
            }
        }
        for (i, src) in reads.iter().enumerate() {
            let expected = reference_query(lib, src, &db);
            let ctx = format!("incremental={incremental} commit {commit}: {src}");
            assert_eq!(
                session.query(src).map_err(|e| e.to_string()),
                expected,
                "query, {ctx}"
            );
            assert_eq!(
                prepared[src].execute(&session).map_err(|e| e.to_string()),
                expected,
                "prepared, {ctx}"
            );
            assert_eq!(
                Ok(&mirrors[i].rows),
                expected.as_ref(),
                "watch mirror, {ctx}"
            );
        }
        let full = reference_state(lib, reads[0], &db);
        assert_eq!(
            session.eval(reads[0], eval_relation).expect("eval"),
            full.get(eval_relation).cloned().unwrap_or_default(),
            "eval of {eval_relation}, commit {commit}"
        );
        if commit == commits {
            break;
        }
        let steps = next_txn(&db);
        let expected = reference_commit(lib, &steps, &db);
        let mut txn = session.begin();
        let got = steps
            .iter()
            .try_for_each(|s| run_step(&mut txn, &prepared, s))
            .and_then(|()| txn.commit())
            .map_err(|e| e.to_string());
        let ctx = format!("incremental={incremental} commit {commit}: {steps:?}");
        match (got, expected) {
            (Ok(outcome), Ok((output, inserted, deleted, post))) => {
                assert_eq!(outcome.output, output, "output, {ctx}");
                assert_eq!(
                    (outcome.inserted, outcome.deleted),
                    (inserted, deleted),
                    "{ctx}"
                );
                assert_eq!(listing(session.db()), listing(&post), "post-state, {ctx}");
            }
            (Err(got), Err(expected)) => {
                assert_eq!(got, expected, "abort error, {ctx}");
                assert_eq!(
                    listing(session.db()),
                    listing(&db),
                    "aborted commit wrote, {ctx}"
                );
                aborts += 1;
            }
            (got, expected) => panic!("{ctx}: session {got:?} but reference {expected:?}"),
        }
    }
    assert!(
        aborts > 0 && aborts < commits,
        "stream must mix commits and aborts: {aborts}"
    );
}

// ---------------------------------------------------------------- fraud

fn fraud_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for a in 0..ACCOUNTS {
        db.insert("Account", tuple![a]);
    }
    db.insert("Cap", tuple![INFLOW_LIMIT]);
    // Initial inflows stay well below the cap, so the start state is
    // consistent and the stream decides when a constraint bites.
    for t in 0..10 {
        let (x, y) = (rng.gen_range(0..ACCOUNTS), rng.gen_range(0..ACCOUNTS));
        db.insert("Transfer", tuple![t, x, y, rng.gen_range(100..400)]);
    }
    db
}

/// Amounts: mostly valid, sometimes in the structuring band, sometimes
/// non-positive (violates `positive_amount`), sometimes large enough to
/// push an inflow over the cap (violates `inflow_capped`).
fn fraud_amount(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..10) {
        0 => -rng.gen_range(0..50i64),
        1 | 2 => rng.gen_range(900..1000),
        3 => rng.gen_range(2000..4000),
        _ => rng.gen_range(1..600),
    }
}

fn fraud_txn(rng: &mut StdRng, db: &Database, next_id: &mut i64) -> Vec<Step> {
    let mut fresh = |rng: &mut StdRng| {
        *next_id += 1;
        (
            *next_id,
            rng.gen_range(0..ACCOUNTS),
            rng.gen_range(0..ACCOUNTS),
            fraud_amount(rng),
        )
    };
    let existing = |rng: &mut StdRng| {
        let transfers = db.get("Transfer").expect("seeded");
        transfers
            .iter()
            .nth(rng.gen_range(0..transfers.len()))
            .cloned()
    };
    let mut steps = Vec::new();
    for _ in 0..rng.gen_range(1..3) {
        let step = match rng.gen_range(0..5) {
            0 | 1 => {
                let (t, x, y, a) = fresh(rng);
                let params = Params::new()
                    .set("t", t)
                    .set("from", x)
                    .set("to", y)
                    .set("amount", a);
                Step::Prepared(TRANSFER_INSERT, params)
            }
            2 => match existing(rng) {
                Some(t) => Step::Run(format!(
                    "def delete(:Transfer, t, x, y, a) : Transfer(t, x, y, a) and t = {}",
                    t.get(0).expect("id")
                )),
                None => continue,
            },
            3 => {
                let (t, x, y, a) = fresh(rng);
                Step::StageInsert("Transfer", tuple![t, x, y, a])
            }
            _ => {
                let (t, x, y, a) = fresh(rng);
                Step::Run(format!(
                    "def insert(:Transfer, t, x, y, a) : t = {t} and x = {x} and y = {y} and a = {a}\n\
                     def output(x) : InRing(x)"
                ))
            }
        };
        steps.push(step);
    }
    // Staged-only transactions exercise the library-constraint check
    // that has no compiled step to ride on.
    if rng.gen_bool(0.2) {
        steps.retain(|s| matches!(s, Step::StageInsert(..)));
        if steps.is_empty() {
            if let Some(t) = existing(rng) {
                steps.push(Step::StageDelete("Transfer", t));
            }
        }
    }
    steps
}

#[test]
fn fraud_library_statements_match_the_unpruned_program() {
    let lib = format!("{FRAUD_LIB}{INFLOW_CAP}");
    for seed in [7u64, 1234, 0xF00D] {
        for incremental in [true, false] {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = fraud_db(&mut rng);
            let mut next_id = 1_000;
            trial(&lib, FRAUD_READS, db, incremental, 30, "Flows", |db| {
                fraud_txn(&mut rng, db, &mut next_id)
            });
        }
    }
}

// ---------------------------------------------------------------- paper

fn paper_txn(rng: &mut StdRng, db: &Database) -> Vec<Step> {
    let order = |rng: &mut StdRng| Value::str(format!("O{}", rng.gen_range(1..6)));
    // P5 has no price: inserting it violates `valid_products`.
    let product = |rng: &mut StdRng| Value::str(format!("P{}", rng.gen_range(1..6)));
    let quantity = |rng: &mut StdRng| match rng.gen_range(0..8) {
        // A string quantity violates `integer_quantities`.
        0 => Value::str("two"),
        n => Value::int(n),
    };
    match rng.gen_range(0..6) {
        0 => vec![Step::Run(CLOSE_PAID_ORDERS.to_string())],
        1 | 2 => vec![Step::StageInsert(
            "OrderProductQuantity",
            Tuple::from(vec![order(rng), product(rng), quantity(rng)]),
        )],
        3 => {
            let lines = db.get("OrderProductQuantity").cloned().unwrap_or_default();
            match lines.iter().nth(rng.gen_range(0..lines.len().max(1))) {
                Some(t) => vec![Step::StageDelete("OrderProductQuantity", t.clone())],
                None => vec![],
            }
        }
        _ => {
            let pmt = format!("Pmt{}", rng.gen_range(5..40));
            vec![Step::Run(format!(
                "def insert(:PaymentOrder, p, o) : p = \"{pmt}\" and o = \"O{}\"\n\
                 def insert(:PaymentAmount, p, a) : p = \"{pmt}\" and a = {}",
                rng.gen_range(1..6),
                10 * rng.gen_range(1..6)
            ))]
        }
    }
}

#[test]
fn paper_programs_match_the_unpruned_program() {
    for seed in [11u64, 4242] {
        for incremental in [true, false] {
            let mut rng = StdRng::seed_from_u64(seed);
            trial(
                PAPER_LIB,
                PAPER_READS,
                figure1_database(),
                incremental,
                30,
                "SameOrder",
                |db| paper_txn(&mut rng, db),
            );
        }
    }
}

// -------------------------------------------------------- count-based

fn fraud_session() -> Session {
    let mut rng = StdRng::seed_from_u64(1);
    Session::with_config(
        fraud_db(&mut rng),
        EngineConfig::from_env().incremental(false),
    )
    .with_library(FRAUD_LIB)
}

#[test]
fn prepared_transfer_insert_evaluates_one_stratum() {
    let s = fraud_session();
    let step = s.prepare(TRANSFER_INSERT).unwrap();
    let full = full_program(FRAUD_LIB, TRANSFER_INSERT);
    let materialized = |m: &rel_sema::ir::Module| {
        m.pred_info
            .values()
            .filter(|i| i.mode == EvalMode::Materialize)
            .count()
    };
    assert!(
        materialized(&full) > 10,
        "the library is not trivial: {}",
        full.strata.len()
    );
    // `insert` reads only the parameters; the one constraint reads the
    // base relation `Transfer`.
    assert_eq!(step.module().strata.len(), 1);
    assert_eq!(materialized(step.module()), 1);
    let params = Params::new()
        .set("t", 99)
        .set("from", 1)
        .set("to", 2)
        .set("amount", 5);
    let (_, profile) = step.execute_with_profiled(&s, &params).unwrap();
    let evaluated: Vec<&[String]> = profile
        .strata
        .iter()
        .filter(|st| st.action == StratumAction::Evaluated)
        .map(|st| st.preds.as_slice())
        .collect();
    assert_eq!(
        evaluated,
        vec![&["insert".to_string()][..]],
        "{}",
        profile.explain()
    );
    // The equivalent read evaluates the same single stratum.
    let (_, profile) = s
        .query_profiled("def output(t, x, y, a) : t = 99 and x = 1 and y = 2 and a = 5")
        .unwrap();
    assert_eq!(profile.strata.len(), 1, "{}", profile.explain());
}

/// The strata one feed read after a commit recomputed from scratch, and
/// how many it maintained by delta.
fn feed_after_commit(
    s: &mut Session,
    feed: &Prepared,
    step: &Prepared,
    params: &Params,
) -> (Vec<String>, usize) {
    let mut txn = s.begin();
    txn.run_prepared(step, params).unwrap();
    txn.commit().unwrap();
    let (_, profile) = feed.execute_profiled(s).unwrap();
    let FixpointOutcome::Incremental(stats) = profile.fixpoint else {
        panic!("expected incremental maintenance: {}", profile.explain());
    };
    let recomputed: Vec<String> = profile
        .strata
        .iter()
        .filter(|st| st.action == StratumAction::Recomputed)
        .flat_map(|st| st.preds.iter().cloned())
        .collect();
    assert_eq!(recomputed.len(), stats.recomputed, "{}", profile.explain());
    (recomputed, stats.delta_seeded + stats.key_restricted)
}

#[test]
fn fraud_feed_recomputes_only_flows_and_only_on_reversals() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut s = Session::with_config(
        fraud_db(&mut rng),
        EngineConfig::from_env().incremental(true),
    )
    .with_library(FRAUD_LIB);
    // Three structuring-band inflows for each of three accounts, so the
    // count aggregate and `Structuring` hold more keys than one commit
    // touches (with fewer, the keyed path would cost a recomputation and
    // is not taken).
    let mut txn = s.begin();
    for t in 0..9 {
        txn.stage_insert("Transfer", tuple![900 + t, 0, 1 + t % 3, 990]);
    }
    txn.commit().unwrap();
    let feed = s.prepare(FRAUD_READS[0]).unwrap();
    feed.execute(&s).unwrap();
    let insert = s.prepare(TRANSFER_INSERT).unwrap();
    let reverse = s
        .prepare("def delete(:Transfer, t, x, y, a) : Transfer(t, x, y, a) and t = ?t")
        .unwrap();
    // A transfer along an edge no other transfer takes, in the
    // structuring band: it reaches every stratum of the feed.
    let edges: Vec<(i64, i64)> = s
        .db()
        .get("Transfer")
        .unwrap()
        .rows::<(i64, i64, i64, i64)>()
        .unwrap()
        .into_iter()
        .map(|(_, x, y, _)| (x, y))
        .collect();
    let (x, y) = (0..ACCOUNTS)
        .flat_map(|x| (0..ACCOUNTS).map(move |y| (x, y)))
        .find(|e| e.0 != e.1 && !edges.contains(e))
        .expect("a fresh edge");
    let transfer = Params::new()
        .set("t", 1000)
        .set("from", x)
        .set("to", y)
        .set("amount", 950);
    let (recomputed, maintained) = feed_after_commit(&mut s, &feed, &insert, &transfer);
    assert_eq!(
        recomputed,
        Vec::<String>::new(),
        "a transfer insert recomputes no stratum"
    );
    assert!(maintained > 0);
    // Reversing it deletes the edge: the recursive closure is the one
    // stratum without a delta path for deletions.
    let (recomputed, _) = feed_after_commit(&mut s, &feed, &reverse, &Params::new().set("t", 1000));
    assert_eq!(
        recomputed,
        vec!["Flows".to_string()],
        "a reversal recomputes only Flows"
    );
    // A further insert along an existing edge again recomputes nothing.
    let again = Params::new()
        .set("t", 1001)
        .set("from", edges[0].0)
        .set("to", edges[0].1)
        .set("amount", 42);
    let (recomputed, _) = feed_after_commit(&mut s, &feed, &insert, &again);
    assert_eq!(recomputed, Vec::<String>::new());
}

#[test]
fn staged_only_commit_enforces_a_derived_library_constraint() {
    let mut s = fraud_session();
    s.install_library(INFLOW_CAP);
    // The staged-only path compiles the empty statement: its module is
    // exactly what the library's constraints read.
    let module = s.compile("").unwrap();
    for kept in ["TotalIn", "InAmount", "CapOf", "Headroom"] {
        assert!(
            module.pred_info.contains_key(kept),
            "{kept} must survive pruning"
        );
    }
    assert!(matches!(
        module.pred_info["Headroom"].mode,
        EvalMode::Demand { .. }
    ));
    assert!(
        !module.pred_info.contains_key("RiskScore"),
        "nothing reads RiskScore"
    );
    let before = listing(s.db());
    let mut txn = s.begin();
    txn.stage_insert("Transfer", tuple![500, 0, 1, INFLOW_LIMIT + 1]);
    let err = txn.commit().unwrap_err();
    assert!(
        matches!(&err, RelError::ConstraintViolation { name, .. } if name == "inflow_capped"),
        "{err}"
    );
    assert_eq!(listing(s.db()), before, "an aborted commit changes nothing");
    // A small transfer commits through the same path.
    let mut txn = s.begin();
    txn.stage_insert("Transfer", tuple![501, 0, 1, 5]);
    txn.commit().unwrap();
}

#[test]
fn runtime_errors_in_unread_strata_do_not_fail_a_statement() {
    let mut db = Database::new();
    db.insert("N", tuple![i64::MAX]);
    db.insert("R", tuple![1]);
    let s = Session::new(db).with_library("def Overflow(y) : exists((x) | N(x) and y = x + 1)\n");
    assert_eq!(
        s.query("def output(x) : R(x)").unwrap(),
        Relation::from_tuples([tuple![1]])
    );
    let err = s.query("def output(y) : Overflow(y)").unwrap_err();
    assert!(matches!(err, RelError::Arithmetic(_)), "{err}");
    // The unpruned program fails either way.
    assert!(materialize(
        &full_program(
            "def Overflow(y) : exists((x) | N(x) and y = x + 1)",
            "def output(x) : R(x)"
        ),
        s.db()
    )
    .is_err());
}

#[test]
fn analysis_errors_still_cover_the_whole_library() {
    let s = Session::new(Database::new()).with_library("def Unsafe() : exists((x) | not R(x))\n");
    let err = s.query("def output(x) : R(x)").unwrap_err();
    assert!(matches!(err, RelError::Unsafe(_)), "{err}");
}
