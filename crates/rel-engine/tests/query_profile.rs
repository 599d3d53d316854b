//! Ground-truth tests for [`rel_engine::QueryProfile`]: force each
//! join-kernel choice, cache outcome, and incremental classification
//! through the session switches (`set_wcoj`, `set_incremental`) on
//! targeted programs, and check the profile reports exactly what the
//! engine was forced to do.

use rel_core::{tuple, Database, Relation, Tuple};
use rel_engine::{FixpointOutcome, Session, StratumAction, WcojMode};

/// A dense-enough edge relation that triangles exist and recursion
/// iterates a few rounds.
fn edges() -> Relation {
    let mut tuples: Vec<Tuple> = Vec::new();
    for i in 0i64..12 {
        tuples.push(tuple![i, (i + 1) % 12]);
        tuples.push(tuple![i, (i + 5) % 12]);
        // Closes i -> i+1 -> i+6 into a triangle with the +5 step.
        tuples.push(tuple![i, (i + 6) % 12]);
    }
    Relation::from_tuples(tuples)
}

fn triangle_session(mode: WcojMode) -> Session {
    let mut db = Database::new();
    db.set("E", edges());
    let mut s = Session::new(db);
    s.set_wcoj(mode);
    s
}

const TRIANGLE: &str = "def output(x, y, z) : E(x, y) and E(y, z) and E(x, z)";

#[test]
fn forced_wcoj_is_reported_as_wcoj() {
    let s = triangle_session(WcojMode::Force);
    let (rows, profile) = s.query_profiled(TRIANGLE).unwrap();
    assert!(!rows.is_empty(), "triangle query must produce rows");
    let t = profile.totals();
    assert!(t.wcoj_joins > 0, "Force must dispatch the triangle to the WCOJ kernel: {t:?}");
    assert_eq!(t.binary_joins, 0, "no pairwise joins under Force: {t:?}");
    assert!(profile.explain().contains("kernel=wcoj"), "{}", profile.explain());
}

#[test]
fn disabled_wcoj_is_reported_as_binary() {
    let s = triangle_session(WcojMode::Off);
    let (rows_off, profile) = s.query_profiled(TRIANGLE).unwrap();
    let t = profile.totals();
    assert_eq!(t.wcoj_joins, 0, "Off must never touch the WCOJ kernel: {t:?}");
    assert!(
        t.binary_joins > 0 || t.env_rules > 0,
        "Off must run the pairwise/env path: {t:?}"
    );
    assert_eq!(t.fused_rules, 0, "a 3-atom rule has no fused kernel: {t:?}");
    // Same rows as the forced kernel — the profile reports routing, not
    // semantics.
    let (rows_force, _) = triangle_session(WcojMode::Force).query_profiled(TRIANGLE).unwrap();
    assert_eq!(rows_off, rows_force);
}

#[test]
fn two_atom_rule_under_defaults_is_fused() {
    let mut db = Database::new();
    db.set("E", edges());
    let mut s = Session::new(db);
    // Pin Auto routing so a REL_WCOJ=force CI leg cannot drag the 2-atom
    // rule into the leapfrog kernel.
    s.set_wcoj(WcojMode::Auto);
    let (rows, profile) =
        s.query_profiled("def output(x, z) : exists((y) | E(x, y) and E(y, z))").unwrap();
    assert!(!rows.is_empty());
    let t = profile.totals();
    assert_eq!(t.wcoj_joins, 0, "below WCOJ_MIN_ATOMS nothing reaches the WCOJ kernel: {t:?}");
    if !s.columnar_enabled() {
        // The REL_COLUMNAR=0 leg has no fused kernels to observe — the
        // profile must say so rather than misattribute.
        assert_eq!(t.fused_rules, 0, "no columnar layout, no fused kernels: {t:?}");
        assert!(t.binary_joins > 0 || t.env_rules > 0, "row layout runs the env path: {t:?}");
        return;
    }
    assert!(
        t.fused_rules > 0,
        "a 2-atom join under default columnar mode must hit a fused kernel: {t:?}"
    );
}

#[test]
fn trie_cache_outcomes_build_then_reuse() {
    let mut s = triangle_session(WcojMode::Force);
    // Full materialization every run, so the second run exercises the
    // shared generation-keyed caches instead of the fixpoint cache.
    s.set_incremental(false);
    let (_, first) = s.query_profiled(TRIANGLE).unwrap();
    let t1 = first.totals();
    assert!(t1.trie_builds > 0, "first run must build its permuted tries: {t1:?}");
    let (_, second) = s.query_profiled(TRIANGLE).unwrap();
    let t2 = second.totals();
    assert_eq!(t2.trie_builds, 0, "second run must not rebuild tries: {t2:?}");
    assert!(t2.trie_reuses > 0, "second run must reuse cached tries: {t2:?}");
    assert!(second.module_cache_hit, "repeated source must hit the module cache");
    assert!(!first.module_cache_hit, "fresh source must miss the module cache");
}

const TWO_CONES: &str = "def A(x) : exists((y) | E1(x, y))\n\
                         def B(x) : exists((y) | E2(x, y))\n\
                         def output(x) : A(x) or B(x)";

#[test]
fn incremental_classification_reused_vs_recomputed() {
    let mut db = Database::new();
    db.set("E1", Relation::from_tuples(vec![tuple![1, 2], tuple![2, 3]]));
    db.set("E2", Relation::from_tuples(vec![tuple![10, 20]]));
    let mut s = Session::new(db);
    // The classification under test exists only with maintenance on —
    // pin it so the REL_INCREMENTAL=0 CI leg measures the same thing.
    s.set_incremental(true);
    let (_, first) = s.query_profiled(TWO_CONES).unwrap();
    assert_eq!(first.fixpoint, FixpointOutcome::Full, "no pre-state on the first run");

    // Unchanged snapshot: the whole fixpoint is a cache reuse.
    let (_, cached) = s.query_profiled(TWO_CONES).unwrap();
    assert_eq!(cached.fixpoint, FixpointOutcome::CacheReuse);
    assert!(cached.strata.is_empty(), "a wholesale reuse evaluates nothing");

    // Touch only E2: A's stratum is outside the changed cone (reused),
    // B's and output's are inside it.
    let mut txn = s.begin();
    txn.stage_insert("E2", tuple![30, 40]);
    txn.commit().unwrap();
    let (rows, incr) = s.query_profiled(TWO_CONES).unwrap();
    assert!(rows.iter().any(|t| t == &tuple![30]), "the new E2 edge must surface");
    let FixpointOutcome::Incremental(stats) = incr.fixpoint else {
        panic!("expected incremental maintenance, got {:?}", incr.fixpoint);
    };
    assert!(stats.reused >= 1, "A's cone is untouched: {stats:?}");
    assert!(
        stats.recomputed + stats.delta_seeded >= 1,
        "B's cone contains the change: {stats:?}"
    );
    let actions: Vec<StratumAction> = incr.strata.iter().map(|s| s.action).collect();
    assert!(actions.contains(&StratumAction::Reused), "{actions:?}");
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, StratumAction::Recomputed | StratumAction::DeltaRestarted)),
        "{actions:?}"
    );
    assert!(
        !actions.contains(&StratumAction::Evaluated),
        "every stratum of an incremental run must carry an incremental label: {actions:?}"
    );
}

const TC: &str = "def TC(x, y) : E(x, y)\n\
                  def TC(x, y) : exists((z) | TC(x, z) and E(z, y))\n\
                  def output(x, y) : TC(x, y)";

#[test]
fn incremental_recursion_is_delta_restarted() {
    let mut db = Database::new();
    db.set("E", Relation::from_tuples(vec![tuple![1, 2], tuple![2, 3], tuple![3, 4]]));
    let mut s = Session::new(db);
    s.set_incremental(true);
    let (rows, first) = s.query_profiled(TC).unwrap();
    assert_eq!(first.fixpoint, FixpointOutcome::Full);
    let len_before = rows.len();
    let recursive_iters = first
        .strata
        .iter()
        .find(|st| st.recursive)
        .expect("TC stratum is recursive")
        .counts
        .iterations;
    assert!(recursive_iters > 1, "closure of a chain iterates: {recursive_iters}");

    let mut txn = s.begin();
    txn.stage_insert("E", tuple![4, 5]);
    txn.commit().unwrap();
    let (rows, incr) = s.query_profiled(TC).unwrap();
    assert!(rows.len() > len_before, "the new edge extends the closure");
    let FixpointOutcome::Incremental(stats) = incr.fixpoint else {
        panic!("expected incremental maintenance, got {:?}", incr.fixpoint);
    };
    assert!(stats.delta_seeded >= 1, "monotone recursion in the cone restarts: {stats:?}");
    // Both strata grew: the closure restarts semi-naively (iterating),
    // `output` takes one pass over TC's delta.
    let restarted: Vec<(bool, u64)> = incr
        .strata
        .iter()
        .filter(|st| st.action == StratumAction::DeltaRestarted)
        .map(|st| (st.recursive, st.counts.iterations))
        .collect();
    assert_eq!(restarted.len(), 2, "{}", incr.explain());
    assert!(restarted[0].0 && restarted[0].1 >= 1, "{restarted:?}");
    assert_eq!(restarted[1], (false, 0), "{}", incr.explain());
}

const TOTALS: &str = "def sum[{A}] : reduce[add, A]\n\
                      def Total[x in U] : sum[E[x]] <++ 0\n\
                      def output(x, s) : Total(x, s)";

#[test]
fn incremental_aggregate_deletion_is_key_restricted() {
    let mut db = Database::new();
    db.set("U", Relation::from_tuples((1..=4).map(|x| tuple![x])));
    db.set(
        "E",
        Relation::from_tuples((1..=4).flat_map(|x| [tuple![x, 10], tuple![x, 20 + x]])),
    );
    let mut s = Session::new(db);
    s.set_incremental(true);
    s.query_profiled(TOTALS).unwrap();
    // Deleting one row of E moves one account's total: the aggregate
    // and everything above it re-derive only that key.
    let mut txn = s.begin();
    txn.stage_delete("E", &tuple![2, 22]);
    txn.commit().unwrap();
    let (rows, incr) = s.query_profiled(TOTALS).unwrap();
    assert!(rows.contains(&tuple![2, 10]), "{rows:?}");
    let FixpointOutcome::Incremental(stats) = incr.fixpoint else {
        panic!("expected incremental maintenance, got {:?}", incr.fixpoint);
    };
    assert_eq!(stats.recomputed, 0, "{}", incr.explain());
    assert_eq!(stats.key_restricted, incr.strata.len(), "{}", incr.explain());
    let explain = incr.explain();
    assert!(explain.contains(&format!("key-restricted={}", stats.key_restricted)), "{explain}");
    assert!(
        incr.strata.iter().all(|st| st.action == StratumAction::KeyRestricted),
        "{explain}"
    );
    assert!(explain.contains("  key-restricted  kernel="), "{explain}");
}

#[test]
fn strata_wall_is_bounded_by_query_wall() {
    let s = triangle_session(WcojMode::Auto);
    let (_, profile) = s.query_profiled(TRIANGLE).unwrap();
    assert!(
        profile.strata_wall() <= profile.wall,
        "stratum times ({:?}) cannot exceed the end-to-end wall ({:?})",
        profile.strata_wall(),
        profile.wall
    );
}
