//! Explicit transaction handles (client API v2).
//!
//! [`crate::Session::begin`] opens a [`Transaction`] holding an O(1)
//! copy-on-write snapshot of the database (the *candidate* state). The
//! transaction stages work against the candidate:
//!
//! * [`Transaction::run`] / [`Transaction::run_prepared`] — evaluate a
//!   program; its `insert`/`delete` control relations are applied to the
//!   candidate immediately, so later steps observe earlier staged writes;
//! * [`Transaction::stage_insert`] / [`Transaction::stage_delete`] —
//!   direct tuple-level staging without compiling a program.
//!
//! Integrity constraints are enforced at [`Transaction::commit`] against
//! the **final** candidate state, matching the paper's §3.4–3.5 protocol
//! ("changes are persisted, unless the transaction is aborted"): a step
//! may transiently violate a constraint that a later step repairs.
//! [`Transaction::abort`] — or simply dropping the handle — discards the
//! candidate at zero cost; the session's database is only ever touched by
//! a successful commit.
//!
//! ```
//! use rel_core::database::figure1_database;
//! use rel_core::tuple;
//! use rel_engine::Session;
//!
//! let mut s = Session::new(figure1_database());
//! let mut txn = s.begin();
//! txn.run("def insert(:ClosedOrders, x) : PaymentOrder(_, x)").unwrap();
//! txn.stage_insert("ClosedOrders", tuple!["O9"]);
//! let outcome = txn.commit().unwrap();
//! assert_eq!(outcome.inserted, 4);
//! assert_eq!(s.db().get("ClosedOrders").unwrap().len(), 4);
//! ```

use crate::fixpoint::materialize_with_cache;
use crate::incremental::{materialize_incremental, PreState};
use crate::prepared::{Params, Prepared};
use crate::session::{
    check_constraints, check_control_materializable, extract_delta, output_of, require_no_params,
    Session, TxnOutcome,
};
use crate::watch::Watch;
use rel_core::database::Delta;
use rel_core::{Database, Name, RelResult, Relation, Tuple};
use rel_sema::ir::Module;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A constraint check deferred to commit time. The step's materialization
/// is kept as a captured [`PreState`] (CoW handles — cheap): if no later
/// step touched anything the module reads, it *is* the final state's
/// materialization; otherwise the incremental engine re-derives just the
/// dependent cone from it, and only constraints inside the cone are
/// re-verified against the re-derived state.
struct PendingCheck {
    module: Arc<Module>,
    /// Reserved `?name` relations the step ran with.
    param_rels: BTreeMap<Name, Relation>,
    /// The step's materialization plus the base-relation generations it
    /// evaluated against (the candidate at step time + `param_rels`).
    pre: PreState,
}

/// An in-flight transaction over a candidate database snapshot. Created
/// by [`Session::begin`]; holds the session exclusively (`&mut`) so no
/// other writer can interleave, while the snapshot itself cost O(1).
pub struct Transaction<'s> {
    session: &'s mut Session,
    candidate: Database,
    touched: BTreeSet<Name>,
    inserted: usize,
    deleted: usize,
    checks: Vec<PendingCheck>,
    output: Relation,
}

impl<'s> Transaction<'s> {
    pub(crate) fn begin(session: &'s mut Session) -> Self {
        let candidate = session.db().clone();
        Transaction {
            session,
            candidate,
            touched: BTreeSet::new(),
            inserted: 0,
            deleted: 0,
            checks: Vec::new(),
            output: Relation::default(),
        }
    }

    /// The candidate state (the snapshot plus everything staged so far).
    pub fn db(&self) -> &Database {
        &self.candidate
    }

    /// Tuples staged for insertion so far.
    pub fn staged_inserts(&self) -> usize {
        self.inserted
    }

    /// Tuples staged for deletion so far.
    pub fn staged_deletes(&self) -> usize {
        self.deleted
    }

    /// Compile (through the session's module cache) and run one step:
    /// evaluate against the candidate, apply the step's `insert`/`delete`
    /// delta to the candidate, and return the step's `output` relation.
    /// Constraint checking is deferred to [`Transaction::commit`].
    pub fn run(&mut self, src: &str) -> RelResult<Relation> {
        let module = self.session.compile(src)?;
        check_control_materializable(&module)?;
        // Parameterized sources must come through `run_prepared`, which
        // binds the reserved relations — running them here would silently
        // evaluate against empty parameters.
        require_no_params(&module)?;
        let rels = self.session.materialize_module(&module, &self.candidate)?;
        let pre = (!module.constraints.is_empty())
            .then(|| PreState::capture(&self.candidate, &rels));
        self.absorb_step(module, BTreeMap::new(), pre, rels)
    }

    /// Run a prepared step with `?name` parameters bound. The parameter
    /// relations exist only for this step's evaluation — they never leak
    /// into the candidate (or the committed) database.
    pub fn run_prepared(&mut self, prepared: &Prepared, params: &Params) -> RelResult<Relation> {
        let db = prepared.bind(params, &self.candidate)?;
        let rels = self.session.materialize_module(prepared.module(), &db)?;
        let param_rels: BTreeMap<Name, Relation> = prepared
            .param_names()
            .iter()
            .map(|p| {
                let reserved = rel_sema::ir::param_relation(p);
                let rel = rels.get(&reserved).cloned().unwrap_or_default();
                (reserved, rel)
            })
            .collect();
        let pre = (!prepared.module().constraints.is_empty())
            .then(|| PreState::capture(&db, &rels));
        self.absorb_step(Arc::clone(prepared.module()), param_rels, pre, rels)
    }

    fn absorb_step(
        &mut self,
        module: Arc<Module>,
        param_rels: BTreeMap<Name, Relation>,
        pre: Option<PreState>,
        rels: BTreeMap<Name, Relation>,
    ) -> RelResult<Relation> {
        let delta = extract_delta(&rels)?;
        let output = output_of(&rels);
        if let Some(pre) = pre {
            self.checks.push(PendingCheck { module, param_rels, pre });
        }
        if !delta.is_empty() {
            self.inserted += delta.inserts.values().map(Vec::len).sum::<usize>();
            self.deleted += delta.deletes.values().map(Vec::len).sum::<usize>();
            self.touched
                .extend(delta.inserts.keys().chain(delta.deletes.keys()).cloned());
            self.candidate.apply(&delta);
        }
        self.output = output.clone();
        Ok(output)
    }

    /// Register a standing query while this transaction is open. The
    /// watch observes the **committed** snapshot — never this
    /// transaction's staged candidate: its initial snapshot excludes
    /// everything staged so far, and the staged writes arrive as an
    /// ordinary delta batch if (and only if) the transaction commits.
    /// (The borrow rules already prevent calling [`Session::watch`] while
    /// a transaction holds the session; this delegation is the sanctioned
    /// mid-transaction path, pinned to committed-state semantics by the
    /// `watch_registered_mid_transaction_sees_committed_state_only` test.)
    pub fn watch(&self, prepared: &Prepared, params: &Params) -> RelResult<Watch> {
        self.session.watch(prepared, params)
    }

    /// Stage one tuple for insertion, bypassing compilation. Returns
    /// whether the tuple was new.
    pub fn stage_insert(&mut self, rel: impl AsRef<str>, t: Tuple) -> bool {
        let added = self.candidate.insert(rel.as_ref(), t);
        if added {
            self.inserted += 1;
            self.touched.insert(rel_core::name(rel));
        }
        added
    }

    /// Stage one tuple for deletion, bypassing compilation. Returns
    /// whether the tuple was present.
    pub fn stage_delete(&mut self, rel: impl AsRef<str>, t: &Tuple) -> bool {
        if !self.candidate.defines(rel.as_ref()) {
            return false;
        }
        let removed = self.candidate.get_mut(rel.as_ref()).remove(t);
        if removed {
            self.deleted += 1;
            self.touched.insert(rel_core::name(rel));
        }
        removed
    }

    /// Check every staged step's integrity constraints against the final
    /// candidate state and install it as the session's database. On a
    /// violation the transaction aborts with the error and the session is
    /// left untouched.
    ///
    /// The re-check is *incremental* (unless the session disables it):
    /// each pending check compares the final candidate's base-relation
    /// generations against the ones its step evaluated under; when
    /// something moved, only the constraints inside the
    /// [`rel_sema::ir::Module::dependent_cone`] of the moved relations
    /// are re-verified, against state re-derived from the step's own
    /// materialization by delta propagation (see [`crate::incremental`]).
    pub fn commit(self) -> RelResult<TxnOutcome> {
        // Direct staging bypasses compilation, so a transaction with no
        // compiled steps carries no pending check that would enforce the
        // *installed library's* constraints (every `run` step's module
        // embeds them). Compile the empty query — cached after the first
        // time — to recover exactly those, pruned to what they read.
        if self.checks.is_empty() && !self.touched.is_empty() {
            let module = self.session.compile("")?;
            if !module.constraints.is_empty() {
                let rels = self.session.materialize_module(&module, &self.candidate)?;
                check_constraints(&module, &rels)?;
            }
        }
        for check in &self.checks {
            self.recheck(check)?;
        }
        // Durable sessions log the commit's net delta *after* every
        // constraint check passed and *before* the candidate becomes
        // visible: an aborted (or dropped) transaction never reaches the
        // log, and a failed append aborts the commit with the session
        // untouched. Ephemeral sessions skip even the diff.
        if self.session.is_durable() {
            let delta = net_delta(&self.session.db, &self.candidate, &self.touched);
            if !delta.is_empty() {
                self.session.log_commit(&delta)?;
            }
        }
        self.session.db = self.candidate;
        // The touched relations' generations moved with the commit: drop
        // their pre-commit indexes eagerly (generation-checked lookups
        // could never serve them, this just sheds dead weight), while
        // indexes built at the committed generation stay warm.
        self.session
            .index_cache
            .invalidate_stale_relations(self.touched.iter(), &self.session.db);
        // Standing queries see the commit the instant it is visible:
        // compute and push each registered watch's output delta against
        // the freshly installed database (watches whose dependent cone
        // the commit cannot reach are skipped without evaluation).
        self.session.notify_watches(&self.touched);
        // Fold the log into a snapshot when a compaction trigger fired
        // (no-op for ephemeral sessions; failure is a warning — the WAL
        // already holds this commit).
        self.session.maybe_compact();
        crate::metrics::registry().commits.incr();
        Ok(TxnOutcome {
            output: self.output,
            inserted: self.inserted,
            deleted: self.deleted,
        })
    }

    /// Re-verify one step's constraints against the final candidate.
    fn recheck(&self, check: &PendingCheck) -> RelResult<()> {
        let mut db = self.candidate.clone();
        for (reserved, rel) in &check.param_rels {
            db.set(reserved.clone(), rel.clone());
        }
        let touched = check.pre.touched_in(&db);
        if touched.is_empty() {
            // Nothing changed after this step: its own materialization
            // *is* the final state's.
            return check_constraints(&check.module, check.pre.state());
        }
        if !self.session.incremental_enabled() {
            let rels =
                materialize_with_cache(&check.module, &db, self.session.index_cache.clone())?;
            return check_constraints(&check.module, &rels);
        }
        // Can the touched relations reach any constraint at all? A
        // constraint is affected when it reads a touched base relation
        // directly or a predicate of an in-cone stratum. If none is, the
        // step's own materialization is still authoritative for every
        // constraint and no re-derivation happens; otherwise the cone is
        // re-derived incrementally and all constraints are checked
        // against the result (out-of-cone relations in it are
        // pointer-identical to the step state, so those evaluations cost
        // and yield exactly what a step-state check would).
        let cone = check.module.dependent_cone(&touched);
        let mut affected: BTreeSet<&Name> = touched.iter().collect();
        for &i in &cone {
            affected.extend(check.module.strata[i].preds.iter());
        }
        let any_affected = check.module.constraints.iter().any(|c| {
            let mut hit = false;
            rel_sema::ir::visit_constraint_preds(c, &mut |n, _| hit |= affected.contains(n));
            hit
        });
        if any_affected {
            let new_rels = materialize_incremental(
                &check.module,
                &check.pre,
                &db,
                self.session.index_cache.clone(),
            )?;
            check_constraints(&check.module, &new_rels)
        } else {
            check_constraints(&check.module, check.pre.state())
        }
    }

    /// Discard the candidate state. Equivalent to dropping the handle —
    /// provided so call sites can say what they mean. On a durable
    /// session this (like any abort path) leaves no trace in the WAL:
    /// commits are logged only at a successful [`Transaction::commit`].
    pub fn abort(self) {
        crate::metrics::registry().aborts.incr();
    }
}

/// The net difference between the session database and the final
/// candidate over the touched relations, as an applyable [`Delta`].
/// Staged-then-reverted changes cancel out, so a relation whose contents
/// ended up unchanged contributes nothing (even though staging bumped its
/// generation) — replaying the log reproduces exactly the committed
/// states.
fn net_delta(old: &Database, new: &Database, touched: &BTreeSet<Name>) -> Delta {
    let empty = Relation::default();
    let mut delta = Delta::default();
    for name in touched {
        let before = old.get(name).unwrap_or(&empty);
        let after = new.get(name).unwrap_or(&empty);
        if before == after {
            continue;
        }
        let ins = after.minus(before);
        let del = before.minus(after);
        if !ins.is_empty() {
            delta.inserts.insert(name.clone(), ins.iter().cloned().collect());
        }
        if !del.is_empty() {
            delta.deletes.insert(name.clone(), del.iter().cloned().collect());
        }
    }
    delta
}

impl std::fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("staged_inserts", &self.inserted)
            .field("staged_deletes", &self.deleted)
            .field("touched", &self.touched)
            .field("pending_checks", &self.checks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::database::figure1_database;
    use rel_core::{tuple, RelError};

    fn session() -> Session {
        Session::new(figure1_database())
    }

    #[test]
    fn staged_steps_see_each_other() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def insert(:Closed, x) : PaymentOrder(_, x)").unwrap();
        // The second step reads the first step's staged writes (the
        // candidate view exposes them too).
        let out = txn.run("def output(x) : Closed(x)").unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(txn.db().get("Closed").unwrap().len(), 3);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Closed").unwrap().len(), 3);
    }

    #[test]
    fn abort_discards_everything() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def insert(:Closed, x) : PaymentOrder(_, x)").unwrap();
        txn.stage_insert("Closed", tuple!["O9"]);
        txn.abort();
        assert!(!s.db().defines("Closed"));
    }

    #[test]
    fn drop_is_abort() {
        let mut s = session();
        {
            let mut txn = s.begin();
            txn.stage_insert("Closed", tuple!["O9"]);
        }
        assert!(!s.db().defines("Closed"));
    }

    #[test]
    fn direct_staging_counts_and_commits() {
        let mut s = session();
        let mut txn = s.begin();
        assert!(txn.stage_insert("ProductPrice", tuple!["P9", 99]));
        assert!(!txn.stage_insert("ProductPrice", tuple!["P9", 99])); // dup
        assert!(txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
        assert!(!txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
        let outcome = txn.commit().unwrap();
        assert_eq!((outcome.inserted, outcome.deleted), (1, 1));
        assert_eq!(s.db().get("ProductPrice").unwrap().len(), 4);
        assert!(s.db().get("ProductPrice").unwrap().contains(&tuple!["P9", 99]));
    }

    #[test]
    fn constraints_checked_on_commit_against_final_state() {
        // Step 1 violates the constraint transiently; step 2 repairs it
        // before commit — the transaction succeeds.
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P9\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        txn.stage_insert("ProductPrice", tuple!["P9", 99]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 5);
    }

    #[test]
    fn unrepaired_violation_aborts_commit() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P9\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        // Aborted: database unchanged.
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 4);
    }

    #[test]
    fn prepared_step_with_params_stages_writes() {
        let mut s = session();
        let q = s
            .prepare("def insert(:Expensive, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap();
        let mut txn = s.begin();
        let n = txn
            .run_prepared(&q, &Params::new().set("min", 15))
            .map(|_| txn.staged_inserts())
            .unwrap();
        assert_eq!(n, 3);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Expensive").unwrap().len(), 3);
        // The reserved parameter relation never reaches the database.
        assert!(!s.db().defines("?min"));
    }

    #[test]
    fn stage_only_transaction_enforces_library_constraints() {
        // Direct staging must not slip past `ic`s installed as library:
        // the same write that aborts through `transact` aborts here too.
        let mut s = session().with_library(
            "ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)\n",
        );
        let mut txn = s.begin();
        txn.stage_insert("OrderProductQuantity", tuple!["O9", "NOPE", 1]);
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 4);
        // A conforming staged write still commits.
        let mut txn = s.begin();
        txn.stage_insert("OrderProductQuantity", tuple!["O9", "P1", 1]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 5);
    }

    #[test]
    fn run_rejects_parameterized_source() {
        // A `?param` through the unprepared path must error, not evaluate
        // against an absent (empty) parameter relation.
        let mut s = session();
        let mut txn = s.begin();
        let err = txn
            .run("def insert(:X, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
        drop(txn);
        // And the thin `transact` wrapper inherits the guard.
        let err = s
            .transact("def insert(:X, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
    }

    #[test]
    fn later_step_violating_earlier_constraint_aborts() {
        // Step 1's constraint holds at step time; step 2's staged delete
        // breaks it. The incremental re-check must re-derive the cone and
        // abort — in both evaluation modes.
        for incremental in [true, false] {
            let mut s = session();
            s.set_incremental(incremental);
            let mut txn = s.begin();
            txn.run(
                "def insert(:OrderProductQuantity, x, y, z) : \
                   x = \"O9\" and y = \"P1\" and z = 1\n\
                 ic valid_products(p) requires \
                   OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
            )
            .unwrap();
            // Deleting P1's price invalidates both the staged insert and
            // the pre-existing O1/O2 rows referencing P1.
            assert!(txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
            let err = txn.commit().unwrap_err();
            assert!(
                matches!(err, RelError::ConstraintViolation { .. }),
                "incremental={incremental}: {err}"
            );
            assert_eq!(s.db().get("ProductPrice").unwrap().len(), 4);
        }
    }

    #[test]
    fn out_of_cone_constraint_checks_against_step_state() {
        // The step's constraint reads only ProductPrice; everything the
        // transaction touches afterwards (Expensive via the step's own
        // delta, AuditLog via direct staging) is outside the constraint's
        // reach, so commit takes the no-re-derivation branch and checks
        // the step's own state. The commit succeeds and applies both
        // writes.
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:Expensive, x) : exists((y) | ProductPrice(x, y) and y > 25)\n\
             ic has_cheap() requires exists((p) | ProductPrice(p, 10))",
        )
        .unwrap();
        txn.stage_insert("AuditLog", tuple!["touched"]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Expensive").unwrap().len(), 2);
        assert_eq!(s.db().get("AuditLog").unwrap().len(), 1);

        // And the branch *evaluates*, it does not skip: a violated
        // out-of-cone constraint still aborts.
        let mut txn = s.begin();
        txn.run(
            "def insert(:Expensive2, x) : exists((y) | ProductPrice(x, y) and y > 25)\n\
             ic impossible() requires ProductPrice(\"P1\", 11)",
        )
        .unwrap();
        txn.stage_insert("AuditLog", tuple!["touched again"]);
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert!(!s.db().defines("Expensive2"));
        assert_eq!(s.db().get("AuditLog").unwrap().len(), 1);
    }

    #[test]
    fn repeated_transacts_agree_with_full_mode() {
        // A sequence of small commits over a recursive view: the session's
        // incremental mode must land on exactly the database a
        // full-re-materialization session lands on.
        let lib = "def TC(x,y) : E(x,y)\n\
                   def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
                   ic closed(x, y) requires E(x,y) implies TC(x,y)";
        let mut inc = Session::new(Database::new()).with_library(lib);
        let mut full = Session::new(Database::new()).with_library(lib);
        full.set_incremental(false);
        assert!(inc.incremental_enabled() || std::env::var("REL_INCREMENTAL").is_ok());
        for s in [&mut inc, &mut full] {
            s.db_mut().insert("E", tuple![1, 2]);
            s.db_mut().insert("E", tuple![2, 3]);
        }
        for step in 3..8i64 {
            for s in [&mut inc, &mut full] {
                let mut txn = s.begin();
                txn.run(&format!(
                    "def insert(:E, x, y) : x = {step} and y = {}",
                    step + 1
                ))
                .unwrap();
                txn.commit().unwrap();
            }
        }
        let q = "def output(x, y) : TC(x, y)";
        assert_eq!(inc.query(q).unwrap(), full.query(q).unwrap());
        assert_eq!(inc.db().get("E").unwrap(), full.db().get("E").unwrap());
    }

    #[test]
    fn watch_registered_mid_transaction_sees_committed_state_only() {
        let mut s = session();
        let q = s.prepare("def output(x, y) : ProductPrice(x, y)").unwrap();
        let mut txn = s.begin();
        txn.stage_insert("ProductPrice", tuple!["P9", 99]);
        // Registration happens with staged state pending: the initial
        // snapshot must be the committed database, not the candidate.
        let w = txn.watch(&q, &Params::new()).unwrap();
        let first = w.try_recv().unwrap();
        assert!(first.snapshot);
        assert_eq!(first.added.len(), 4, "snapshot must exclude staged writes");
        assert!(!first.added.contains(&tuple!["P9", 99]));
        txn.commit().unwrap();
        // The staged write arrives as the commit's delta, not earlier.
        let d = w.try_recv().unwrap();
        assert_eq!(d.seq, 1);
        assert!(!d.snapshot);
        assert_eq!(
            d.added.rows::<(String, i64)>().unwrap(),
            vec![("P9".to_string(), 99)]
        );
        assert!(d.removed.is_empty());
    }

    #[test]
    fn aborted_transaction_pushes_nothing() {
        let mut s = session();
        let q = s.prepare("def output(x, y) : ProductPrice(x, y)").unwrap();
        let w = {
            let mut txn = s.begin();
            txn.stage_insert("ProductPrice", tuple!["P9", 99]);
            let w = txn.watch(&q, &Params::new()).unwrap();
            txn.abort();
            w
        };
        let first = w.try_recv().unwrap();
        assert!(first.snapshot);
        assert!(w.try_recv().is_none(), "aborted staging must never surface");
        // A commit-time constraint violation is equally invisible.
        let err = s
            .transact(
                "def insert(:ProductPrice, x, y) : x = \"P9\" and y = 99\n\
                 ic impossible() requires ProductPrice(\"P1\", 11)",
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert!(w.try_recv().is_none());
    }

    #[test]
    fn outcome_output_is_last_step() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def output(x) : ProductPrice(x, _)").unwrap();
        txn.run("def output(y) : exists((x) | PaymentOrder(x, y))").unwrap();
        let outcome = txn.commit().unwrap();
        assert_eq!(outcome.output.len(), 3);
    }
}
