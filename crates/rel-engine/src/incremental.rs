//! Incremental view maintenance: delta propagation under base-table
//! change.
//!
//! The paper's system evaluates transactions *incrementally* — derived
//! relations are maintained under base-relation change instead of being
//! recomputed from scratch (§6). This module is that evaluation mode for
//! our engine: given the **pre-state fixpoint** of a module (the full
//! EDB ∪ IDB relation state of a previous materialization, captured in a
//! [`PreState`]) and a database that has since changed in a *known* set
//! of base relations, [`materialize_incremental`] re-derives only what
//! the change can actually affect and produces relation state
//! **byte-identical** to a from-scratch [`crate::fixpoint::materialize`]
//! run over the new database.
//!
//! # The cone / delta-seeding model
//!
//! Which base relations changed is detected structurally, not by diffing:
//! every [`rel_core::Relation`] carries a globally unique *generation*
//! that moves exactly when its tuple set does, so comparing the
//! generations recorded in the [`PreState`] against the new database
//! yields the touched set in O(#relations). From the touched set,
//! [`rel_sema::ir::Module::dependent_cone`] — per-stratum read sets
//! joined with the stratum dependency DAG — gives the *dependent cone*:
//! every stratum whose result could differ. The engine then walks the
//! strata in dependency order and treats each one in the cheapest sound
//! way:
//!
//! * **Outside the cone** — the result cannot have changed: the
//!   pre-state relation is reused with an O(1) copy-on-write pointer
//!   bump. No rule is evaluated.
//! * **In the cone, but no input actually changed** — the cone is an
//!   over-approximation (an upstream stratum may re-derive exactly its
//!   old value), so each in-cone stratum first *value-compares* its
//!   inputs against the pre-state (cheap: generation, then length, then
//!   cached fingerprint, before any element-wise walk) and reuses the
//!   pre-state result when nothing moved.
//! * **Monotone strata with grown inputs** — *delta-seeded restart*
//!   ([`StratumAction::DeltaRestarted`]). It applies when every changed
//!   input is read only *positively* and only **grew**. The stratum's
//!   relations are seeded with their pre-state value; for every changed
//!   input `I` the engine installs `ΔI = new(I) ∖ old(I)` and evaluates,
//!   for each rule, one variant per occurrence of a changed input with
//!   that occurrence reading `ΔI` (the new/full formulation — other
//!   occurrences read the full new value). The novel tuples are added to
//!   the seeded value. For a non-recursive stratum that single pass over
//!   the input deltas is the whole update; for a recursive one they
//!   become the seed Δ of the ordinary semi-naive loop, which runs to
//!   fixpoint exactly as a from-scratch evaluation would — but starting
//!   from the pre-state instead of from nothing. Monotonicity guarantees
//!   the pre-state result is contained in the new one, and the least
//!   fixpoint above a subset of the answer is the answer.
//! * **Non-recursive strata facing deletions or non-monotone reads** —
//!   *key-restricted re-evaluation* ([`StratumAction::KeyRestricted`]).
//!   Analysis records, per input, the head positions every occurrence of
//!   it binds with a bare head variable — positive or negated atom,
//!   partial application (also inside `reduce` or `<++`), `x in R`
//!   domain ([`rel_sema::ir::KeyBinding`]). When the changed inputs share
//!   a non-empty key `K`, the head tuples outside the keys their added
//!   and removed tuples carry cannot have moved: the engine projects
//!   those tuples onto `K`, re-evaluates the rules with the affected keys
//!   seeded into the environment, and splices
//!   `new = old − σ_{K ∈ keys}(old) ∪ restricted`. Grouped aggregates,
//!   overrides with a default and negation keyed by the head are
//!   maintained this way. When the affected keys are at least as many as
//!   the distinct keys of the old result, the stratum recomputes instead.
//! * **Everything else in the cone** is recomputed
//!   ([`StratumAction::Recomputed`]), but only that stratum, from
//!   upstream results that were themselves reused or maintained:
//!   recursive strata facing deletions or changed negatively-read inputs
//!   (deletion deltas through recursion — counting / DRed — are future
//!   work), non-monotone recursive strata (partial-fixpoint iteration),
//!   non-recursive strata whose changed inputs share no key, strata whose
//!   own EDB seed was touched, and strata reading a demand-driven
//!   predicate the change reaches.
//!
//! Because every path either reuses a provably unchanged value, adds
//! exactly the derivations that use a new tuple, re-derives exactly the
//! head keys a changed tuple can reach, or re-runs the stock evaluator
//! over correct inputs, the final relation state —
//! contents *and* iteration order, since relations are sorted sets — is
//! byte-identical to full re-materialization (the randomized
//! `incremental_equivalence` and `delta_maintenance` suites drive inserts
//! *and* deletes through both paths and compare flattened states).
//!
//! The subsystem is wired into [`crate::Session`] (a bounded per-module
//! fixpoint cache makes repeated queries and `Session::transact` calls
//! incremental automatically) and [`crate::Transaction::commit`] (the
//! commit-time constraint re-check re-verifies only constraints in the
//! cone, re-deriving their inputs incrementally). Setting the environment
//! variable `REL_INCREMENTAL=0` (or using
//! [`crate::Session::set_incremental`]) falls back to full
//! re-materialization everywhere.

use crate::env::{Env, EnvVal};
use crate::eval::{EvalCtx, SharedIndexCache};
use crate::fixpoint::{
    count_scc_refs, delta_name, delta_variant, eval_stratum, materialize_with_cache,
    scc_delta_variants, semi_naive_loop,
};
use crate::profile::{StratumAction, StratumProfile};
use rel_core::{Database, Name, RelResult, Relation, Tuple, Value};
use rel_sema::ir::{AbsParam, EvalMode, Module, Rule, Stratum, StratumReads};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The default incremental-maintenance switch for this process: the
/// `REL_INCREMENTAL` environment variable, off when set to `0`, `false`,
/// `off`, or `no` (case-insensitive), on otherwise (including unset).
pub fn env_enabled() -> bool {
    match std::env::var("REL_INCREMENTAL") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// A captured pre-state: the full relation state of one materialization
/// of a module, plus the generation of every base relation of the
/// database it ran against. Cloning is O(#relations) pointer bumps.
///
/// The generations are what make reuse sound without trusting the
/// caller: generations are globally unique and move exactly when a
/// relation's tuple set does, so `base_gens[name] ==
/// db.get(name).generation()` *proves* the base relation is unchanged —
/// even across session clones, aborted transactions, or direct
/// `db_mut()` edits the engine never saw.
#[derive(Clone, Debug)]
pub struct PreState {
    /// Generation of every base relation at capture time.
    base_gens: BTreeMap<Name, u64>,
    /// The materialized relation state (EDB ∪ IDB).
    state: BTreeMap<Name, Relation>,
}

impl PreState {
    /// Capture the pre-state of a finished materialization: `db` is the
    /// database it evaluated against (including any injected `?param`
    /// relations), `state` its resulting relation map.
    pub fn capture(db: &Database, state: &BTreeMap<Name, Relation>) -> Self {
        PreState {
            base_gens: db.iter().map(|(n, r)| (n.clone(), r.generation())).collect(),
            state: state.clone(),
        }
    }

    /// The captured relation state.
    pub fn state(&self) -> &BTreeMap<Name, Relation> {
        &self.state
    }

    /// The base relations of `db` that changed (or appeared, or vanished)
    /// since this pre-state was captured, detected by generation
    /// comparison — never by content diffing.
    pub fn touched_in(&self, db: &Database) -> BTreeSet<Name> {
        let mut touched = BTreeSet::new();
        for (n, r) in db.iter() {
            if self.base_gens.get(n) != Some(&r.generation()) {
                touched.insert(n.clone());
            }
        }
        for n in self.base_gens.keys() {
            if db.get(n).is_none() {
                touched.insert(n.clone());
            }
        }
        touched
    }
}

/// How [`materialize_incremental_with_stats`] handled each stratum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Strata reused wholesale from the pre-state (out of the cone, or in
    /// the cone with value-identical inputs): O(1) per relation.
    pub reused: usize,
    /// Monotone strata restarted from the pre-state with input-delta
    /// seeding (semi-naively to the fixpoint when recursive, a single pass
    /// over the input deltas otherwise).
    pub delta_seeded: usize,
    /// Non-recursive strata re-derived only at the head keys their
    /// changed inputs carry, the rest of the old result kept.
    pub key_restricted: usize,
    /// Strata re-evaluated from scratch (over reused/maintained inputs).
    pub recomputed: usize,
}

/// [`materialize_incremental_with_stats`] without the stats.
pub fn materialize_incremental(
    module: &Module,
    pre: &PreState,
    db: &Database,
    cache: SharedIndexCache,
) -> RelResult<BTreeMap<Name, Relation>> {
    materialize_incremental_with_stats(module, pre, db, cache).map(|(rels, _)| rels)
}

/// Re-derive the module's relation state over `db`, reusing everything
/// the changed base relations cannot affect. The result is byte-identical
/// to `materialize_with_cache(module, db, cache)`; see the module docs
/// for the maintenance strategy. Falls back to full materialization for
/// modules without cone metadata (hand-assembled `Module`s).
pub fn materialize_incremental_with_stats(
    module: &Module,
    pre: &PreState,
    db: &Database,
    cache: SharedIndexCache,
) -> RelResult<(BTreeMap<Name, Relation>, IncrementalStats)> {
    let n = module.strata.len();
    if module.stratum_reads.len() != n || module.stratum_deps.len() != n {
        let rels = materialize_with_cache(module, db, cache)?;
        let stats = IncrementalStats { recomputed: n, ..Default::default() };
        note_incremental_stats(&stats);
        return Ok((rels, stats));
    }
    let touched = pre.touched_in(db);
    let cone: BTreeSet<usize> = module.dependent_cone(&touched).into_iter().collect();

    // Seed exactly like a full run: every base relation, O(1) clones.
    let mut rels: BTreeMap<Name, Relation> =
        db.iter().map(|(name, r)| (name.clone(), r.clone())).collect();
    let mut stats = IncrementalStats::default();
    let mut diffs = BTreeMap::new();

    // Walk the strata in dependency order: out-of-cone results are the
    // pre-state's (O(1) pointer bumps), in-cone strata are maintained.
    // An out-of-cone stratum whose predicates the pre-state does not
    // cover (a `PreState` captured from a *different* module) cannot be
    // reused — recompute it, keeping the byte-identical contract even
    // for that misuse.
    let sink = cache.profile();
    for (i, stratum) in module.strata.iter().enumerate() {
        if cone.contains(&i) {
            maintain_stratum(
                module, &mut rels, i, pre, &touched, &cone, &mut diffs, &cache, &mut stats,
            )?;
        } else if pre_covers(module, pre, stratum) {
            for p in &stratum.preds {
                if let Some(r) = pre.state.get(p) {
                    rels.insert(p.clone(), r.clone());
                }
            }
            stats.reused += 1;
            if let Some(sink) = &sink {
                sink.push_stratum(reused_record(stratum));
            }
        } else {
            // `eval_stratum` pushes an "evaluated" record when profiling;
            // relabel it with the incremental classification.
            eval_stratum(module, &mut rels, stratum, &cache)?;
            stats.recomputed += 1;
            if let Some(sink) = &sink {
                sink.relabel_last(StratumAction::Recomputed);
            }
        }
    }

    cache.prune_stale(&rels);
    note_incremental_stats(&stats);
    Ok((rels, stats))
}

/// Fold one incremental run's per-stratum classification into the
/// process-wide registry (when metrics are on).
fn note_incremental_stats(stats: &IncrementalStats) {
    if crate::metrics::enabled() {
        let r = crate::metrics::registry();
        r.strata_reused.add(stats.reused as u64);
        r.strata_delta_restarted.add(stats.delta_seeded as u64);
        r.strata_key_restricted.add(stats.key_restricted as u64);
        r.strata_recomputed.add(stats.recomputed as u64);
    }
}

/// A profile record for a stratum reused wholesale (O(1) pointer bumps —
/// no wall time or kernel counts worth attributing).
fn reused_record(stratum: &Stratum) -> StratumProfile {
    StratumProfile {
        preds: stratum.preds.iter().map(|p| p.to_string()).collect(),
        recursive: stratum.recursive,
        action: StratumAction::Reused,
        wall: std::time::Duration::ZERO,
        counts: Default::default(),
    }
}

/// Does the pre-state hold a result for every materialized predicate of
/// the stratum? Always true for a `PreState` captured from this module's
/// own materialization.
fn pre_covers(module: &Module, pre: &PreState, stratum: &Stratum) -> bool {
    stratum.preds.iter().all(|p| {
        pre.state.contains_key(p)
            || matches!(
                module.pred_info.get(p).map(|i| &i.mode),
                Some(EvalMode::Demand { .. })
            )
    })
}

/// One changed input's tuple-level change since the pre-state, computed
/// at most once per maintenance run (several strata read the same
/// input).
struct InputDiff {
    added: Relation,
    removed: Relation,
}

impl InputDiff {
    fn between(old: &Relation, new: &Relation) -> InputDiff {
        let added = new.minus(old);
        // A length check proves "no deletion" without a second walk.
        let removed = if old.len() + added.len() == new.len() {
            Relation::new()
        } else {
            old.minus(new)
        };
        InputDiff { added, removed }
    }
}

/// The diff of `input` between the pre-state and `rels`, computed on
/// first use — only once a delta path still depends on it, so a stratum
/// that a small input already rules out never walks a large one.
fn input_diff<'d>(
    diffs: &'d mut BTreeMap<Name, InputDiff>,
    pre: &PreState,
    rels: &BTreeMap<Name, Relation>,
    input: &Name,
) -> &'d InputDiff {
    diffs.entry(input.clone()).or_insert_with(|| {
        InputDiff::between(
            &pre.state.get(input).cloned().unwrap_or_default(),
            &rels.get(input).cloned().unwrap_or_default(),
        )
    })
}

/// Bring one in-cone stratum up to date against `rels` (which already
/// holds the new base relations and every earlier stratum's result).
#[allow(clippy::too_many_arguments)]
fn maintain_stratum(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    idx: usize,
    pre: &PreState,
    touched: &BTreeSet<Name>,
    cone: &BTreeSet<usize>,
    diffs: &mut BTreeMap<Name, InputDiff>,
    cache: &SharedIndexCache,
    stats: &mut IncrementalStats,
) -> RelResult<()> {
    let stratum: &Stratum = &module.strata[idx];
    let reads = &module.stratum_reads[idx];
    let pred_set: BTreeSet<&Name> = stratum.preds.iter().collect();

    // Did a touched base relation feed one of this stratum's own EDB
    // seeds? Its old base contribution cannot be separated from the
    // pre-state fixpoint, so neither reuse nor delta maintenance applies.
    let own_touched = stratum.preds.iter().any(|p| touched.contains(p));

    // A reusable pre-state must actually cover the stratum's materialized
    // predicates (it always does when captured from this module).
    let pre_complete = pre_covers(module, pre, stratum);

    // Diff this stratum's inputs against the pre-state. Demand-driven
    // inputs are not materialized in `rels`; if such an input's stratum
    // sits in the cone its call-time value may differ in ways we cannot
    // diff, which blocks both reuse and delta maintenance.
    let mut demand_blocked = false;
    let mut changed: BTreeSet<&Name> = BTreeSet::new();
    for input in reads.all() {
        if pred_set.contains(input) || changed.contains(input) {
            continue;
        }
        if let Some(info) = module.pred_info.get(input) {
            if matches!(info.mode, EvalMode::Demand { .. }) {
                demand_blocked |= cone.contains(&info.stratum);
                continue;
            }
        }
        if pre.state.get(input).cloned().unwrap_or_default()
            != rels.get(input).cloned().unwrap_or_default()
        {
            changed.insert(input);
        }
    }

    let sink = cache.profile();
    // Demand-only strata are evaluated at call sites, never stored.
    let materialized = stratum.preds.iter().all(|p| {
        matches!(
            module.pred_info.get(p).map(|i| &i.mode),
            Some(EvalMode::Materialize) | None
        )
    });
    if pre_complete && !own_touched && !demand_blocked {
        if changed.is_empty() {
            // Every input re-derived to its old value: so does this
            // stratum.
            for p in &stratum.preds {
                if let Some(r) = pre.state.get(p) {
                    rels.insert(p.clone(), r.clone());
                }
            }
            stats.reused += 1;
            if let Some(sink) = &sink {
                sink.push_stratum(reused_record(stratum));
            }
            return Ok(());
        }
        let before = sink.as_ref().map(|s| s.counts());
        let start = std::time::Instant::now();
        // Which delta path could apply, decided before paying for input
        // diffs (each computed on first use). A base relation under the
        // predicate's own name would need its keyed rows spliced back
        // in: such strata take no keyed path.
        let positive = changed.iter().all(|&i| !reads.reads_negatively(i));
        let keyed = !stratum.recursive
            && changed.iter().all(|&i| reads.key_binding(i).is_some())
            && rels.get(&stratum.preds[0]).is_none_or(Relation::is_empty);
        let action = if !materialized || !stratum.monotone {
            None
        } else if positive
            && changed.iter().all(|&i| input_diff(diffs, pre, rels, i).removed.is_empty())
        {
            // Every changed input is read only positively and only grew.
            let deltas = changed.iter().map(|&i| (i.clone(), diffs[i].added.clone())).collect();
            semi_naive_restart(module, rels, stratum, pre, deltas, cache)?;
            stats.delta_seeded += 1;
            Some(StratumAction::DeltaRestarted)
        } else if keyed
            && key_restricted(module, rels, stratum, reads, pre, &changed, diffs, cache)?
        {
            stats.key_restricted += 1;
            Some(StratumAction::KeyRestricted)
        } else {
            None
        };
        if let Some(action) = action {
            if let (Some(sink), Some(before)) = (&sink, before) {
                sink.push_stratum(StratumProfile {
                    preds: stratum.preds.iter().map(|p| p.to_string()).collect(),
                    recursive: stratum.recursive,
                    action,
                    wall: start.elapsed(),
                    counts: sink.counts().since(&before),
                });
            }
            return Ok(());
        }
    }

    // Recompute just this stratum from its current (correct) inputs.
    // (`eval_stratum` pushes an "evaluated" record when profiling.)
    eval_stratum(module, rels, stratum, cache)?;
    stats.recomputed += 1;
    if let Some(sink) = &sink {
        sink.relabel_last(StratumAction::Recomputed);
    }
    Ok(())
}

/// Restart a monotone stratum from the pre-state: seed its relations with
/// their previous value, derive the initial Δ from the changed inputs'
/// deltas (one rule variant per changed-input occurrence, that
/// occurrence reading `ΔI`), and — for a recursive stratum — hand off to
/// the stock semi-naive loop. A non-recursive stratum is done after that
/// single pass over the input deltas.
fn semi_naive_restart(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    stratum: &Stratum,
    pre: &PreState,
    input_deltas: BTreeMap<Name, Relation>,
    cache: &SharedIndexCache,
) -> RelResult<()> {
    debug_assert!(!input_deltas.is_empty());
    let preds = &stratum.preds;
    // The accumulated "current" value starts at the previous fixpoint —
    // guaranteed a subset of the new one by monotonicity in the grown
    // inputs.
    for p in preds {
        rels.insert(p.clone(), pre.state.get(p).cloned().unwrap_or_default());
    }
    // Seed Δ: novel derivations that use at least one new input tuple.
    let changed_set: BTreeSet<&Name> = input_deltas.keys().collect();
    for (input, d) in &input_deltas {
        rels.insert(delta_name(input), d.clone());
    }
    let mut delta: BTreeMap<Name, Relation> = BTreeMap::new();
    {
        let cx = EvalCtx::with_cache(module, rels, cache.clone());
        for p in preds {
            let mut fresh = Relation::new();
            for rule in module.rules_for(p) {
                let occurrences = count_scc_refs(rule, &changed_set);
                for focus in 0..occurrences {
                    let variant = delta_variant(rule, &changed_set, focus);
                    fresh.absorb(&cx.eval_rule(&variant, Env::new(variant.vars.len()))?);
                }
            }
            if let Some(current) = rels.get(p) {
                fresh.minus_in_place(current);
            }
            delta.insert(p.clone(), fresh);
        }
    }
    for input in input_deltas.keys() {
        rels.remove(&delta_name(input));
    }
    for p in preds {
        let d = &delta[p];
        if !d.is_empty() {
            rels.get_mut(p).expect("seeded above").absorb(d);
        }
    }
    if !stratum.recursive {
        return Ok(());
    }
    let variants = scc_delta_variants(module, preds);
    semi_naive_loop(module, rels, preds, cache, &variants, delta)
}

/// Maintain a non-recursive stratum by re-deriving only the head keys
/// its changed inputs can affect: intersect the changed inputs'
/// [`rel_sema::ir::KeyBinding`]s to a common key `K`, project every
/// added or removed input tuple onto `K` through each occurrence's
/// columns, re-evaluate the rules with those keys seeded, and splice:
/// `new = old − σ_{K ∈ keys}(old) ∪ restricted`.
///
/// Returns `false` (having changed nothing) when the inputs share no key
/// or when the affected keys are at least as many as the distinct keys
/// of the old result — re-deriving them all would cost a recomputation
/// anyway.
#[allow(clippy::too_many_arguments)]
fn key_restricted(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    stratum: &Stratum,
    reads: &StratumReads,
    pre: &PreState,
    changed: &BTreeSet<&Name>,
    diffs: &mut BTreeMap<Name, InputDiff>,
    cache: &SharedIndexCache,
) -> RelResult<bool> {
    let p = &stratum.preds[0];
    let mut bindings = Vec::with_capacity(changed.len());
    let mut key: Option<Vec<usize>> = None;
    for &input in changed {
        let kb = reads.key_binding(input).expect("checked by the caller");
        key = Some(match key {
            None => kb.positions.clone(),
            Some(k) => k.into_iter().filter(|q| kb.positions.contains(q)).collect(),
        });
        bindings.push((input, kb));
    }
    let key = key.unwrap_or_default();
    if key.is_empty() {
        return Ok(false);
    }
    // The affected keys: every changed input tuple, through every
    // occurrence's key columns.
    let mut keys: BTreeSet<Vec<Value>> = BTreeSet::new();
    for (input, kb) in &bindings {
        let diff = input_diff(diffs, pre, rels, input);
        for occurrence in &kb.columns {
            let cols: Vec<usize> = key
                .iter()
                .map(|k| occurrence[kb.positions.binary_search(k).expect("k in positions")])
                .collect();
            for t in diff.added.iter().chain(diff.removed.iter()) {
                keys.extend(row_key(t, &cols).map(Cow::into_owned));
            }
        }
    }
    let is_stale = |t: &Tuple| row_key(t, &key).is_some_and(|k| keys.contains(k.as_ref()));

    // Give up when the affected keys cover the old result: count its
    // distinct keys only until they outnumber the affected ones.
    let old = pre.state.get(p).cloned().unwrap_or_default();
    let mut distinct: BTreeSet<Cow<'_, [Value]>> = BTreeSet::new();
    for t in old.iter() {
        distinct.extend(row_key(t, &key));
        if distinct.len() > keys.len() {
            break;
        }
    }
    if keys.len() >= distinct.len() {
        return Ok(false);
    }

    let restricted = {
        let cx = EvalCtx::with_cache(module, rels, cache.clone()).probing_prefixes();
        let mut out = Relation::new();
        for rule in module.rules_for(p) {
            let seeds: Vec<Env> = keys.iter().filter_map(|kv| seed_keys(rule, &key, kv)).collect();
            out.absorb(&cx.eval_rule_seeded(rule, seeds)?);
        }
        out
    };
    let stale: Vec<&Tuple> = old.iter().filter(|t| is_stale(t)).collect();
    let new = if restricted.iter().eq(stale.iter().copied()) {
        old // the keyed rows re-derived unchanged: keep the storage
    } else {
        let mut new = old;
        new.retain(|t| !is_stale(t));
        new.absorb(&restricted);
        new
    };
    rels.insert(p.clone(), new);
    Ok(true)
}

/// The values of `t` at `cols`, borrowed when `cols` is a column prefix
/// (the common key shape: a grouped aggregate, a domain-keyed override);
/// `None` when `t` is too short.
fn row_key<'t>(t: &'t Tuple, cols: &[usize]) -> Option<Cow<'t, [Value]>> {
    if cols.iter().enumerate().all(|(i, &c)| i == c) {
        t.values().get(..cols.len()).map(Cow::Borrowed)
    } else {
        cols.iter().map(|&c| t.get(c).cloned()).collect::<Option<Vec<_>>>().map(Cow::Owned)
    }
}

/// A seed environment for `rule` binding the head positions `key` to
/// `values`, or `None` when the rule cannot produce that key (a constant
/// head position holds another value, or a repeated head variable would
/// need two values).
fn seed_keys(rule: &Rule, key: &[usize], values: &[Value]) -> Option<Env> {
    let mut env = Env::new(rule.vars.len());
    for (&k, v) in key.iter().zip(values) {
        match &rule.params[k] {
            AbsParam::Val(var) | AbsParam::In(var, _) => {
                if env.value(*var).is_some_and(|bound| bound != v) {
                    return None;
                }
                env.bind(*var, EnvVal::Val(v.clone()));
            }
            AbsParam::Fixed(c) => {
                if c != v {
                    return None;
                }
            }
            AbsParam::Tup(_) => unreachable!("key positions precede tuple variables"),
        }
    }
    Some(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::tuple;

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("E", tuple![a, b]);
        }
        db
    }

    const TC: &str = "def TC(x,y) : E(x,y)\n\
                      def TC(x,y) : exists((z) | E(x,z) and TC(z,y))";

    fn flatten(rels: &BTreeMap<Name, Relation>) -> Vec<(Name, Vec<rel_core::Tuple>)> {
        rels.iter().map(|(n, r)| (n.clone(), r.iter().cloned().collect())).collect()
    }

    #[test]
    fn insert_delta_matches_full_and_delta_seeds() {
        let module = rel_sema::compile(TC).unwrap();
        let db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.insert("E", tuple![4, 5]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 1, "TC stratum must take the restart path: {stats:?}");
    }

    #[test]
    fn delete_falls_back_to_stratum_recompute_and_matches_full() {
        let module = rel_sema::compile(TC).unwrap();
        let db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.get_mut("E").remove(&tuple![2, 3]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0);
        assert!(stats.recomputed >= 1, "{stats:?}");
    }

    #[test]
    fn untouched_run_reuses_everything_by_pointer() {
        let module = rel_sema::compile(TC).unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let pre_rels = materialize_with_cache(&module, &db, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db, &pre_rels);
        let (inc, stats) =
            materialize_incremental_with_stats(&module, &pre, &db, SharedIndexCache::default())
                .unwrap();
        assert_eq!(stats.recomputed + stats.delta_seeded, 0, "{stats:?}");
        let tc = rel_core::name("TC");
        assert!(
            inc[&tc].shares_storage(&pre_rels[&tc]),
            "an untouched fixpoint must be reused by pointer, not recomputed"
        );
    }

    #[test]
    fn out_of_cone_strata_share_storage_with_pre_state() {
        // Two disjoint TCs: touching E1 must leave TC2 pointer-shared.
        let module = rel_sema::compile(
            "def TC1(x,y) : E1(x,y)\n\
             def TC1(x,y) : exists((z) | E1(x,z) and TC1(z,y))\n\
             def TC2(x,y) : E2(x,y)\n\
             def TC2(x,y) : exists((z) | E2(x,z) and TC2(z,y))",
        )
        .unwrap();
        let mut db0 = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            db0.insert("E1", tuple![a, b]);
            db0.insert("E2", tuple![a, b]);
        }
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("E1", tuple![3, 4]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        let tc2 = rel_core::name("TC2");
        assert!(inc[&tc2].shares_storage(&pre_rels[&tc2]), "TC2 is outside the cone");
        assert_eq!(stats.delta_seeded, 1, "{stats:?}");
    }

    #[test]
    fn negatively_read_input_change_forces_recompute() {
        // Reach is monotone-recursive but reads Block under negation: a
        // grown Block can *shrink* Reach, so the restart must not fire.
        let module = rel_sema::compile(
            "def Reach(x) : Start(x)\n\
             def Reach(y) : exists((x) | Reach(x) and E(x,y) and not Block(y))",
        )
        .unwrap();
        let mut db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        db0.insert("Start", tuple![1]);
        db0.insert("Block", tuple![9]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.insert("Block", tuple![3]); // grows, but read negatively
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "{stats:?}");
        let reach = rel_core::name("Reach");
        assert!(inc[&reach].len() < pre_rels[&reach].len(), "Reach must shrink");
    }

    #[test]
    fn touched_own_seed_forces_recompute() {
        // Inserting directly into the base relation backing TC's own EDB
        // seed: the restart cannot tell old seed tuples apart from derived
        // ones, so the stratum recomputes — and still matches full.
        let module = rel_sema::compile(TC).unwrap();
        let mut db0 = edge_db(&[(1, 2), (2, 3)]);
        db0.insert("TC", tuple![7, 8]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("TC", tuple![8, 9]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "{stats:?}");
    }

    #[test]
    fn aggregation_over_touched_input_recomputes_and_matches() {
        let module = rel_sema::compile(
            "def agg_sum[{A}] : reduce[add, A]\n\
             def Tot(x,s) : exists((q) | E(x,q)) and s = agg_sum[(v) : E(x,v)]",
        )
        .unwrap();
        let db0 = edge_db(&[(1, 10), (1, 20), (2, 5)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("E", tuple![1, 30]);
        let inc =
            materialize_incremental(&module, &pre, &db1, SharedIndexCache::default()).unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert!(inc[&rel_core::name("Tot")].contains(&tuple![1, 60]));
    }

    #[test]
    fn pfp_stratum_in_cone_recomputes_and_matches() {
        let module = rel_sema::compile(
            "def Win(x) : exists((y) | Move(x,y) and not Win(y))",
        )
        .unwrap();
        let mut db0 = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db0.insert("Move", tuple![a, b]);
        }
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("Move", tuple![4, 5]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "PFP strata never delta-seed: {stats:?}");
    }

    #[test]
    fn foreign_pre_state_still_yields_full_state() {
        // A PreState captured from a *different* (here: empty) module
        // covers none of this module's predicates; the engine must
        // recompute rather than silently return EDB-only state.
        let module = rel_sema::compile(TC).unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let foreign = PreState::capture(&db, &BTreeMap::new());
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &foreign,
            &db,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert!(inc.contains_key(&rel_core::name("TC")));
        assert!(stats.recomputed >= 1, "{stats:?}");
    }

    #[test]
    fn another_modules_run_keeps_this_modules_derived_indexes() {
        // Module A joins its derived TC with F; module B, run against the
        // same cache in between, reads neither.
        let a = rel_sema::compile(&format!(
            "{TC}\ndef Out(x,w) : exists((y) | TC(x,y) and F(y,w))"
        ))
        .unwrap();
        let b = rel_sema::compile("def Other(x) : G(x)").unwrap();
        let mut db0 = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        db0.insert("F", tuple![6, 7]);
        db0.insert("G", tuple![1]);
        let cache = SharedIndexCache::default();
        let pre_rels = materialize_with_cache(&a, &db0, cache.clone()).unwrap();
        let tc_gen = pre_rels[&rel_core::name("TC")].generation();
        assert!(cache.generations_for("TC").contains(&tc_gen), "A's join must cache TC");

        materialize_with_cache(&b, &db0, cache.clone()).unwrap();
        assert!(
            cache.generations_for("TC").contains(&tc_gen),
            "B's run evicted A's entries over TC"
        );

        // Re-run A with only F grown: TC is reused by pointer, and Out's
        // join over it must hit the cached entry instead of rebuilding.
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("F", tuple![5, 8]);
        let sink = std::sync::Arc::new(crate::profile::ProfileSink::new());
        cache.set_profile(Some(std::sync::Arc::clone(&sink)));
        let (inc, _) = materialize_incremental_with_stats(&a, &pre, &db1, cache.clone()).unwrap();
        cache.set_profile(None);
        let full = materialize_with_cache(&a, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        let c = sink.counts();
        assert!(c.trie_reuses + c.index_reuses >= 1, "TC's entry was rebuilt: {c:?}");
    }

    #[test]
    fn touched_in_detects_new_and_mutated_relations() {
        let db0 = edge_db(&[(1, 2)]);
        let rels = BTreeMap::new();
        let pre = PreState::capture(&db0, &rels);
        assert!(pre.touched_in(&db0).is_empty());
        let mut db1 = db0.clone();
        db1.insert("E", tuple![2, 3]);
        db1.insert("F", tuple![1]);
        let touched = pre.touched_in(&db1);
        assert!(touched.contains("E"));
        assert!(touched.contains("F"));
        assert_eq!(touched.len(), 2);
    }
}
