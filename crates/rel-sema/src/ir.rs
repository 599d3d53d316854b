//! Lowered intermediate representation.
//!
//! After second-order **specialization** (see [`crate::specialize`]) every
//! predicate is first-order. Rules are lowered from the AST into this IR:
//!
//! * all variables are numbered ([`Var`]), with names kept in a side table
//!   for diagnostics;
//! * `implies`/`iff`/`xor`/`forall` are desugared into `and`/`or`/`not`/
//!   `exists`;
//! * infix arithmetic in *term positions* is flattened into built-in atoms
//!   over fresh variables (`R(x, y-1)` ⇒ `subtract(y,1,t) ∧ R(x,t)`);
//! * `x in E` domains become explicit [`Formula::Member`] conjuncts;
//! * applications of *predicates* become [`Atom`]s / [`RExpr::PApp`]s;
//!   applications of computed relations become `DynAtom` / `DynPApp`.
//!
//! A rule `def p(params) : body` evaluates to
//! `{ ⟨params(µ)⟩ · t | µ ∈ envs(body), t ∈ ⟦value-part⟧µ }` — for formula
//! bodies the value part is `{⟨⟩}`, so heads alone produce the tuples.

use rel_core::{name, Name, Value};
use rel_syntax::ast::CmpOp;
use std::collections::BTreeMap;
use std::fmt;

/// The reserved base-relation name backing the query parameter `?param`.
/// The `?` prefix cannot appear in a source identifier, so these names can
/// never collide with user relations; the engine injects a singleton
/// relation under this name at execute time (prepared queries, client API
/// v2).
pub fn param_relation(param: &str) -> Name {
    name(format!("?{param}"))
}

/// The bare parameter name of a reserved `?name` relation, if `rel` is
/// one (inverse of [`param_relation`]).
pub fn param_name(rel: &str) -> Option<&str> {
    rel.strip_prefix('?')
}

/// A numbered variable. Names live in [`VarTable`].
pub type Var = u32;

/// Side table mapping variable numbers to source names (for diagnostics).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Allocate a fresh variable with the given display name.
    pub fn fresh(&mut self, name: impl Into<String>) -> Var {
        self.names.push(name.into());
        (self.names.len() - 1) as Var
    }

    /// Display name of `v`.
    pub fn name(&self, v: Var) -> &str {
        self.names.get(v as usize).map(String::as_str).unwrap_or("?")
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables were allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A term in an atom-argument or head position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// First-order variable.
    Var(Var),
    /// Tuple variable (binds to a sub-tuple of any length).
    TupleVar(Var),
    /// Constant.
    Const(Value),
}

impl Term {
    /// Is this a tuple variable?
    pub fn is_tuple_var(&self) -> bool {
        matches!(self, Term::TupleVar(_))
    }
}

/// A positive atom `pred(args…)` over a named predicate.
#[derive(Clone, PartialEq, Debug)]
pub struct Atom {
    /// Predicate name (EDB, IDB instance, or builtin).
    pub pred: Name,
    /// Argument terms.
    pub args: Vec<Term>,
}

/// Boolean-valued IR (the grammar's `Formula`).
#[derive(Clone, PartialEq, Debug)]
pub enum Formula {
    /// `{()}`.
    True,
    /// `{}`.
    False,
    /// Conjunction (empty = true).
    Conj(Vec<Formula>),
    /// Disjunction (empty = false).
    Disj(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Full application of a named predicate; free variables in `args` are
    /// *bound* by matching (relational application, §4.3).
    Atom(Atom),
    /// Full application of a computed relation.
    DynAtom {
        /// Expression producing the relation to match against.
        rel: Box<RExpr>,
        /// Argument terms (may bind).
        args: Vec<Term>,
    },
    /// Comparison; the sides are expressions evaluating to unary relations
    /// (typically singleton values). `=` can bind a free variable on one
    /// side; other operators only filter.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left side.
        lhs: Box<RExpr>,
        /// Right side.
        rhs: Box<RExpr>,
    },
    /// `term ∈ unary-relation` (lowered `x in E` domains).
    Member {
        /// The member term.
        term: Term,
        /// The domain expression.
        of: Box<RExpr>,
    },
    /// Existential quantification. Domains were lowered to `Member`
    /// conjuncts in `body`.
    Exists {
        /// Quantified first-order variables.
        vars: Vec<Var>,
        /// Quantified tuple variables.
        tuple_vars: Vec<Var>,
        /// Scope.
        body: Box<Formula>,
        /// Variable-id range `[lo, hi)` allocated while lowering this
        /// scope: every binding in the range is *local* and is discarded
        /// (projected away) when the quantifier closes. Bindings of outer
        /// variables established inside the scope survive.
        intro: (Var, Var),
    },
    /// An arbitrary expression used in formula position: holds iff the
    /// relation contains the empty tuple.
    OfExpr(Box<RExpr>),
}

impl Formula {
    /// Build a conjunction, flattening nested `Conj`s and dropping `True`s
    /// recursively.
    pub fn conj(items: Vec<Formula>) -> Formula {
        fn flatten(items: Vec<Formula>, out: &mut Vec<Formula>) {
            for f in items {
                match f {
                    Formula::True => {}
                    Formula::Conj(inner) => flatten(inner, out),
                    other => out.push(other),
                }
            }
        }
        let mut out = Vec::with_capacity(items.len());
        flatten(items, &mut out);
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::Conj(out),
        }
    }
}

/// Relation-valued IR (the grammar's `Expr`).
#[derive(Clone, PartialEq, Debug)]
pub enum RExpr {
    /// Whole named relation.
    Pred(Name),
    /// Partial application `pred[args…]`; argument terms must be bound at
    /// evaluation time; evaluates to the suffix relation.
    PApp {
        /// Predicate.
        pred: Name,
        /// Bound-prefix terms.
        args: Vec<Term>,
    },
    /// Partial application of a computed relation.
    DynPApp {
        /// Relation expression.
        rel: Box<RExpr>,
        /// Bound-prefix terms.
        args: Vec<Term>,
    },
    /// Cartesian product (empty = `{()}` i.e. true).
    Product(Vec<RExpr>),
    /// Union (empty = `{}` i.e. false).
    Union(Vec<RExpr>),
    /// Singleton tuple `{⟨t₁ … tₙ⟩}`; tuple-variable terms splice their
    /// bound sub-tuple.
    Singleton(Vec<Term>),
    /// `body where cond`.
    Where {
        /// Value part.
        body: Box<RExpr>,
        /// Condition.
        cond: Box<Formula>,
    },
    /// Abstraction `[params] : body` — for each binding of `params`
    /// (satisfying domains) emit `⟨params⟩ · t` for `t ∈ body`.
    Abstract {
        /// Bound parameters.
        params: Vec<AbsParam>,
        /// Body.
        body: Box<RExpr>,
        /// Variable-id range allocated while lowering this abstraction
        /// (params and everything below). Open evaluation groups results
        /// by bindings of variables *outside* this range — those are the
        /// outer free variables (e.g. the group-by variables of an
        /// aggregation input).
        intro: (Var, Var),
    },
    /// The `reduce` primitive (§5.2): fold the last column of `input`
    /// with the binary operation denoted by `op`.
    Reduce {
        /// Operation relation (e.g. `add`).
        op: Box<RExpr>,
        /// Relation whose last column is folded.
        input: Box<RExpr>,
        /// Variable-id range allocated while lowering `input`; bindings
        /// outside the range are group keys (grouped aggregation, §5.2).
        intro: (Var, Var),
    },
    /// Application of a builtin operation to unary-relation-valued
    /// arguments (lowered infix arithmetic): the result is the set of
    /// outputs for every combination of argument values — empty operands
    /// propagate emptiness (`sum[∅] + 1 = ∅`), matching the first-order
    /// application semantics of Fig. 3.
    BuiltinApp {
        /// Canonical builtin name (e.g. `rel_primitive_add`).
        op: Name,
        /// Input argument expressions (the builtin's last position is the
        /// produced output).
        args: Vec<RExpr>,
    },
    /// Dot-join `a . b` (join last column of `a` with first of `b`,
    /// dropping the join position).
    DotJoin(Box<RExpr>, Box<RExpr>),
    /// Left override `a <++ b`.
    LeftOverride(Box<RExpr>, Box<RExpr>),
    /// A formula in expression position: `{()}` if it holds, else `{}`.
    OfFormula(Box<Formula>),
}

/// A parameter of an abstraction or rule head.
#[derive(Clone, PartialEq, Debug)]
pub enum AbsParam {
    /// Plain first-order variable — must be grounded by the body (safety).
    Val(Var),
    /// Tuple variable.
    Tup(Var),
    /// Domain-restricted variable `x in E`.
    In(Var, Box<RExpr>),
    /// Fixed constant position (e.g. the `0` in `APSP(…,0)`).
    Fixed(Value),
}

impl AbsParam {
    /// The variable introduced, if any.
    pub fn var(&self) -> Option<Var> {
        match self {
            AbsParam::Val(v) | AbsParam::Tup(v) | AbsParam::In(v, _) => Some(*v),
            AbsParam::Fixed(_) => None,
        }
    }
}

/// A lowered rule.
#[derive(Clone, PartialEq, Debug)]
pub struct Rule {
    /// Head predicate.
    pub pred: Name,
    /// Head parameters in order.
    pub params: Vec<AbsParam>,
    /// Body; its tuples are appended to the head parameters' values.
    pub body: RExpr,
    /// Variable name table for this rule.
    pub vars: VarTable,
}

/// A lowered integrity constraint: violation witnesses are the tuples of a
/// rule-like query; the constraint holds iff that query is empty (for
/// parameterless constraints the body formula must hold).
#[derive(Clone, PartialEq, Debug)]
pub struct ConstraintIr {
    /// Constraint name.
    pub name: Name,
    /// Witness parameters (empty = boolean constraint).
    pub params: Vec<AbsParam>,
    /// For parameterised constraints: the *violation* formula (already
    /// negated as needed). For boolean constraints: the requirement itself.
    pub body: RExpr,
    /// True when `body` computes violations (non-empty ⇒ abort); false when
    /// `body` is the requirement (false ⇒ abort).
    pub is_violation_query: bool,
    /// Variable table.
    pub vars: VarTable,
}

/// How a predicate may be evaluated (assigned by safety analysis).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalMode {
    /// Fully materialisable bottom-up with no external bindings.
    Materialize,
    /// Requires the first `bound_prefix` arguments bound at call sites;
    /// evaluated on demand with tabling.
    Demand {
        /// Number of leading arguments that must be bound.
        bound_prefix: usize,
    },
}

/// Per-predicate metadata.
#[derive(Clone, Debug)]
pub struct PredInfo {
    /// Evaluation mode.
    pub mode: EvalMode,
    /// Stratum index (position in [`Module::strata`]).
    pub stratum: usize,
}

/// One stratum: a set of mutually recursive predicates (an SCC of the
/// dependency graph), evaluated together.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Predicates in this stratum.
    pub preds: Vec<Name>,
    /// Whether any member depends on itself (directly or mutually).
    pub recursive: bool,
    /// Whether all intra-stratum dependencies are monotone (no negation /
    /// aggregation / emptiness through the cycle). Monotone strata use
    /// semi-naive evaluation; non-monotone ones use partial-fixpoint
    /// iteration (see DESIGN.md §2.3).
    pub monotone: bool,
}

/// The relations one stratum's rules *read* (its inputs plus its own SCC
/// members), split by the polarity of the reference. A name can appear in
/// both lists when different occurrences read it in different contexts.
///
/// Computed by [`crate::strata::stratum_read_sets`] and stored on
/// [`Module::stratum_reads`]; the engine's incremental-maintenance
/// subsystem uses the split to decide whether a changed input admits
/// delta-seeded semi-naive restart (insertions into positively-read
/// inputs) or needs a key-restricted re-evaluation or a recomputation
/// (deletions, and any change to a negatively-read input — negation,
/// aggregation, override).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StratumReads {
    /// Names read only through monotone contexts, sorted and deduplicated.
    pub positive: Vec<Name>,
    /// Names read under negation, aggregation input, or left-override,
    /// sorted and deduplicated.
    pub negative: Vec<Name>,
    /// For a non-recursive stratum: each input's [`KeyBinding`], sorted by
    /// name (inputs without a common key are absent). Empty for recursive
    /// strata.
    pub keys: Vec<(Name, KeyBinding)>,
}

/// How the occurrences of one input in a non-recursive stratum's rules
/// bind the head. Position `k` is a *key* of the input when every
/// occurrence — positive or negated atom, partial application (also
/// inside `reduce` or `<++`), `x in R` domain — has a bare head variable
/// of position `k` at some column, and every rule of the stratum can
/// seed position `k` (a variable or constant before any tuple-variable
/// parameter).
///
/// The head tuples with key value `v` then depend on the input only
/// through its tuples carrying `v` at those columns, so after the input
/// changes only the keys its changed tuples carry need re-deriving: the
/// engine's key-restricted maintenance of aggregates, negation and
/// overrides.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyBinding {
    /// The key head positions, sorted; never empty.
    pub positions: Vec<usize>,
    /// One entry per occurrence: the input column bound to each of
    /// `positions`, in the same order.
    pub columns: Vec<Vec<usize>>,
}

impl StratumReads {
    /// The key binding of input `name`, if it has a common key.
    pub fn key_binding(&self, name: &str) -> Option<&KeyBinding> {
        self.keys
            .binary_search_by(|(n, _)| (**n).cmp(name))
            .ok()
            .map(|i| &self.keys[i].1)
    }

    /// Every name the stratum reads: the sorted positive list followed by
    /// the sorted negative list (not globally sorted; a name read in both
    /// polarities appears twice).
    pub fn all(&self) -> impl Iterator<Item = &Name> {
        self.positive.iter().chain(self.negative.iter())
    }

    /// Does the stratum read any of the given names (either polarity)?
    pub fn reads_any(&self, names: &std::collections::BTreeSet<Name>) -> bool {
        self.all().any(|n| names.contains(n))
    }

    /// Is `name` read under a non-monotone context (negation, aggregation,
    /// override) anywhere in the stratum?
    pub fn reads_negatively(&self, name: &Name) -> bool {
        self.negative.binary_search(name).is_ok()
    }

    /// Is `name` read in a monotone context anywhere in the stratum?
    pub fn reads_positively(&self, name: &Name) -> bool {
        self.positive.binary_search(name).is_ok()
    }
}

/// A fully analysed program, ready for the engine.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Rules grouped by head predicate.
    pub rules: BTreeMap<Name, Vec<Rule>>,
    /// Integrity constraints.
    pub constraints: Vec<ConstraintIr>,
    /// Evaluation strata in dependency order.
    pub strata: Vec<Stratum>,
    /// The condensation's dependency edges: `stratum_deps[i]` holds the
    /// (sorted, deduplicated) indices of the strata that stratum `i` reads
    /// from. Since [`Module::strata`] is in dependency order, every entry
    /// of `stratum_deps[i]` is `< i`. The engine's parallel scheduler
    /// walks this DAG: a stratum may materialize as soon as all of its
    /// dependency strata have, independent strata concurrently.
    pub stratum_deps: Vec<Vec<usize>>,
    /// Per-stratum read sets (same indexing as [`Module::strata`]): the
    /// relation names each stratum's rules reference, split by polarity.
    /// Together with [`Module::stratum_deps`] this is what
    /// [`Module::dependent_cone`] — and the engine's incremental
    /// transaction maintenance — is computed from.
    pub stratum_reads: Vec<StratumReads>,
    /// Per-predicate info.
    pub pred_info: BTreeMap<Name, PredInfo>,
    /// Bare names of the query parameters (`?name` placeholders) this
    /// module references, sorted. A module with a non-empty parameter list
    /// can only be executed with bindings for every listed name (see the
    /// engine's `Prepared::execute_with`).
    pub params: Vec<Name>,
}

impl Module {
    /// All IDB predicate names (those with rules).
    pub fn idb_preds(&self) -> impl Iterator<Item = &Name> {
        self.rules.keys()
    }

    /// Rules for one predicate (empty slice if none).
    pub fn rules_for(&self, pred: &str) -> &[Rule] {
        self.rules.get(pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The *dependent cone* of a set of touched base relations: the
    /// (sorted) indices of every stratum whose result can differ once the
    /// touched relations change. A stratum is in the cone when
    ///
    /// * one of its rules reads a touched name (either polarity),
    /// * one of its own predicates *is* a touched name (a base relation
    ///   feeding the predicate's EDB seed changed), or
    /// * it depends — transitively, via [`Module::stratum_deps`] — on an
    ///   in-cone stratum.
    ///
    /// Everything **outside** the cone is guaranteed to re-materialize to
    /// its previous value, so an incremental engine may reuse the
    /// pre-state result wholesale (the engine's `incremental` module does
    /// exactly that). Because [`Module::strata`] is in dependency order,
    /// one forward pass closes the cone transitively.
    ///
    /// A module without read-set metadata (hand-assembled, out of sync)
    /// conservatively returns *every* stratum.
    pub fn dependent_cone(&self, touched: &std::collections::BTreeSet<Name>) -> Vec<usize> {
        let n = self.strata.len();
        if self.stratum_reads.len() != n || self.stratum_deps.len() != n {
            return (0..n).collect();
        }
        let mut in_cone = vec![false; n];
        for i in 0..n {
            in_cone[i] = self.strata[i].preds.iter().any(|p| touched.contains(p))
                || self.stratum_reads[i].reads_any(touched)
                || self.stratum_deps[i].iter().any(|&d| in_cone[d]);
        }
        in_cone
            .iter()
            .enumerate()
            .filter_map(|(i, &in_c)| in_c.then_some(i))
            .collect()
    }

    /// Keep only the strata that `roots` — and every integrity
    /// constraint — transitively read: the backward closure, along
    /// [`Module::stratum_deps`], of the strata defining a root or a name
    /// some constraint references. Read edges into demand-mode strata are
    /// part of the DAG, so a demand predicate a kept rule calls survives
    /// together with everything it reads.
    ///
    /// Every constraint is kept. The rules and [`PredInfo`] of dropped
    /// predicates go; `strata`, `stratum_deps`, `stratum_reads` and
    /// `pred_info[..].stratum` are re-indexed, preserving dependency
    /// order. Roots that name no derived predicate (base relations,
    /// undefined names) are ignored, and `params` is left as is — it
    /// lists what the source references. A module without the
    /// condensation DAG (hand-assembled, out of sync) is left untouched.
    pub fn prune_to<S: AsRef<str>>(&mut self, roots: impl IntoIterator<Item = S>) {
        let n = self.strata.len();
        if self.stratum_deps.len() != n || self.stratum_reads.len() != n {
            return;
        }
        let mut keep = vec![false; n];
        let pred_info = &self.pred_info;
        let mut mark = |p: &str| {
            if let Some(info) = pred_info.get(p) {
                keep[info.stratum] = true;
            }
        };
        for r in roots {
            mark(r.as_ref());
        }
        for c in &self.constraints {
            visit_constraint_preds(c, &mut |p, _| mark(p));
        }
        // Dependencies precede dependents, so one backward pass closes
        // the set transitively.
        for i in (0..n).rev() {
            if keep[i] {
                for &d in &self.stratum_deps[i] {
                    keep[d] = true;
                }
            }
        }
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut new_index = vec![usize::MAX; n];
        for (next, i) in (0..n).filter(|&i| keep[i]).enumerate() {
            new_index[i] = next;
        }
        fn retain_kept<T>(items: &mut Vec<T>, keep: &[bool]) {
            let mut i = 0;
            items.retain(|_| {
                i += 1;
                keep[i - 1]
            });
        }
        retain_kept(&mut self.strata, &keep);
        retain_kept(&mut self.stratum_reads, &keep);
        retain_kept(&mut self.stratum_deps, &keep);
        for deps in &mut self.stratum_deps {
            for d in deps.iter_mut() {
                *d = new_index[*d];
            }
        }
        self.pred_info.retain(|_, info| {
            info.stratum = new_index[info.stratum];
            info.stratum != usize::MAX
        });
        let pred_info = &self.pred_info;
        self.rules.retain(|p, _| pred_info.contains_key(p));
    }
}

/// Visit every predicate reference of a formula (pre-order), with the
/// terms the reference applies to the relation's leading columns: an
/// atom's or partial application's arguments, the member term of
/// `t in R`, nothing for a whole-relation reference.
pub fn visit_formula_preds(f: &Formula, visit: &mut impl FnMut(&Name, &[Term])) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Conj(items) | Formula::Disj(items) => {
            for i in items {
                visit_formula_preds(i, visit);
            }
        }
        Formula::Not(inner) => visit_formula_preds(inner, visit),
        Formula::Atom(a) => visit(&a.pred, &a.args),
        Formula::DynAtom { rel, .. } => visit_rexpr_preds(rel, visit),
        Formula::Cmp { lhs, rhs, .. } => {
            visit_rexpr_preds(lhs, visit);
            visit_rexpr_preds(rhs, visit);
        }
        Formula::Member { term, of } => match &**of {
            RExpr::Pred(p) => visit(p, std::slice::from_ref(term)),
            other => visit_rexpr_preds(other, visit),
        },
        Formula::Exists { body, .. } => visit_formula_preds(body, visit),
        Formula::OfExpr(e) => visit_rexpr_preds(e, visit),
    }
}

/// Visit every predicate reference of a relation expression, with its
/// leading-column terms (see [`visit_formula_preds`]).
pub fn visit_rexpr_preds(e: &RExpr, visit: &mut impl FnMut(&Name, &[Term])) {
    match e {
        RExpr::Pred(p) => visit(p, &[]),
        RExpr::PApp { pred, args } => visit(pred, args),
        RExpr::DynPApp { rel, .. } => visit_rexpr_preds(rel, visit),
        RExpr::Product(es) | RExpr::Union(es) => {
            for x in es {
                visit_rexpr_preds(x, visit);
            }
        }
        RExpr::Singleton(_) => {}
        RExpr::Where { body, cond } => {
            visit_rexpr_preds(body, visit);
            visit_formula_preds(cond, visit);
        }
        RExpr::Abstract { params, body, .. } => {
            for p in params {
                if let AbsParam::In(_, dom) = p {
                    visit_rexpr_preds(dom, visit);
                }
            }
            visit_rexpr_preds(body, visit);
        }
        RExpr::Reduce { op, input, .. } => {
            visit_rexpr_preds(op, visit);
            visit_rexpr_preds(input, visit);
        }
        // `op` is always a `rel_primitive_*` name, not a predicate
        // reference — only the argument expressions are visited.
        RExpr::BuiltinApp { args, .. } => {
            for a in args {
                visit_rexpr_preds(a, visit);
            }
        }
        RExpr::DotJoin(a, b) | RExpr::LeftOverride(a, b) => {
            visit_rexpr_preds(a, visit);
            visit_rexpr_preds(b, visit);
        }
        RExpr::OfFormula(f) => visit_formula_preds(f, visit),
    }
}

/// Visit every predicate reference of a rule (head domains + body), with
/// its leading-column terms (see [`visit_formula_preds`]); a head domain
/// `x in R` applies `x`.
pub fn visit_rule_preds(rule: &Rule, visit: &mut impl FnMut(&Name, &[Term])) {
    visit_domains(&rule.params, visit);
    visit_rexpr_preds(&rule.body, visit);
}

/// Visit every predicate name an integrity constraint references
/// (witness-parameter domains + body). The engine's incremental commit
/// path uses this to decide which constraints sit inside the dependent
/// cone of a transaction's touched relations and must be re-verified
/// against the post-change state.
pub fn visit_constraint_preds(c: &ConstraintIr, visit: &mut impl FnMut(&Name, &[Term])) {
    visit_domains(&c.params, visit);
    visit_rexpr_preds(&c.body, visit);
}

fn visit_domains(params: &[AbsParam], visit: &mut impl FnMut(&Name, &[Term])) {
    for p in params {
        if let AbsParam::In(v, dom) = p {
            match &**dom {
                RExpr::Pred(r) => visit(r, &[Term::Var(*v)]),
                other => visit_rexpr_preds(other, visit),
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "v{v}"),
            Term::TupleVar(v) => write!(f, "v{v}..."),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table() {
        let mut t = VarTable::default();
        let x = t.fresh("x");
        let y = t.fresh("y");
        assert_eq!(t.name(x), "x");
        assert_eq!(t.name(y), "y");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn conj_flattens() {
        let f = Formula::conj(vec![
            Formula::True,
            Formula::Conj(vec![Formula::False, Formula::True]),
        ]);
        assert_eq!(f, Formula::False);
        assert_eq!(Formula::conj(vec![]), Formula::True);
    }

    #[test]
    fn abs_param_vars() {
        assert_eq!(AbsParam::Val(3).var(), Some(3));
        assert_eq!(AbsParam::Fixed(Value::int(0)).var(), None);
    }

    /// A library with three independent parts: what `output` reads, what
    /// only the constraint reads (a derived relation and a demand-mode
    /// predicate, which in turn reads a derived relation), and rules
    /// nothing reads.
    const LIB: &str = "\
        def Edge(x, y) : E(x, y)\n\
        def Reach(x, y) : Edge(x, y)\n\
        def Reach(x, y) : exists((z) | Edge(x, z) and Reach(z, y))\n\
        def output(x) : Reach(x, _)\n\
        def Limit(l) : L(l)\n\
        def Shifted(x, y) : exists((l) | Limit(l) and y = x + l)\n\
        def Big(x) : V(x) and x > 10\n\
        ic bounded(x) requires Big(x) implies exists((y) | Shifted(x, y) and y < 100)\n\
        def Unread(x) : E(x, _) and not F(x)\n\
        def AlsoUnread(x, n) : n = count[Unread] and Unread(x)\n";

    fn stratum_of<'m>(m: &'m Module, p: &str) -> &'m Stratum {
        &m.strata[m.pred_info[p].stratum]
    }

    fn preds_of(m: &Module) -> std::collections::BTreeSet<String> {
        m.pred_info.keys().map(|p| p.to_string()).collect()
    }

    #[test]
    fn prune_keeps_the_output_and_constraint_cones() {
        let full = crate::compile(LIB).unwrap();
        assert!(matches!(
            full.pred_info["Shifted"].mode,
            EvalMode::Demand { .. }
        ));
        let mut m = full.clone();
        m.prune_to(["output", "insert", "delete"]);
        let expected: std::collections::BTreeSet<String> =
            ["Edge", "Reach", "output", "Limit", "Shifted", "Big"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert_eq!(preds_of(&m), expected);
        let rule_heads: std::collections::BTreeSet<String> =
            m.rules.keys().map(|p| p.to_string()).collect();
        assert_eq!(rule_heads, expected);
        assert_eq!(m.constraints, full.constraints);
        assert_eq!(m.params, full.params);
        // Strata are re-indexed: every kept predicate points at the
        // stratum holding it, with the same members, read sets and flags
        // as in the full module.
        assert_eq!(m.strata.len(), expected.len());
        for (p, info) in &m.pred_info {
            assert!(m.strata[info.stratum].preds.contains(p), "{p}");
            assert_eq!(info.mode, full.pred_info[p].mode, "{p}");
            let (old, new) = (stratum_of(&full, p), stratum_of(&m, p));
            assert_eq!(old.preds, new.preds);
            assert_eq!((old.recursive, old.monotone), (new.recursive, new.monotone));
            assert_eq!(
                full.stratum_reads[full.pred_info[p].stratum],
                m.stratum_reads[info.stratum]
            );
        }
        // The DAG is remapped, still topological, and keeps the same edges.
        assert_eq!(m.stratum_deps.len(), m.strata.len());
        for (i, deps) in m.stratum_deps.iter().enumerate() {
            assert!(deps.iter().all(|&d| d < i), "stratum {i}: {deps:?}");
            assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted: {deps:?}");
            let old_i = full.pred_info[&m.strata[i].preds[0]].stratum;
            let remapped: Vec<usize> = full.stratum_deps[old_i]
                .iter()
                .map(|&d| m.pred_info[&full.strata[d].preds[0]].stratum)
                .collect();
            assert_eq!(deps, &remapped);
        }
    }

    #[test]
    fn pruned_dependent_cone_agrees_with_the_full_module() {
        let full = crate::compile(LIB).unwrap();
        let mut m = full.clone();
        m.prune_to(["output"]);
        let cone_preds = |m: &Module, touched: &[&str]| {
            let touched: std::collections::BTreeSet<Name> =
                touched.iter().map(|t| rel_core::name(*t)).collect();
            m.dependent_cone(&touched)
                .into_iter()
                .flat_map(|i| m.strata[i].preds.iter().map(|p| p.to_string()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let kept = preds_of(&m);
        for touched in [
            &["E"][..],
            &["L"],
            &["V"],
            &["F"],
            &["E", "F"],
            &["Reach"],
            &["L", "V", "Unrelated"],
        ] {
            let expected: std::collections::BTreeSet<String> = cone_preds(&full, touched)
                .intersection(&kept)
                .cloned()
                .collect();
            assert_eq!(cone_preds(&m, touched), expected, "touched {touched:?}");
        }
    }

    #[test]
    fn prune_ignores_unknown_roots_and_keeps_hand_built_modules() {
        let full = crate::compile("def output(x) : R(x)\ndef Other(x) : S(x)").unwrap();
        let mut m = full.clone();
        m.prune_to(["output", "R", "NoSuchRelation"]);
        assert_eq!(preds_of(&m), ["output".to_string()].into_iter().collect());
        assert_eq!(m.pred_info["output"].stratum, 0);
        // Keeping everything is a no-op.
        let mut all = full.clone();
        all.prune_to(["output", "Other"]);
        assert_eq!(preds_of(&all), preds_of(&full));
        // Without the DAG nothing can be proven unread: nothing goes.
        let mut hand = full.clone();
        hand.stratum_deps.clear();
        hand.prune_to(["output"]);
        assert_eq!(preds_of(&hand), preds_of(&full));
        // No roots at all: only what constraints read survives.
        let mut none = full;
        none.prune_to(std::iter::empty::<&str>());
        assert!(none.strata.is_empty() && none.rules.is_empty());
    }
}
