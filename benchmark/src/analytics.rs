//! `analytics`: in-process, one client thread, closed loop over a fixed
//! rotation of the paper's programs. Each op is `rel_sema::compile` of
//! the library plus program, then `rel_engine::materialize_with_cache`
//! against one index cache that lives for the whole run. Every result is
//! checked against the native Rust baseline.

use crate::report::Report;
use crate::stats::{median, ratio, Samples};
use crate::trace::{self, Tracer};
use crate::{check_inputs, db_bytes, end_to_end, timed_setup, Ctx, Meter};
use rel_bench::{programs, OrderWorkload};
use rel_core::{Database, Relation, Tuple, Value};
use rel_engine::{metrics, EngineConfig, SharedIndexCache, WcojMode};
use rel_graph::{gen, native};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// PageRank results may differ from the native iteration by float
/// summation order only.
const PAGERANK_TOLERANCE: f64 = 1e-9;

/// Native PageRank iterations (at the program's 0.005 stop condition) of
/// the rotation's PageRank graph.
const PAGERANK_ITERATIONS: usize = 30;

/// How many updates `native::pagerank_iterate` makes before it stops on
/// `g` (capped at 1000).
fn pagerank_iterations(g: &native::Graph) -> usize {
    let m = native::transition_matrix(g);
    let mut p: HashMap<usize, f64> = (1..=g.n).map(|k| (k, 1.0 / g.n as f64)).collect();
    for k in 0..1000 {
        let mut next: HashMap<usize, f64> = HashMap::new();
        for (&(i, j), &v) in &m {
            if let Some(x) = p.get(&j) {
                *next.entry(i).or_insert(0.0) += v * x;
            }
        }
        let delta = next
            .iter()
            .filter_map(|(k, a)| p.get(k).map(|b| (a - b).abs()))
            .fold(0.0f64, f64::max);
        if delta <= 0.005 {
            return k;
        }
        p = next;
    }
    1000
}

/// What a program's `output` must be.
enum Expect {
    Exact(Relation),
    /// Vertex (1-based) → rank, compared within [`PAGERANK_TOLERANCE`].
    Ranks(HashMap<usize, f64>),
}

/// One program of the rotation with its input and expected output.
struct Program {
    /// Short name; `fixpoint.<name>_ms` is its per-layer metric.
    name: &'static str,
    /// Library prefix (may be empty) followed by the program.
    src: String,
    /// The program alone, for the profiled pass.
    program: String,
    /// Library alone, for the profiled pass.
    library: String,
    db: Database,
    expect: Expect,
}

fn tuple(vals: &[i64]) -> Tuple {
    Tuple::from(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
}

fn triangles(g: &native::Graph) -> Relation {
    let set: std::collections::HashSet<(u32, u32)> = g.edges.iter().copied().collect();
    let mut out = Vec::new();
    for &(a, b) in &set {
        for &c in &g.adj[b as usize] {
            if set.contains(&(a, c)) {
                out.push(tuple(&[a as i64, b as i64, c as i64]));
            }
        }
    }
    Relation::from_tuples(out)
}

fn closure(g: &native::Graph) -> Relation {
    Relation::from_tuples(
        native::transitive_closure(g)
            .into_iter()
            .map(|(u, v)| tuple(&[u as i64, v as i64])),
    )
}

/// The rotation. Seeds of the individual inputs are derived from `seed`.
fn programs_for(seed: u64) -> Vec<Program> {
    let stdlib = rel_stdlib::full_library();
    let graph_lib = format!("{stdlib}\n{}", rel_graph::GRAPH_LIB);
    let sub = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    let mut out = Vec::new();
    let mut push = |name, library: &str, program: &str, db, expect| {
        out.push(Program {
            name,
            src: format!("{library}\n{program}"),
            program: program.to_string(),
            library: library.to_string(),
            db,
            expect,
        })
    };

    let g = gen::random_graph(300, 3.0, sub(1));
    push(
        "tc",
        "",
        programs::TC,
        gen::graph_database(&g),
        Expect::Exact(closure(&g)),
    );

    let g = gen::random_graph(500, 16.0, sub(2));
    push(
        "wcoj_triangles",
        "",
        "def output(a,b,c) : E(a,b) and E(b,c) and E(a,c)",
        gen::graph_database(&g),
        Expect::Exact(triangles(&g)),
    );

    let g = gen::random_graph(300, 6.0, sub(3));
    push(
        "triangles",
        &graph_lib,
        programs::TRIANGLES,
        gen::graph_database(&g),
        Expect::Exact(triangles(&g)),
    );

    // PageRank's PFP work is its iteration count, which swings from 2 to
    // non-convergent across random graphs: draw graphs until the native
    // iteration converges in exactly PAGERANK_ITERATIONS steps, so every
    // seed evaluates the same number of iterations.
    let g = (0..)
        .map(|k| gen::random_graph(64, 3.0, sub(4 + 1000 * k)))
        .find(|g| pagerank_iterations(g) == PAGERANK_ITERATIONS)
        .expect("an endless supply of graphs");
    let mut db = gen::graph_database(&g);
    db.set("M", gen::transition_matrix_relation(&g));
    let ranks = native::pagerank_iterate(g.n, &native::transition_matrix(&g), 0.005, 10_000);
    push(
        "pagerank",
        &graph_lib,
        programs::PAGERANK,
        db,
        Expect::Ranks(ranks),
    );

    let w = OrderWorkload::generate(600, 50, sub(5));
    let revenue =
        Relation::from_tuples(w.native_revenue().into_iter().map(|(o, v)| tuple(&[o, v])));
    push(
        "revenue",
        &stdlib,
        programs::REVENUE,
        w.db.clone(),
        Expect::Exact(revenue),
    );

    let mut db = Database::new();
    let mut src = String::from("def agg_count[{A}] : reduce[add, (A, 1)]\n");
    let mut sizes = Vec::new();
    for c in 0..8u64 {
        let g = gen::random_graph(120, 3.0, sub(100 + c));
        db.set(format!("E{c}").as_str(), gen::edge_relation(&g));
        let _ = writeln!(src, "def TC{c}(x,y) : E{c}(x,y)");
        let _ = writeln!(
            src,
            "def TC{c}(x,y) : exists((z) | E{c}(x,z) and TC{c}(z,y))"
        );
        let _ = writeln!(src, "def Size{c}(s) : s = agg_count[TC{c}]");
        let _ = writeln!(src, "def output(k,s) : k = {c} and Size{c}(s)");
        sizes.push(tuple(&[
            c as i64,
            native::transitive_closure(&g).len() as i64,
        ]));
    }
    push(
        "multi_stratum",
        "",
        &src,
        db,
        Expect::Exact(Relation::from_tuples(sizes)),
    );
    out
}

/// Compare one evaluation's output with its expectation.
fn verify(p: &Program, out: &Relation) -> Result<(), String> {
    match &p.expect {
        Expect::Exact(want) if want == out => Ok(()),
        Expect::Exact(want) => Err(format!(
            "{}: {} rows, native baseline has {}",
            p.name,
            out.len(),
            want.len()
        )),
        Expect::Ranks(want) => {
            if out.len() != want.len() {
                return Err(format!(
                    "{}: {} ranks, native has {}",
                    p.name,
                    out.len(),
                    want.len()
                ));
            }
            for t in out.iter() {
                let v = t.values();
                let i = v[0].as_int().unwrap_or(-1) as usize;
                let got = v[1].as_f64().unwrap_or(f64::NAN);
                match want.get(&i) {
                    Some(w) if (got - w).abs() <= PAGERANK_TOLERANCE => {}
                    _ => return Err(format!("{}: rank of vertex {i} is {got}", p.name)),
                }
            }
            Ok(())
        }
    }
}

/// One op: compile library + program, materialize, extract `output`.
/// Returns the output with the op's start, the end of compilation, and
/// the op's end.
fn eval(p: &Program, cache: &SharedIndexCache) -> (Relation, [Instant; 3]) {
    let t0 = Instant::now();
    let module = rel_sema::compile(&p.src).expect("rotation program compiles");
    let t1 = Instant::now();
    let mut rels = rel_engine::materialize_with_cache(&module, &p.db, cache.clone())
        .expect("rotation program evaluates");
    let out = rels.remove("output").unwrap_or_default();
    (out, [t0, t1, Instant::now()])
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let digest = check_inputs(&mut report, || {
        programs_for(ctx.seed)
            .iter()
            .flat_map(|p| db_bytes(&p.db))
            .collect()
    });
    // Set-up: generate inputs and native baselines, then one untimed
    // warm-up pass over the rotation on the run's index cache.
    let ((rotation, cache), setup_s) = timed_setup(
        || {
            let rotation = programs_for(ctx.seed);
            let cache = SharedIndexCache::with_wcoj(WcojMode::Auto);
            for p in &rotation {
                let (out, _) = eval(p, &cache);
                if let Err(e) = verify(p, &out) {
                    panic!("warm-up: {e}");
                }
            }
            (rotation, cache)
        },
        drop,
    );
    report.note(format!(
        "# analytics: rotation [{}], inputs crc32 {digest}, closed loop, 1 client thread",
        rotation
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let mut tracer = Tracer::new();
    let compiles0 = rel_sema::compilations();
    let reg0 = metrics::registry().snapshot();
    let mut lat = Samples::default();
    let mut per_prog: BTreeMap<&'static str, (Samples, Samples)> = BTreeMap::new();
    let mut ops = 0u64;
    let mut busy_s = 0.0;
    let meter = Meter::start();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    // Each full pass over the rotation: (evaluation ms, CPU ms, host steal).
    let mut passes: Vec<(f64, f64, u64)> = Vec::new();
    let mut rss = Vec::new();
    'run: loop {
        let mut pass_ms = 0.0;
        let pass = Meter::start();
        for p in &rotation {
            if Instant::now() >= deadline {
                break 'run;
            }
            ops += 1;
            let (out, [t0, t1, t2]) = eval(p, &cache);
            if ctx.trace {
                let root = tracer.record("analytics.op", None, ops, t0, t2);
                tracer.record("sema.compile", Some(root), ops, t0, t1);
                tracer.record("fixpoint.materialize", Some(root), ops, t1, t2);
            }
            let (compile_ms, mat_ms) =
                ((t1 - t0).as_secs_f64() * 1e3, (t2 - t1).as_secs_f64() * 1e3);
            busy_s += (t2 - t0).as_secs_f64();
            lat.push(compile_ms + mat_ms);
            let e = per_prog.entry(p.name).or_default();
            e.0.push(compile_ms);
            e.1.push(mat_ms);
            pass_ms += compile_ms + mat_ms;
            if let Err(e) = verify(p, &out) {
                report.check(false, || e);
                break 'run;
            }
        }
        let m = pass.stop();
        passes.push((pass_ms, m.cpu_ms, m.steal_ticks));
        rss.push(m.rss_mb);
    }
    let m = meter.stop();
    report.attempted = ops;
    let (p50, p99, max) = lat.summary();
    // The end-to-end metrics come from the quieter half of the full passes.
    let quiet = crate::quiet_rounds(&passes.iter().map(|p| p.2).collect::<Vec<_>>());
    let mut quiet_passes = Samples::default();
    let (mut quiet_cpu, mut quiet_evals) = (0.0, 0.0);
    for &i in &quiet {
        quiet_passes.push(passes[i].0);
        quiet_cpu += passes[i].1;
        quiet_evals += rotation.len() as f64;
    }
    let (pass50, pass99, _) = quiet_passes.summary();
    report.note(format!(
        "# evaluations {ops} (p50 {p50:.3} ms, p99 {p99:.3} ms, max {max:.3} ms), \
         full passes {}, quiet half {} (p50 {pass50:.3} ms, p99 {pass99:.3} ms), \
         busy {busy_s:.3} s of {:.3} s, steal {} ticks, error_ratio 0",
        passes.len(),
        quiet.len(),
        m.wall_s,
        m.steal_ticks
    ));
    for (name, (c, mt)) in &per_prog {
        report.note(format!(
            "#   {name:<15} n={:<4} compile mean {:.3} ms, materialize mean {:.3} ms",
            c.len(),
            c.mean(),
            mt.mean()
        ));
    }
    if !ctx.trace {
        // ops_per_s counts evaluations per second of evaluation time, so
        // the per-pass output checks do not dilute it. One evaluation's
        // latency depends mostly on which program it ran, so the latency
        // metrics are taken over whole rotation passes.
        let per_s = quiet_evals / (quiet_passes.sum() / 1e3);
        end_to_end(
            &mut report,
            setup_s,
            (per_s, quiet_cpu / quiet_evals),
            median(&rss).unwrap_or(0.0),
            (pass50, pass99),
        );
        return report;
    }

    // ---- traced run: per-layer metrics -----------------------------------
    let reg = metrics::registry().snapshot();
    let d = |n: &str| (reg.get(n) - reg0.get(n)) as f64;
    let opsf = ops.max(1) as f64;
    let compiles = (rel_sema::compilations() - compiles0) as f64;
    let profiled = profile_pass(&rotation);
    let mut layers = crate::Layers::new(lat.mean());
    let st = trace::self_times(tracer.spans());
    let ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6 / opsf;
    layers.set("sema", ns("sema.compile"));
    layers.set("fixpoint", ns("fixpoint.materialize"));
    report.metric("trace.ops_per_s", ops as f64 / busy_s, "1/s");
    report.metric(
        "sema.compile_ms",
        per_prog.values().map(|v| v.0.sum()).sum::<f64>() / opsf,
        "ms",
    );
    report.metric("sema.compiles_per_op", compiles / opsf, "count");
    report.metric(
        "session.module_cache_hit_ratio",
        ratio(
            d("module_cache_hits"),
            d("module_cache_hits") + d("module_cache_misses"),
        ),
        "ratio",
    );
    for p in &rotation {
        let mean = per_prog.get(p.name).map_or(0.0, |v| v.1.mean());
        report.metric(&format!("fixpoint.{}_ms", p.name), mean, "ms");
    }
    report.metric("fixpoint.iterations_per_op", profiled.0, "count");
    report.metric("fixpoint.strata_evaluated_per_op", profiled.1, "count");
    eval_ratios(&mut report, &d, opsf);
    layers.emit(&mut report);
    crate::write_spans(ctx, "analytics", &tracer, &mut report);
    report
}

/// Evaluate every program once under a query profile (sequential strata,
/// incremental off so every stratum is evaluated): mean fixpoint
/// iterations and evaluated strata per op.
fn profile_pass(rotation: &[Program]) -> (f64, f64) {
    let cfg = EngineConfig {
        incremental: false,
        ..crate::engine_config(true)
    };
    let (mut iters, mut strata) = (0u64, 0u64);
    for p in rotation {
        let session = rel_engine::Session::with_config(p.db.clone(), cfg).with_library(&p.library);
        let (out, profile) = session
            .query_profiled(&p.program)
            .expect("profiled evaluation");
        assert!(
            verify(p, &out).is_ok(),
            "profiled {} disagrees with native",
            p.name
        );
        iters += profile.totals().iterations;
        strata += profile
            .strata
            .iter()
            .filter(|s| s.action != rel_engine::StratumAction::Reused)
            .count() as u64;
    }
    let n = rotation.len().max(1) as f64;
    (iters as f64 / n, strata as f64 / n)
}

/// The `eval.*` ratios from a registry diff.
pub fn eval_ratios(report: &mut Report, d: &dyn Fn(&str) -> f64, ops: f64) {
    report.metric(
        "eval.index_build_ratio",
        ratio(d("index_builds"), d("index_builds") + d("index_reuses")),
        "ratio",
    );
    report.metric(
        "eval.trie_build_ratio",
        ratio(d("trie_builds"), d("trie_builds") + d("trie_reuses")),
        "ratio",
    );
    report.metric(
        "eval.wcoj_dispatches_per_op",
        d("wcoj_dispatches") / ops,
        "count",
    );
    report.metric(
        "eval.fused_rule_share",
        ratio(d("fused_rules"), d("fused_rules") + d("env_rules")),
        "ratio",
    );
}
