//! `serving`: an in-process `rel-server` over a durable order database
//! (`OrderWorkload`: Zipf products), two client connections. An open-loop
//! phase at a fixed offered rate gives read and write latency, timed from
//! each request's due time; a closed-loop phase then gives throughput.
//! The run is split into blocks, each on a fresh server over a store built
//! from its own seed (derived from the run's), so no block inherits the
//! history of another.
//!
//! The mix, per connection: prepared point reads of `REPEATED_QUERY`,
//! ad-hoc point reads with the order id spliced in (Zipf over more
//! distinct texts than the server's module cache holds), one-shot update
//! writes that delete and re-insert one `Line`, and interactive
//! transactions (begin → prepared read → prepared insert → commit). The
//! two connections write to disjoint orders, so each keeps an exact model
//! of its own orders: sampled reads are checked against it, and the final
//! store must equal the union of both models.

use crate::report::Report;
use crate::stats::{median, ratio, Samples, StatsDiff};
use crate::trace::{self, Tracer};
use crate::{check_inputs, db_bytes, end_to_end, engine_config, timed_setup, Ctx, Layers, Meter};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_bench::{programs, OrderWorkload};
use rel_core::{Database, Relation, Tuple, Value};
use rel_engine::{metrics, Params, Prepared, Session};
use rel_server::{Client, ClientError, Server, ServerConfig, Statement};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Orders in the store.
pub const ORDERS: usize = 3000;
/// Products (Zipf popularity).
pub const PRODUCTS: usize = 200;
/// Distinct ad-hoc read texts: orders `0..ADHOC_TEXTS`, drawn Zipf. The
/// server's module cache holds 512 compiled sources.
pub const ADHOC_TEXTS: usize = 2048;
/// Op mixes: a connection draws its ops from shuffled decks holding this
/// many prepared reads, ad-hoc reads, one-shot updates and interactive
/// transactions, so every seed runs the same mix. Set-up, the closed
/// loop and the replay use [`MIXED`] on both connections.
pub const MIXED: Deck = [40, 6, 2, 2];
/// The open loop's reader (connection 0): reads only, so its latency is
/// never queued behind its own writes.
pub const READS: Deck = [40, 6, 0, 0];
/// The open loop's writer (connection 1).
pub const WRITES: Deck = [0, 0, 1, 1];
/// Offered rates of the open loop, ops per second: reader, writer.
pub const OPEN_RATE: [f64; 2] = [150.0, 10.0];
/// Share of each block spent in the open-loop phase; the rest is closed
/// loop.
pub const OPEN_SHARE: f64 = 0.5;
/// Length, in seconds, of one block: an open-loop then a closed-loop
/// phase on a freshly built fixture. The measured time is split into
/// blocks of about this length, and the metrics are medians over them.
/// Per-op costs on one server climb with the writes it has served (by
/// 40% over a minute of this mix), so a long single run would measure
/// its own history; a fresh fixture per block gives every block a
/// history of the same length.
pub const BLOCK_S: f64 = 2.5;
/// The open-loop generator sleeps until this close to an op's due time,
/// then spins, so wake-up jitter does not pose as latency.
const SPIN: Duration = Duration::from_micros(300);
/// An open-loop run is invalid when the generator's p99 lateness exceeds
/// this many milliseconds.
pub const LATENESS_BOUND_MS: f64 = 50.0;
/// Untimed warm-up ops per connection during set-up.
pub const WARMUP_OPS: usize = 100;
/// Every this many reads of an own order is checked against the model.
pub const CHECK_EVERY: u64 = 4;
/// Ops of connection 0's stream replayed in-process by a traced run.
pub const REPLAY_OPS: usize = 400;
/// Line ids handed to interactive inserts start here (per connection,
/// spaced by 10^7), clear of the generated ids.
const NEW_LINE_BASE: i64 = 1_000_000_000;

const INSERT_LINE: &str = "def insert(:Line, o, l, p) : o = ?order and l = ?line and p = ?product";

/// Counts of each op kind in one deck.
pub type Deck = [usize; 4];

/// One request-level operation.
#[derive(Clone, Debug)]
enum Op {
    Exec(i64),
    Adhoc(i64),
    Update { order: i64, line: i64, product: i64 },
    Interactive { order: i64, line: i64, product: i64 },
}

impl Op {
    fn is_write(&self) -> bool {
        matches!(self, Op::Update { .. } | Op::Interactive { .. })
    }
}

fn update_src(order: i64, line: i64, product: i64) -> String {
    format!(
        "def delete(:Line, o, l, p) : Line(o, l, p) and o = {order} and l = {line}\n\
         def insert(:Line, o, l, p) : o = {order} and l = {line} and p = {product}"
    )
}

fn read_params(order: i64) -> Params {
    Params::new().set("order", order)
}

fn insert_params(order: i64, line: i64, product: i64) -> Params {
    Params::new()
        .set("order", order)
        .set("line", line)
        .set("product", product)
}

/// The generated store contents and derived lookup tables.
pub struct Inputs {
    db: Database,
    prices: HashMap<i64, i64>,
}

fn inputs(seed: u64) -> Inputs {
    let w = OrderWorkload::generate(ORDERS, PRODUCTS, seed);
    let prices =
        w.db.get("Price")
            .expect("generated")
            .iter()
            .map(|t| {
                (
                    t.values()[0].as_int().expect("int"),
                    t.values()[1].as_int().expect("int"),
                )
            })
            .collect();
    Inputs { db: w.db, prices }
}

/// One connection's op generator and the exact model of the orders it
/// alone writes (`order % 2 == conn`).
struct Model {
    rng: StdRng,
    /// The mix being dealt and the op kinds (indexes into it) left in
    /// the current deck.
    deck: (Deck, Vec<usize>),
    /// Own order → line → product.
    lines: BTreeMap<i64, BTreeMap<i64, i64>>,
    own: Vec<i64>,
    next_line: i64,
    adhoc: WeightedIndex,
    product: WeightedIndex,
    prices: Arc<HashMap<i64, i64>>,
}

impl Model {
    fn new(conn: usize, seed: u64, inp: &Inputs, prices: Arc<HashMap<i64, i64>>) -> Model {
        let mut lines: BTreeMap<i64, BTreeMap<i64, i64>> = BTreeMap::new();
        for t in inp.db.get("Line").expect("generated").iter() {
            let v: Vec<i64> = t
                .values()
                .iter()
                .map(|x| x.as_int().expect("int"))
                .collect();
            if v[0] as usize % 2 == conn {
                lines.entry(v[0]).or_default().insert(v[1], v[2]);
            }
        }
        let zipf =
            |n: usize| WeightedIndex::new((0..n).map(|k| 1.0 / (k + 1) as f64)).expect("weights");
        Model {
            rng: StdRng::seed_from_u64(seed ^ (0xC0FFEE + conn as u64)),
            deck: (MIXED, Vec::new()),
            own: lines.keys().copied().collect(),
            lines,
            next_line: NEW_LINE_BASE + conn as i64 * 10_000_000,
            adhoc: zipf(ADHOC_TEXTS),
            product: zipf(PRODUCTS),
            prices,
        }
    }

    /// The next op dealt from `mix` (a function of the seed, the sequence
    /// of mixes asked for and the acknowledged writes only).
    fn next(&mut self, mix: Deck) -> Op {
        if self.deck.0 != mix {
            self.deck = (mix, Vec::new());
        }
        let deck = &mut self.deck.1;
        if deck.is_empty() {
            *deck = mix
                .iter()
                .enumerate()
                .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
                .collect();
            for i in (1..deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                deck.swap(i, j);
            }
        }
        let kind = deck.pop().expect("refilled");
        match kind {
            0 => return Op::Exec(self.rng.gen_range(0..ORDERS as i64)),
            1 => return Op::Adhoc(self.adhoc.sample(&mut self.rng) as i64),
            _ => {}
        }
        let order = self.own[self.rng.gen_range(0..self.own.len())];
        let product = self.product.sample(&mut self.rng) as i64;
        if kind == 2 {
            let lines = &self.lines[&order];
            let line = *lines
                .keys()
                .nth(self.rng.gen_range(0..lines.len()))
                .expect("non-empty");
            Op::Update {
                order,
                line,
                product,
            }
        } else {
            self.next_line += 1;
            Op::Interactive {
                order,
                line: self.next_line,
                product,
            }
        }
    }

    /// Apply an acknowledged write.
    fn apply(&mut self, op: &Op) {
        if let Op::Update {
            order,
            line,
            product,
        }
        | Op::Interactive {
            order,
            line,
            product,
        } = *op
        {
            self.lines.entry(order).or_default().insert(line, product);
        }
    }

    /// `REPEATED_QUERY`'s output for an own order.
    fn expected(&self, order: i64) -> Option<Relation> {
        let lines = self.lines.get(&order)?;
        Some(Relation::from_tuples(lines.iter().map(|(&l, &p)| {
            Tuple::from(vec![
                Value::Int(l),
                Value::Int(p),
                Value::Int(self.prices[&p]),
            ])
        })))
    }

    /// The model's `Line` tuples.
    fn line_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.lines.iter().flat_map(|(&o, ls)| {
            ls.iter()
                .map(move |(&l, &p)| Tuple::from(vec![Value::Int(o), Value::Int(l), Value::Int(p)]))
        })
    }
}

/// One client connection with its statements and model.
struct Conn {
    client: Client,
    read: Statement,
    insert: Statement,
    model: Model,
}

/// What one op did, as the client saw it.
struct Done {
    /// Request round trips: `(class, start, end)`.
    requests: Vec<(&'static str, Instant, Instant)>,
    /// The read result, for reads.
    read: Option<(i64, Relation)>,
    /// Start of the commit request, for writes.
    commit_start: Option<Instant>,
}

impl Conn {
    /// Issue one op; on success the model has applied it.
    fn issue(&mut self, op: &Op) -> Result<Done, ClientError> {
        let mut requests = Vec::new();
        let mut timed = |class, f: &mut dyn FnMut() -> Result<Relation, ClientError>| {
            let s = Instant::now();
            let r = f();
            requests.push((class, s, Instant::now()));
            r
        };
        let mut read = None;
        let mut commit_start = None;
        let (client, stmt_read, stmt_insert) = (&mut self.client, &self.read, &self.insert);
        match *op {
            Op::Exec(o) => {
                let rows = timed("execute", &mut || {
                    client.execute(stmt_read, &read_params(o))
                })?;
                read = Some((o, rows));
            }
            Op::Adhoc(o) => {
                let src = programs::repeated_query_inlined(o);
                let rows = timed("query", &mut || client.query(&src))?;
                read = Some((o, rows));
            }
            Op::Update {
                order,
                line,
                product,
            } => {
                commit_start = Some(Instant::now());
                let src = update_src(order, line, product);
                timed("commit", &mut || client.transact(&src).map(|o| o.output))?;
            }
            Op::Interactive {
                order,
                line,
                product,
            } => {
                let mut txn = None;
                timed("txn_step", &mut || {
                    txn = Some(client.begin()?);
                    Ok(Relation::new())
                })?;
                let txn = txn.expect("begun");
                let rows = timed("txn_step", &mut || {
                    client.txn_run_prepared(txn, stmt_read, &read_params(order))
                })?;
                read = Some((order, rows));
                timed("txn_step", &mut || {
                    client.txn_run_prepared(txn, stmt_insert, &insert_params(order, line, product))
                })?;
                commit_start = Some(Instant::now());
                timed("commit", &mut || client.txn_commit(txn).map(|o| o.output))?;
            }
        }
        self.model.apply(op);
        Ok(Done {
            requests,
            read,
            commit_start,
        })
    }
}

/// A built fixture: the server, its store directory, and two connections.
struct Fixture {
    server: Server,
    dir: PathBuf,
    conns: Vec<Conn>,
}

/// Open a durable store at `dir` and load `db` into it in one commit.
pub fn load_store(dir: &PathBuf, db: &Database, trace: bool) -> Session {
    let mut s = Session::open_with(dir, engine_config(trace)).expect("open the store");
    assert!(s.is_durable(), "the store must be durable");
    let mut txn = s.begin();
    for (name, rel) in db.iter() {
        for t in rel.iter() {
            txn.stage_insert(name.as_ref(), t.clone());
        }
    }
    txn.commit().expect("load commits");
    s
}

/// The seed of block `b`: the run's seed for the first block, and one
/// derived from it for each later block, so the blocks between them
/// average over several stores and op streams.
pub fn block_seed(seed: u64, b: usize) -> u64 {
    seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn build(ctx: &Ctx, seed: u64) -> Fixture {
    let inp = inputs(seed);
    let prices = Arc::new(inp.prices.clone());
    let dir = ctx.fresh_dir("serving-store");
    let mut session = load_store(&dir, &inp.db, ctx.trace);
    session.install_library(&rel_stdlib::full_library());
    let server = Server::start(session, ServerConfig::default()).expect("server starts");
    let mut conns = Vec::new();
    for c in 0..2 {
        let mut client = Client::connect(server.addr()).expect("connect");
        let read = client
            .prepare(programs::REPEATED_QUERY)
            .expect("prepare read");
        let insert = client.prepare(INSERT_LINE).expect("prepare insert");
        let model = Model::new(c, seed, &inp, Arc::clone(&prices));
        conns.push(Conn {
            client,
            read,
            insert,
            model,
        });
    }
    // Warm-up pass: the first ops of each stream, untimed.
    for conn in &mut conns {
        for _ in 0..WARMUP_OPS {
            let op = conn.model.next(MIXED);
            conn.issue(&op).expect("warm-up op succeeds");
        }
    }
    Fixture { server, dir, conns }
}

fn teardown(f: Fixture) -> Session {
    drop(f.conns);
    let session = f.server.shutdown().expect("server shuts down");
    let _ = std::fs::remove_dir_all(&f.dir);
    session
}

/// One block's samples on one connection.
#[derive(Default)]
struct Round {
    read_lat: Samples,
    write_lat: Samples,
    ops_closed: u64,
    /// Wall and process CPU time of the closed-loop phase, from its start
    /// until both connections finished it (taken by connection 0).
    closed: Option<crate::Measured>,
    /// Host steal over the whole block (taken by connection 0).
    steal: u64,
}

/// Per-connection results of the run.
#[derive(Default)]
struct Tally {
    rounds: Vec<Round>,
    ops_open: u64,
    ops_closed: u64,
    failed: u64,
    busy: u64,
    lateness: Samples,
    read_mismatches: Vec<String>,
    checked: u64,
    /// Client round trips per request class: (count, total ms).
    rtt: BTreeMap<&'static str, (u64, f64)>,
    tracer: Tracer,
}

impl Tally {
    /// Fold in a later block's results (its rounds follow this one's).
    fn absorb(&mut self, t: Tally) {
        self.rounds.extend(t.rounds);
        self.ops_open += t.ops_open;
        self.ops_closed += t.ops_closed;
        self.failed += t.failed;
        self.busy += t.busy;
        self.checked += t.checked;
        self.lateness.extend(&t.lateness);
        self.read_mismatches.extend(t.read_mismatches);
        for (class, (n, ms)) in t.rtt {
            let r = self.rtt.entry(class).or_default();
            r.0 += n;
            r.1 += ms;
        }
        self.tracer.absorb(t.tracer);
    }
}

/// Run one block on one connection: the open-loop phase, then the
/// closed-loop phase, in step with the other connection.
fn drive(
    conn: &mut Conn,
    ctx: &Ctx,
    barrier: &Barrier,
    open_s: f64,
    closed_s: f64,
    first: bool,
) -> Tally {
    let mut t = Tally::default();
    let mut reads = 0u64;
    let mut req = 0u64;
    let mut step = |conn: &mut Conn, t: &mut Tally, due: Instant, open: bool| {
        let op = conn.model.next(if !open {
            MIXED
        } else if first {
            READS
        } else {
            WRITES
        });
        req += 1;
        let sent = Instant::now();
        match conn.issue(&op) {
            Ok(done) => {
                let end = Instant::now();
                for &(class, s, e) in &done.requests {
                    let r = t.rtt.entry(class).or_default();
                    r.0 += 1;
                    r.1 += (e - s).as_secs_f64() * 1e3;
                }
                if ctx.trace {
                    let root = t.tracer.record("serving.op", None, req, sent, end);
                    for &(class, s, e) in &done.requests {
                        t.tracer.record(client_span(class), Some(root), req, s, e);
                    }
                }
                let round = t.rounds.last_mut().expect("a round is running");
                if open {
                    t.lateness.push((sent - due).as_secs_f64() * 1e3);
                    let (bucket, lat) = match done.commit_start {
                        Some(cs) => (&mut round.write_lat, end - cs),
                        None => (&mut round.read_lat, end - due),
                    };
                    bucket.push(lat.as_secs_f64() * 1e3);
                } else {
                    round.ops_closed += 1;
                }
                if let Some((order, rows)) = done.read {
                    if let Some(want) = conn.model.expected(order) {
                        reads += 1;
                        // Interactive reads precede the txn's own insert;
                        // the model has applied it by now.
                        if !op.is_write() && reads.is_multiple_of(CHECK_EVERY) {
                            t.checked += 1;
                            if rows != want {
                                t.read_mismatches.push(format!(
                                    "read of order {order} disagrees with the model"
                                ));
                            }
                        }
                    }
                }
            }
            Err(e) => {
                t.failed += 1;
                t.busy += u64::from(e.is_busy());
            }
        }
    };
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE[usize::from(!first)]);
    t.rounds.push(Round::default());
    barrier.wait();
    let whole = Meter::start();
    let start = Instant::now();
    let mut due = start;
    while due < start + Duration::from_secs_f64(open_s) {
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        step(conn, &mut t, due, true);
        t.ops_open += 1;
        due += interval;
    }
    barrier.wait();
    let meter = Meter::start();
    let deadline = Instant::now() + Duration::from_secs_f64(closed_s);
    while Instant::now() < deadline {
        step(conn, &mut t, Instant::now(), false);
        t.ops_closed += 1;
    }
    barrier.wait();
    if first {
        let round = t.rounds.last_mut().expect("pushed");
        round.closed = Some(meter.stop());
        round.steal = whole.stop().steal_ticks;
    }
    t
}

fn client_span(class: &str) -> &'static str {
    match class {
        "execute" => "client.execute",
        "query" => "client.query",
        "commit" => "client.commit",
        _ => "client.txn_step",
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let digest = check_inputs(&mut report, || db_bytes(&inputs(ctx.seed).db));
    let (fx, setup_s) = timed_setup(|| build(ctx, ctx.seed), |f| drop(teardown(f)));
    report.note(format!(
        "# serving: orders={ORDERS} products={PRODUCTS} adhoc_texts={ADHOC_TEXTS} decks(exec/adhoc/update/interactive) \
         open loop: reader {READS:?} at {} ops/s, writer {WRITES:?} at {} ops/s; closed loop: {MIXED:?} x2; \
         inputs crc32 {digest}",
        OPEN_RATE[0],
        OPEN_RATE[1]
    ));

    // Each block runs on its own fixture: the set-up's last one first,
    // then a fresh build per block from the block's seed (untimed, outside
    // the measured phases). Each block ends with its store checked
    // against its models.
    let blocks = ((ctx.seconds / BLOCK_S).round() as usize).max(1);
    let open_s = ctx.seconds * OPEN_SHARE / blocks as f64;
    let closed_s = ctx.seconds / blocks as f64 - open_s;
    let barrier = Barrier::new(2);
    let mut tallies = [Tally::default(), Tally::default()];
    let mut diff = StatsDiff::default();
    let mut registry = Vec::new();
    let mut steal_ticks = 0;
    let mut fixture = Some(fx);
    for b in 0..blocks {
        let mut fx = fixture
            .take()
            .unwrap_or_else(|| build(ctx, block_seed(ctx.seed, b)));
        let stats0 = fx.conns[0].client.stats().expect("stats");
        let reg0 = metrics::registry().snapshot();
        let meter = Meter::start();
        let block: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = fx
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let barrier = &barrier;
                    s.spawn(move || drive(conn, ctx, barrier, open_s, closed_s, i == 0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        steal_ticks += meter.stop().steal_ticks;
        let stats1 = fx.conns[0].client.stats().expect("stats");
        registry.push((reg0, metrics::registry().snapshot()));
        diff.add(&StatsDiff::between(&stats0, &stats1));
        for (acc, t) in tallies.iter_mut().zip(block) {
            acc.absorb(t);
        }

        // ---- correctness: the block's final store vs the models -------------
        let models: Vec<Model> = fx.conns.drain(..).map(|c| c.model).collect();
        let final_session = teardown(fx);
        let want = Relation::from_tuples(models.iter().flat_map(Model::line_tuples));
        let got = final_session.db().get("Line").cloned().unwrap_or_default();
        report.check(got == want, || {
            format!(
                "final Line has {} rows, the acknowledged writes give {}",
                got.len(),
                want.len()
            )
        });
    }

    // The metrics are medians over the blocks: closed-loop throughput and
    // CPU per op, and the reader's p50 latency. The p99s pool every block.
    // Memory is the median resident set at the blocks' ends.
    let (mut per_s, mut cpu, mut read_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reads, mut writes) = (Samples::default(), Samples::default());
    for b in 0..blocks {
        let ops_closed: u64 = tallies.iter().map(|t| t.rounds[b].ops_closed).sum();
        let closed = tallies[0].rounds[b]
            .closed
            .expect("connection 0 measures each block");
        per_s.push(ops_closed as f64 / closed.wall_s);
        cpu.push(closed.cpu_ms / ops_closed.max(1) as f64);
        read_p50.push(tallies[0].rounds[b].read_lat.summary().0);
        for t in &tallies {
            reads.extend(&t.rounds[b].read_lat);
            writes.extend(&t.rounds[b].write_lat);
        }
    }
    let ops_per_s = median(&per_s).expect("blocks > 0");
    let cpu_per_op = median(&cpu).expect("blocks > 0");
    let p50 = median(&read_p50).expect("blocks > 0");
    let rss: Vec<f64> = tallies[0]
        .rounds
        .iter()
        .filter_map(|r| r.closed)
        .map(|m| m.rss_mb)
        .collect();
    let steal: Vec<u64> = tallies[0].rounds.iter().map(|r| r.steal).collect();

    let mut all = Tally::default();
    for t in tallies {
        all.absorb(t);
    }
    let ops = all.ops_open + all.ops_closed;
    report.attempted = ops;
    report.failed = all.failed;
    for why in all.read_mismatches.iter().take(3) {
        report.check(false, || why.clone());
    }

    // ---- open-loop honesty ------------------------------------------------
    let (late50, late99, late_max) = all.lateness.summary();
    report.check(late99 <= LATENESS_BOUND_MS, || {
        format!("open loop invalid: generator p99 lateness {late99:.3} ms > {LATENESS_BOUND_MS} ms")
    });
    let (r50, r99, rmax) = reads.summary();
    let (w50, w99, wmax) = writes.summary();
    let error_ratio = ratio(all.failed as f64, ops as f64);
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "# open loop, {blocks} blocks x {open_s:.2} s (steal ticks per block {steal:?}): read_p50_ms per block [{}], \
         pooled read_p50_ms {r50:.4} read_p99_ms {r99:.4} (n={}, max {rmax:.3}), \
         write_p50_ms {w50:.4} write_p99_ms {w99:.4} (n={}, max {wmax:.3}), \
         generator lateness p50 {late50:.3} p99 {late99:.3} max {late_max:.3} ms",
        fmt(&read_p50),
        reads.len(),
        writes.len()
    ));
    report.note(format!(
        "# closed loop {blocks} x {closed_s:.2} s: {} ops, ops/s per block [{}], cpu ms/op per block [{}]; \
         error_ratio {error_ratio} ({} failed, {} busy); {} reads checked; steal {steal_ticks} ticks",
        all.ops_closed,
        fmt(&per_s),
        fmt(&cpu),
        all.failed,
        all.busy,
        all.checked,
    ));
    if !ctx.trace {
        // Throughput and CPU per op come from the closed-loop phases,
        // read latency from the reader's open-loop phases.
        end_to_end(
            &mut report,
            setup_s,
            (ops_per_s, cpu_per_op),
            median(&rss).unwrap_or(0.0),
            (p50, r99),
        );
        return report;
    }

    // ---- traced run ---------------------------------------------------------
    report.metric("trace.ops_per_s", ops_per_s, "1/s");
    let server_mean = |class: &str| diff.mean(&format!("server.request.{class}_us"));
    report.metric("server.execute_mean_us", server_mean("execute"), "us");
    report.metric("server.query_mean_us", server_mean("query"), "us");
    report.metric("server.commit_mean_us", server_mean("commit"), "us");
    report.metric("server.txn_step_mean_us", server_mean("txn_step"), "us");
    report.metric(
        "server.queue_wait_mean_us",
        diff.mean("server.commit.queue_wait_us"),
        "us",
    );
    report.metric(
        "server.fsync_wait_mean_us",
        diff.mean("server.commit.fsync_wait_us"),
        "us",
    );
    report.metric(
        "server.group_size_mean",
        diff.mean("server.commit.group_size"),
        "count",
    );
    report.metric(
        "server.busy_rejections",
        diff.counter("server.busy_rejections") as f64,
        "count",
    );
    report.metric(
        "wal.compactions",
        diff.counter("compactions") as f64,
        "count",
    );
    let client_mean_us = |class: &str| {
        all.rtt
            .get(class)
            .map_or(0.0, |&(n, ms)| ratio(ms * 1e3, n as f64))
    };
    report.metric(
        "client.wire_mean_us",
        client_mean_us("execute") - server_mean("execute"),
        "us",
    );
    let d = |n: &str| {
        registry
            .iter()
            .map(|(r0, r1)| (r1.get(n) - r0.get(n)) as f64)
            .sum::<f64>()
    };
    report.metric(
        "session.module_cache_hit_ratio",
        ratio(
            d("module_cache_hits"),
            d("module_cache_hits") + d("module_cache_misses"),
        ),
        "ratio",
    );

    let prices = Arc::new(inputs(ctx.seed).prices);
    let first = replay(ctx, &prices, "serving-replay-a");
    let second = replay(ctx, &prices, "serving-replay-b");
    report.check(first.counts == second.counts, || {
        format!(
            "replay counts differ between two replays of one seed: {:?} vs {:?}",
            first.counts, second.counts
        )
    });
    first.report(&mut report);

    // Attribution of the client-observed op time (both phases, per op).
    let n = ops.max(1) as f64;
    let st = trace::self_times(first.tracer.spans());
    let replay_mean = |name: &str, count: usize| {
        st.get(name).copied().unwrap_or(0) as f64 / 1e6 / count.max(1) as f64
    };
    let class_n = |class: &str| all.rtt.get(class).map_or(0.0, |&(c, _)| c as f64);

    let op_ms = all
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .sum::<f64>()
        / n;
    let mut layers = Layers::new(op_ms);
    let wire_ms: f64 = ["execute", "query", "commit", "txn_step"]
        .iter()
        .map(|c| class_n(c) * (client_mean_us(c) - server_mean(c)) / 1e3)
        .sum();
    layers.set("client", wire_ms / n);
    // The replay runs the same op distribution, so its per-op span totals
    // stand for the engine calls behind the served ops.
    let per_op = |span: &str| replay_mean(span, REPLAY_OPS);
    layers.set(
        "sema",
        per_op("sema.compile") + per_op("sema.compile.update"),
    );
    layers.set(
        "session",
        per_op("session.execute") + per_op("session.query"),
    );
    layers.set("txn", per_op("txn.step") + per_op("txn.commit"));
    layers.set("codec", per_op("codec.encode") + per_op("codec.decode"));
    let commits = diff.count("server.commit.queue_wait_us") as f64;
    layers.set(
        "server",
        commits * diff.mean("server.commit.queue_wait_us") / 1e3 / n,
    );
    let windows = diff.count("server.commit.fsync_wait_us") as f64;
    layers.set(
        "wal",
        windows * diff.mean("server.commit.fsync_wait_us") / 1e3 / n,
    );
    layers.emit(&mut report);
    crate::write_spans(ctx, "serving", &all.tracer, &mut report);
    report
}

/// Deterministic counts of one in-process replay, compared across two.
#[derive(Debug, PartialEq)]
struct Counts {
    compiles: u64,
    wal_bytes: u64,
    fsyncs: u64,
    compactions: u64,
    reused: u64,
    delta_restarted: u64,
    recomputed: u64,
    strata_evaluated: u64,
    iterations: u64,
    response_bytes: u64,
}

/// An in-process replay of connection 0's op stream against a durable
/// session built from the same inputs: spans around each engine call.
struct Replay {
    tracer: Tracer,
    counts: Counts,
    commits: u64,
    reads: u64,
    profiled: u64,
    eval: BTreeMap<&'static str, f64>,
}

impl Replay {
    fn report(&self, report: &mut Report) {
        let c = &self.counts;
        let per_commit = |v: u64| ratio(v as f64, self.commits as f64);
        let spans = trace::totals(self.tracer.spans());
        let mean_ms = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |&(ns, k)| ratio(ns as f64 / 1e6, k as f64))
        };
        report.metric("sema.compile_ms", mean_ms("sema.compile"), "ms");
        report.metric(
            "sema.compiles_per_op",
            ratio(c.compiles as f64, REPLAY_OPS as f64),
            "count",
        );
        report.metric(
            "fixpoint.iterations_per_op",
            ratio(c.iterations as f64, self.profiled as f64),
            "count",
        );
        report.metric(
            "fixpoint.strata_evaluated_per_op",
            ratio(c.strata_evaluated as f64, self.profiled as f64),
            "count",
        );
        report.metric(
            "incremental.reused_per_commit",
            per_commit(c.reused),
            "count",
        );
        report.metric(
            "incremental.delta_restarted_per_commit",
            per_commit(c.delta_restarted),
            "count",
        );
        report.metric(
            "incremental.recomputed_per_commit",
            per_commit(c.recomputed),
            "count",
        );
        report.metric("txn.step_ms", mean_ms("txn.step"), "ms");
        report.metric("txn.commit_ms", mean_ms("txn.commit"), "ms");
        report.metric("wal.bytes_per_commit", per_commit(c.wal_bytes), "bytes");
        report.metric("wal.fsyncs_per_commit", per_commit(c.fsyncs), "count");
        report.metric(
            "codec.bytes_per_response",
            ratio(c.response_bytes as f64, self.reads as f64),
            "bytes",
        );
        report.metric("codec.encode_us", mean_ms("codec.encode") * 1e3, "us");
        report.metric("codec.decode_us", mean_ms("codec.decode") * 1e3, "us");
        for (name, v) in &self.eval {
            report.metric(name, *v, "ratio");
        }
    }
}

fn replay(ctx: &Ctx, prices: &Arc<HashMap<i64, i64>>, dir_name: &str) -> Replay {
    let inp = inputs(ctx.seed);
    let dir = ctx.fresh_dir(dir_name);
    let mut session = load_store(&dir, &inp.db, true);
    session.install_library(&rel_stdlib::full_library());
    let read: Prepared = session
        .prepare(programs::REPEATED_QUERY)
        .expect("prepare read");
    let insert: Prepared = session.prepare(INSERT_LINE).expect("prepare insert");
    let mut model = Model::new(0, ctx.seed, &inp, Arc::clone(prices));
    let mut tracer = Tracer::new();
    let mut counts = Counts {
        compiles: 0,
        wal_bytes: 0,
        fsyncs: 0,
        compactions: 0,
        reused: 0,
        delta_restarted: 0,
        recomputed: 0,
        strata_evaluated: 0,
        iterations: 0,
        response_bytes: 0,
    };
    let (mut commits, mut reads, mut profiled) = (0u64, 0u64, 0u64);
    let reg0 = metrics::registry().snapshot();
    let compiles0 = rel_sema::compilations();
    let mut commit_counters = [0u64; 3];
    let mut timed_commit = |session: &mut Session,
                            tracer: &mut Tracer,
                            run: &dyn Fn(&mut rel_engine::Transaction<'_>, &mut Tracer, u64),
                            req: u64| {
        let mut txn = session.begin();
        run(&mut txn, tracer, req);
        let before = metrics::registry().snapshot();
        tracer.time("txn.commit", None, req, || {
            txn.commit().expect("replayed commit")
        });
        let after = metrics::registry().snapshot();
        for (slot, name) in commit_counters.iter_mut().zip([
            "strata_reused",
            "strata_delta_restarted",
            "strata_recomputed",
        ]) {
            *slot += after.get(name) - before.get(name);
        }
    };
    for req in 0..REPLAY_OPS as u64 {
        let op = model.next(MIXED);
        let mut result = None;
        match op {
            Op::Exec(o) => {
                let (rows, _) = tracer.time("session.execute", None, req, || {
                    read.execute_with(&session, &read_params(o))
                        .expect("replayed execute")
                });
                if req % 10 == 0 {
                    let (_, p) = read
                        .execute_with_profiled(&session, &read_params(o))
                        .expect("profiled");
                    profiled += 1;
                    counts.iterations += p.totals().iterations;
                    counts.strata_evaluated += p
                        .strata
                        .iter()
                        .filter(|s| s.action != rel_engine::StratumAction::Reused)
                        .count() as u64;
                }
                result = Some(rows);
            }
            Op::Adhoc(o) => {
                let src = programs::repeated_query_inlined(o);
                tracer.time("sema.compile", None, req, || {
                    session.compile(&src).expect("compiles")
                });
                let (rows, _) = tracer.time("session.query", None, req, || {
                    session.query(&src).expect("replayed query")
                });
                result = Some(rows);
            }
            Op::Update {
                order,
                line,
                product,
            } => {
                let src = update_src(order, line, product);
                tracer.time("sema.compile.update", None, req, || {
                    session.compile(&src).expect("compiles")
                });
                timed_commit(
                    &mut session,
                    &mut tracer,
                    &|txn, tracer, req| {
                        tracer.time("txn.step", None, req, || {
                            txn.run(&src).expect("replayed step")
                        });
                    },
                    req,
                );
                commits += 1;
            }
            Op::Interactive {
                order,
                line,
                product,
            } => {
                timed_commit(
                    &mut session,
                    &mut tracer,
                    &|txn, tracer, req| {
                        tracer.time("txn.step", None, req, || {
                            txn.run_prepared(&read, &read_params(order)).expect("step")
                        });
                        tracer.time("txn.step", None, req, || {
                            txn.run_prepared(&insert, &insert_params(order, line, product))
                                .expect("step")
                        });
                    },
                    req,
                );
                commits += 1;
            }
        }
        model.apply(&op);
        if let Some(rows) = result {
            reads += 1;
            let (bytes, _) = tracer.time("codec.encode", None, req, || {
                let mut out = Vec::new();
                rel_core::codec::encode_relation(&rows, &mut out);
                out
            });
            counts.response_bytes += bytes.len() as u64;
            let (back, _) = tracer.time("codec.decode", None, req, || {
                rel_core::codec::decode_relation(&mut rel_core::codec::Reader::new(&bytes))
                    .expect("decodes")
            });
            assert_eq!(back, rows, "codec round trip");
        }
    }
    let reg1 = metrics::registry().snapshot();
    let d = |n: &str| (reg1.get(n) - reg0.get(n)) as f64;
    counts.compiles = rel_sema::compilations() - compiles0;
    counts.wal_bytes = reg1.get("wal_bytes") - reg0.get("wal_bytes");
    counts.fsyncs = reg1.get("fsyncs") - reg0.get("fsyncs");
    counts.compactions = reg1.get("compactions") - reg0.get("compactions");
    [counts.reused, counts.delta_restarted, counts.recomputed] = commit_counters;
    let mut eval = BTreeMap::new();
    eval.insert(
        "eval.index_build_ratio",
        ratio(d("index_builds"), d("index_builds") + d("index_reuses")),
    );
    eval.insert(
        "eval.trie_build_ratio",
        ratio(d("trie_builds"), d("trie_builds") + d("trie_reuses")),
    );
    eval.insert(
        "eval.fused_rule_share",
        ratio(d("fused_rules"), d("fused_rules") + d("env_rules")),
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    Replay {
        tracer,
        counts,
        commits,
        reads,
        profiled,
        eval,
    }
}
