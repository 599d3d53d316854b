//! `live_feed`: the fraud-detection library of `examples/fraud_detection.rs`
//! (recursive `Flows`, `sum`/`count` aggregation, `RiskScore`, an
//! integrity constraint) over an accounts/transfers store that set-up
//! builds and then reopens through `Session::open_with`, so recovery is
//! part of `setup_s`.
//!
//! One connection commits one transfer per prepared interactive
//! transaction; about one commit in ten is a reversal that deletes an
//! earlier transfer. The other connection subscribes to a standing query
//! whose output changes on every commit, and each commit waits until the
//! subscriber holds its delta. After the run, the subscriber's mirror must
//! equal a fresh query and an in-process replay of the same op stream,
//! and the delivered sequence numbers must be gapless.

use crate::report::Report;
use crate::serving::load_store;
use crate::stats::{median, ratio, Samples, StatsDiff};
use crate::trace::{self, Tracer};
use crate::{check_inputs, db_bytes, end_to_end, engine_config, timed_setup, Ctx, Layers, Meter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{Database, Relation, Tuple, Value};
use rel_engine::{metrics, Params, Session, WatchDelta};
use rel_server::{Client, Server, ServerConfig, Statement};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Accounts in the store.
pub const ACCOUNTS: usize = 200;
/// Transfers in the base store.
pub const BASE_TRANSFERS: usize = 2000;
/// Every this many-th commit is a reversal (fixed positions, so every
/// seed runs the same number).
pub const REVERSAL_EVERY: u64 = 10;
/// The measured phase is split into this many equal rounds; the metrics
/// come from the quieter half of them (see [`crate::quiet_rounds`]).
pub const ROUNDS: usize = 8;
/// Untimed warm-up commits during set-up.
pub const WARMUP_COMMITS: usize = 10;
/// Ops replayed twice in-process by a traced run to check that its counts
/// repeat exactly.
pub const COUNT_OPS: usize = 40;
/// How long a commit may wait for its delta before the run fails.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// The detection library, as in `examples/fraud_detection.rs`, with an
/// integrity constraint on transfer amounts.
pub const LIBRARY: &str = r#"
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
"#;

/// The standing query: every account's inflow and risk score. A transfer
/// or reversal always moves its receiver's inflow, so every commit
/// changes the output.
pub const FEED: &str = "def output(x, i, s) : TotalIn(x, i) and RiskScore(x, s)";

const INSERT: &str =
    "def insert(:Transfer, t, x, y, a) : t = ?t and x = ?from and y = ?to and a = ?amount";
const REVERSE: &str = "def delete(:Transfer, t, x, y, a) : Transfer(t, x, y, a) and t = ?t";

/// One commit of the stream.
#[derive(Clone, Debug)]
enum Op {
    Transfer {
        t: i64,
        from: i64,
        to: i64,
        amount: i64,
    },
    Reverse {
        t: i64,
    },
}

impl Op {
    fn params(&self) -> Params {
        match *self {
            Op::Transfer {
                t,
                from,
                to,
                amount,
            } => Params::new()
                .set("t", t)
                .set("from", from)
                .set("to", to)
                .set("amount", amount),
            Op::Reverse { t } => Params::new().set("t", t),
        }
    }
}

/// A transfer amount: a third just under the 1000 reporting threshold.
fn amount(rng: &mut StdRng) -> i64 {
    if rng.gen_range(0..3u32) == 0 {
        rng.gen_range(900..1000i64)
    } else {
        rng.gen_range(1..10_000i64)
    }
}

fn pair(rng: &mut StdRng) -> (i64, i64) {
    let from = rng.gen_range(0..ACCOUNTS as i64);
    let mut to = rng.gen_range(0..ACCOUNTS as i64 - 1);
    if to >= from {
        to += 1;
    }
    (from, to)
}

/// The base store.
fn inputs(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    let mut db = Database::new();
    for a in 0..ACCOUNTS as i64 {
        db.insert("Account", Tuple::from(vec![Value::Int(a)]));
    }
    for t in 0..BASE_TRANSFERS as i64 {
        let (from, to) = pair(&mut rng);
        let a = amount(&mut rng);
        db.insert(
            "Transfer",
            Tuple::from(vec![
                Value::Int(t),
                Value::Int(from),
                Value::Int(to),
                Value::Int(a),
            ]),
        );
    }
    db
}

/// The op stream: a function of the seed alone.
struct Stream {
    rng: StdRng,
    live: Vec<i64>,
    next_t: i64,
    issued: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x005E_ED0F_F10E),
            live: (0..BASE_TRANSFERS as i64).collect(),
            next_t: BASE_TRANSFERS as i64,
            issued: 0,
        }
    }

    fn next(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(REVERSAL_EVERY) {
            let i = self.rng.gen_range(0..self.live.len());
            return Op::Reverse {
                t: self.live.swap_remove(i),
            };
        }
        let (from, to) = pair(&mut self.rng);
        let t = self.next_t;
        self.next_t += 1;
        self.live.push(t);
        Op::Transfer {
            t,
            from,
            to,
            amount: amount(&mut self.rng),
        }
    }
}

/// One round of the measured phase.
#[derive(Default)]
struct FeedRound {
    per_s: f64,
    cpu_per_op: f64,
    steal: u64,
    delivery: Samples,
    write: Samples,
}

/// What the subscriber thread saw.
struct Subscribed {
    mirror: Relation,
    gapless: bool,
    resyncs: u64,
}

/// A delivered delta: its sequence number and when the subscriber held it.
type Arrival = (u64, Instant);

/// A built fixture.
struct Fixture {
    server: Server,
    dir: PathBuf,
    committer: Client,
    insert: Statement,
    reverse: Statement,
    stream: Stream,
    arrivals: mpsc::Receiver<Arrival>,
    stop: Arc<AtomicBool>,
    subscriber: std::thread::JoinHandle<Result<Subscribed, String>>,
    /// Deltas delivered so far (seq of the last one).
    seq: u64,
    open_ms: f64,
}

/// Build the store, drop it, and reopen it: the reopen is recovery.
fn store(ctx: &Ctx) -> (PathBuf, Session, f64) {
    let dir = ctx.fresh_dir("live-feed-store");
    let s = load_store(&dir, &inputs(ctx.seed), ctx.trace);
    s.compact_now().expect("compaction");
    drop(s);
    let t = Instant::now();
    let s = Session::open_with(&dir, engine_config(ctx.trace)).expect("reopen the store");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(s.is_durable(), "the reopened store must be durable");
    (dir, s, open_ms)
}

fn subscribe(
    mut client: Client,
    ready: mpsc::Sender<()>,
    arrivals: mpsc::Sender<Arrival>,
    stop: Arc<AtomicBool>,
) -> Result<Subscribed, String> {
    let mut sub = client
        .subscribe(FEED, &Params::new())
        .map_err(|e| e.to_string())?;
    let first = sub.recv().map_err(|e| e.to_string())?;
    let mut out = Subscribed {
        mirror: first.apply_to(&Relation::new()),
        gapless: first.seq == 0,
        resyncs: 0,
    };
    let _ = ready.send(());
    let mut expect = 1;
    while !stop.load(Ordering::SeqCst) {
        let Some(d) = sub
            .recv_timeout(Duration::from_millis(20))
            .map_err(|e| e.to_string())?
        else {
            continue;
        };
        let held = Instant::now();
        out.gapless &= d.seq == expect;
        out.resyncs += u64::from(d.snapshot);
        expect = d.seq + 1;
        out.mirror = d.apply_to(&out.mirror);
        let _ = arrivals.send((d.seq, held));
    }
    sub.unsubscribe().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Run one commit over the wire: begin → prepared step → commit. Returns
/// the submit and ack instants of the commit request and the client round
/// trips `(class, start, end)`.
fn commit(
    client: &mut Client,
    stmt: &Statement,
    op: &Op,
) -> Result<(Instant, Instant, RoundTrips), String> {
    let e = |e: rel_server::ClientError| e.to_string();
    let t0 = Instant::now();
    let txn = client.begin().map_err(e)?;
    let t1 = Instant::now();
    client
        .txn_run_prepared(txn, stmt, &op.params())
        .map_err(e)?;
    let t2 = Instant::now();
    client.txn_commit(txn).map_err(e)?;
    let t3 = Instant::now();
    Ok((
        t2,
        t3,
        [
            ("txn_step", t0, t1),
            ("txn_step", t1, t2),
            ("commit", t2, t3),
        ],
    ))
}

/// A commit's request round trips: `(class, start, end)` of begin, the
/// prepared step, and commit.
type RoundTrips = [(&'static str, Instant, Instant); 3];

/// One commit as the committing client saw it.
struct Committed {
    op: Op,
    /// Commit request sent.
    submit: Instant,
    /// Commit acknowledged.
    ack: Instant,
    /// The subscriber held the commit's delta.
    held: Instant,
    rtts: RoundTrips,
}

impl Fixture {
    /// Commit the next op and wait for its delta.
    fn step(&mut self) -> Result<Committed, String> {
        let op = self.stream.next();
        let stmt = if matches!(op, Op::Transfer { .. }) {
            &self.insert
        } else {
            &self.reverse
        };
        let (submit, ack, rtts) = commit(&mut self.committer, stmt, &op)?;
        let (seq, held) = self
            .arrivals
            .recv_timeout(DELIVERY_TIMEOUT)
            .map_err(|_| "no delta delivered".to_string())?;
        if seq != self.seq + 1 {
            return Err(format!("delta seq {seq} after {}", self.seq));
        }
        self.seq = seq;
        Ok(Committed {
            op,
            submit,
            ack,
            held,
            rtts,
        })
    }
}

fn build(ctx: &Ctx) -> Fixture {
    let (dir, mut session, open_ms) = store(ctx);
    session.install_library(&rel_stdlib::full_library());
    session.install_library(LIBRARY);
    let server = Server::start(session, ServerConfig::default()).expect("server starts");
    let sub_client = Client::connect(server.addr()).expect("connect");
    let mut committer = Client::connect(server.addr()).expect("connect");
    let (ready_tx, ready_rx) = mpsc::channel();
    let (arr_tx, arrivals) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let subscriber = std::thread::spawn(move || subscribe(sub_client, ready_tx, arr_tx, flag));
    ready_rx
        .recv_timeout(DELIVERY_TIMEOUT)
        .expect("subscription registers");
    let insert = committer.prepare(INSERT).expect("prepare insert");
    let reverse = committer.prepare(REVERSE).expect("prepare reversal");
    let mut fx = Fixture {
        server,
        dir,
        committer,
        insert,
        reverse,
        stream: Stream::new(ctx.seed),
        arrivals,
        stop,
        subscriber,
        seq: 0,
        open_ms,
    };
    for _ in 0..WARMUP_COMMITS {
        fx.step().expect("warm-up commit");
    }
    fx
}

/// Stop the subscriber and the server; returns what the subscriber saw
/// and the server's final session.
fn teardown(fx: Fixture) -> (Result<Subscribed, String>, Session) {
    fx.stop.store(true, Ordering::SeqCst);
    let sub = fx
        .subscriber
        .join()
        .unwrap_or_else(|_| Err("subscriber panicked".into()));
    drop(fx.committer);
    let session = fx.server.shutdown().expect("server shuts down");
    let _ = std::fs::remove_dir_all(&fx.dir);
    (sub, session)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let digest = check_inputs(&mut report, || db_bytes(&inputs(ctx.seed)));
    let (mut fx, setup_s) = timed_setup(|| build(ctx), |f| drop(teardown(f)));
    report.note(format!(
        "# live_feed: accounts={ACCOUNTS} base_transfers={BASE_TRANSFERS} reversal 1/{REVERSAL_EVERY}, \
         1 committing + 1 subscribed connection, inputs crc32 {digest}"
    ));
    let stats0 = fx.committer.stats().expect("stats");
    let (mut write, mut delivery, mut op_lat) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut rtt: std::collections::BTreeMap<&'static str, (u64, f64)> = Default::default();
    let mut tracer = Tracer::new();
    let (mut ops, mut failed, mut reversals) = (0u64, 0u64, 0u64);
    let mut error = None;
    let meter = Meter::start();
    let mut rounds: Vec<FeedRound> = Vec::new();
    let mut rss = Vec::new();
    'run: for _ in 0..ROUNDS {
        let round = Meter::start();
        let round_ops = ops;
        let mut cur = FeedRound::default();
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds / ROUNDS as f64);
        while Instant::now() < deadline {
            ops += 1;
            let start = Instant::now();
            match fx.step() {
                Ok(Committed {
                    op,
                    submit,
                    ack,
                    held,
                    rtts,
                }) => {
                    reversals += u64::from(matches!(op, Op::Reverse { .. }));
                    write.push((ack - submit).as_secs_f64() * 1e3);
                    delivery.push((held - submit).as_secs_f64() * 1e3);
                    cur.write.push((ack - submit).as_secs_f64() * 1e3);
                    cur.delivery.push((held - submit).as_secs_f64() * 1e3);
                    op_lat.push((held - start).as_secs_f64() * 1e3);
                    for (class, s, e) in rtts {
                        let r = rtt.entry(class).or_default();
                        r.0 += 1;
                        r.1 += (e - s).as_secs_f64() * 1e3;
                    }
                    if ctx.trace {
                        let root = tracer.record("live_feed.op", None, ops, start, held);
                        for (class, s, e) in rtts {
                            tracer.record(
                                if class == "commit" {
                                    "client.commit"
                                } else {
                                    "client.txn_step"
                                },
                                Some(root),
                                ops,
                                s,
                                e,
                            );
                        }
                        tracer.record("client.delivery", Some(root), ops, ack, held);
                    }
                }
                Err(e) => {
                    failed += 1;
                    error = Some(e);
                    break 'run;
                }
            }
        }
        let r = round.stop();
        let done = (ops - round_ops) as f64;
        cur.per_s = done / r.wall_s;
        cur.cpu_per_op = r.cpu_ms / done.max(1.0);
        cur.steal = r.steal_ticks;
        rounds.push(cur);
        rss.push(r.rss_mb);
    }
    let m = meter.stop();
    let stats1 = fx.committer.stats().expect("stats");
    let diff = StatsDiff::between(&stats0, &stats1);
    report.attempted = ops;
    report.failed = failed;
    if let Some(e) = error {
        report.check(false, || format!("commit failed: {e}"));
    }
    let fresh = fx.committer.query(FEED).map_err(|e| e.to_string());
    let committed = WARMUP_COMMITS + ops as usize - failed as usize;
    let open_ms = fx.open_ms;
    let (sub, final_session) = teardown(fx);

    // ---- correctness --------------------------------------------------------
    let replayed = replay(ctx, committed);
    match sub {
        Ok(sub) => {
            report.check(sub.gapless, || {
                "delivered sequence numbers have a gap".into()
            });
            report.check(sub.resyncs == 0, || {
                format!("{} resync snapshots", sub.resyncs)
            });
            report.check(fresh.as_ref() == Ok(&sub.mirror), || {
                "mirror differs from a fresh query".into()
            });
            report.check(replayed.mirror == sub.mirror, || {
                "mirror differs from the in-process replay".into()
            });
        }
        Err(e) => report.check(false, || format!("subscriber failed: {e}")),
    }
    let transfers = final_session
        .db()
        .get("Transfer")
        .cloned()
        .unwrap_or_default();
    report.check(transfers == replayed.transfers, || {
        "final transfers differ from the in-process replay".into()
    });

    // The metrics come from the quieter half of the rounds.
    let steal: Vec<u64> = rounds.iter().map(|r| r.steal).collect();
    let quiet = crate::quiet_rounds(&steal);
    let (mut quiet_delivery, mut quiet_write) = (Samples::default(), Samples::default());
    for &i in &quiet {
        quiet_delivery.extend(&rounds[i].delivery);
        quiet_write.extend(&rounds[i].write);
    }
    let (d50, d99, dmax) = quiet_delivery.summary();
    let (w50, w99, wmax) = quiet_write.summary();
    report.note(format!(
        "# {ops} commits ({reversals} reversals) in {:.3} s; quiet rounds {quiet:?} of {ROUNDS} \
         (steal ticks per round {steal:?}): delivery_p50_ms {d50:.4} delivery_p99_ms {d99:.4} \
         (n={}, max {dmax:.3}), write_p50_ms {w50:.4} write_p99_ms {w99:.4} (n={}, max {wmax:.3}), \
         error_ratio {}, recovery {open_ms:.3} ms, steal {} ticks",
        m.wall_s,
        quiet_delivery.len(),
        quiet_write.len(),
        ratio(failed as f64, ops as f64),
        m.steal_ticks
    ));
    if !ctx.trace {
        let of_quiet = |f: fn(&FeedRound) -> f64| {
            median(&quiet.iter().map(|&i| f(&rounds[i])).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let (ops_per_s, cpu) = (of_quiet(|r| r.per_s), of_quiet(|r| r.cpu_per_op));
        end_to_end(
            &mut report,
            setup_s,
            (ops_per_s, cpu),
            median(&rss).unwrap_or(0.0),
            (d50, d99),
        );
        return report;
    }

    // ---- traced run ---------------------------------------------------------
    report.metric("trace.ops_per_s", (ops - failed) as f64 / m.wall_s, "1/s");
    report.metric("recovery.open_ms", open_ms, "ms");
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
    let client_mean_us = |class: &str| {
        rtt.get(class)
            .map_or(0.0, |&(n, ms)| ratio(ms * 1e3, n as f64))
    };
    report.metric(
        "client.wire_mean_us",
        client_mean_us("commit") - server_mean("commit"),
        "us",
    );

    let a = replay(ctx, COUNT_OPS);
    let b = replay(ctx, COUNT_OPS);
    report.check(a.counts == b.counts, || {
        format!(
            "replay counts differ between two replays of one seed: {:?} vs {:?}",
            a.counts, b.counts
        )
    });
    let c = &a.counts;
    let per_commit = |v: u64| ratio(v as f64, COUNT_OPS as f64);
    report.metric("sema.compiles_per_op", per_commit(c.compiles), "count");
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
    report.metric("wal.bytes_per_commit", per_commit(c.wal_bytes), "bytes");
    report.metric("wal.fsyncs_per_commit", per_commit(c.fsyncs), "count");
    report.metric(
        "watch.delta_rows_per_commit",
        per_commit(c.delta_rows),
        "count",
    );
    report.metric(
        "codec.bytes_per_response",
        per_commit(c.delta_bytes),
        "bytes",
    );
    report.metric(
        "wal.compactions",
        diff.counter("compactions") as f64,
        "count",
    );

    // Timings from the full replay of the run's op stream.
    let spans = trace::totals(replayed.tracer.spans());
    let n = committed.max(1) as f64;
    let total_ms = |name: &str| spans.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
    let mean_ms = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |&(ns, k)| ratio(ns as f64 / 1e6, k as f64))
    };
    report.metric("txn.step_ms", mean_ms("txn.step"), "ms");
    report.metric("txn.commit_ms", mean_ms("txn.commit"), "ms");
    report.metric("watch.recv_ms", mean_ms("watch.recv"), "ms");
    report.metric("codec.encode_us", mean_ms("codec.encode") * 1e3, "us");
    report.metric("codec.decode_us", mean_ms("codec.decode") * 1e3, "us");
    let reg = &replayed.registry;
    crate::analytics::eval_ratios(
        &mut report,
        &|name| reg.get(name).copied().unwrap_or(0) as f64,
        n,
    );

    // Attribution of the client-observed op time (begin → delta held).
    let mut layers = Layers::new(op_lat.mean());
    let wire_ms: f64 = ["txn_step", "commit"]
        .iter()
        .map(|c| {
            rtt.get(c).map_or(0.0, |&(k, _)| k as f64) * (client_mean_us(c) - server_mean(c)) / 1e3
        })
        .sum();
    let done = delivery.len().max(1) as f64;
    layers.set("client", wire_ms / done);
    layers.set("txn", (total_ms("txn.step") + total_ms("txn.commit")) / n);
    layers.set("server", diff.mean("server.commit.queue_wait_us") / 1e3);
    let windows = diff.count("server.commit.fsync_wait_us") as f64;
    layers.set(
        "wal",
        windows * diff.mean("server.commit.fsync_wait_us") / 1e3 / done,
    );
    let decode = total_ms("codec.decode") / n;
    layers.set("codec", decode);
    layers.set("watch", (delivery.mean() - write.mean() - decode).max(0.0));
    layers.emit(&mut report);
    crate::write_spans(ctx, "live_feed", &tracer, &mut report);
    report
}

/// Timing-independent counts of a replay.
#[derive(Debug, PartialEq)]
struct Counts {
    compiles: u64,
    wal_bytes: u64,
    fsyncs: u64,
    reused: u64,
    delta_restarted: u64,
    recomputed: u64,
    delta_rows: u64,
    delta_bytes: u64,
}

struct Replayed {
    /// The replayed store's final `Transfer` relation.
    transfers: Relation,
    mirror: Relation,
    tracer: Tracer,
    counts: Counts,
    /// Registry deltas over the replay.
    registry: std::collections::BTreeMap<&'static str, u64>,
}

/// Replay the first `commits` ops of the stream in-process on a durable
/// session built from the same inputs, with a watch on the feed query.
fn replay(ctx: &Ctx, commits: usize) -> Replayed {
    let dir = ctx.fresh_dir("live-feed-replay");
    let mut session = load_store(&dir, &inputs(ctx.seed), ctx.trace);
    session.install_library(&rel_stdlib::full_library());
    session.install_library(LIBRARY);
    let feed = session.prepare(FEED).expect("prepare feed");
    let insert = session.prepare(INSERT).expect("prepare insert");
    let reverse = session.prepare(REVERSE).expect("prepare reversal");
    let watch = session.watch(&feed, &Params::new()).expect("watch");
    let mut mirror = watch.recv().expect("snapshot").apply_to(&Relation::new());
    let mut stream = Stream::new(ctx.seed);
    let mut tracer = Tracer::new();
    let mut counts = Counts {
        compiles: 0,
        wal_bytes: 0,
        fsyncs: 0,
        reused: 0,
        delta_restarted: 0,
        recomputed: 0,
        delta_rows: 0,
        delta_bytes: 0,
    };
    let reg0 = metrics::registry().snapshot();
    let compiles0 = rel_sema::compilations();
    for req in 0..commits as u64 {
        let op = stream.next();
        let stmt = if matches!(op, Op::Transfer { .. }) {
            &insert
        } else {
            &reverse
        };
        let mut txn = session.begin();
        let before = metrics::registry().snapshot();
        let (step, _) = tracer.time("txn.step", None, req, || {
            txn.run_prepared(stmt, &op.params())
        });
        step.expect("replayed step");
        let (outcome, _) = tracer.time("txn.commit", None, req, || txn.commit());
        outcome.expect("replayed commit");
        let after = metrics::registry().snapshot();
        counts.reused += after.get("strata_reused") - before.get("strata_reused");
        counts.delta_restarted +=
            after.get("strata_delta_restarted") - before.get("strata_delta_restarted");
        counts.recomputed += after.get("strata_recomputed") - before.get("strata_recomputed");
        let (delta, _): (Option<WatchDelta>, _) =
            tracer.time("watch.recv", None, req, || watch.try_recv());
        let delta = delta.expect("every commit changes the feed");
        counts.delta_rows += (delta.added.len() + delta.removed.len()) as u64;
        let (bytes, _) = tracer.time("codec.encode", None, req, || {
            let mut out = Vec::new();
            rel_core::codec::encode_relation(&delta.added, &mut out);
            rel_core::codec::encode_relation(&delta.removed, &mut out);
            out
        });
        counts.delta_bytes += bytes.len() as u64;
        tracer.time("codec.decode", None, req, || {
            let mut r = rel_core::codec::Reader::new(&bytes);
            let added = rel_core::codec::decode_relation(&mut r).expect("decodes");
            let removed = rel_core::codec::decode_relation(&mut r).expect("decodes");
            assert!(
                added == delta.added && removed == delta.removed,
                "codec round trip"
            );
        });
        mirror = delta.apply_to(&mirror);
    }
    let reg1 = metrics::registry().snapshot();
    counts.compiles = rel_sema::compilations() - compiles0;
    counts.wal_bytes = reg1.get("wal_bytes") - reg0.get("wal_bytes");
    counts.fsyncs = reg1.get("fsyncs") - reg0.get("fsyncs");
    let registry = reg1
        .counters
        .iter()
        .map(|&(n, v)| (n, v - reg0.get(n)))
        .collect();
    let transfers = session.db().get("Transfer").cloned().unwrap_or_default();
    drop(watch);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    Replayed {
        transfers,
        mirror,
        tracer,
        counts,
        registry,
    }
}
