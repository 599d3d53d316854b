//! `rel` — command-line interface for rel-rs.
//!
//! ```text
//! rel run program.rel [--db data.csv:Concept ...]   execute a program, print `output`
//! rel check program.rel                             compile only (safety/strata report)
//! rel repl [--db <dir>]                             interactive session; with --db,
//!                                                   durable: commits are logged to a
//!                                                   WAL in <dir> and recovered on the
//!                                                   next start
//! rel connect <host:port>                           remote repl against a running
//!                                                   rel-server (each line is one
//!                                                   transaction over the wire)
//! ```
//!
//! The standard, relational-algebra, linear-algebra and graph libraries
//! are installed in every session.

use rel_core::{Database, RelResult};
use rel_engine::Session;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("connect") => cmd_connect(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  rel run <program.rel> [--db <file.csv>:<Concept> ...]\n  \
                 rel check <program.rel>\n  rel repl [--db <dir>]\n  \
                 rel connect <host:port>"
            );
            2
        }
    };
    std::process::exit(code);
}

fn session_with_libraries(db: Database) -> Session {
    rel_stdlib::with_stdlib(db).with_library(rel_graph::GRAPH_LIB)
}

fn load_databases(args: &[String]) -> RelResult<Database> {
    let mut db = Database::new();
    let mut reg = rel_kg::EntityRegistry::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--db" {
            let spec = args.get(i + 1).cloned().unwrap_or_default();
            let (path, concept) = spec
                .split_once(':')
                .ok_or_else(|| rel_core::RelError::internal("--db expects file.csv:Concept"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| rel_core::RelError::internal(format!("reading {path}: {e}")))?;
            let records = rel_kg::parse_csv(&text)?;
            rel_kg::ingest_records(&mut db, &mut reg, concept, &records)?;
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(db)
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("rel run: missing program file");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rel: cannot read {path}: {e}");
            return 1;
        }
    };
    let db = match load_databases(&args[1..]) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("rel: {e}");
            return 1;
        }
    };
    let mut session = session_with_libraries(db);
    match session.transact(&src) {
        Ok(outcome) => {
            for t in outcome.output.iter() {
                println!("{t}");
            }
            if outcome.inserted + outcome.deleted > 0 {
                eprintln!(
                    "committed: +{} / -{} tuples",
                    outcome.inserted, outcome.deleted
                );
            }
            0
        }
        Err(e) => {
            eprintln!("rel: {e}");
            1
        }
    }
}

fn cmd_check(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("rel check: missing program file");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rel: cannot read {path}: {e}");
            return 1;
        }
    };
    let session = session_with_libraries(Database::new());
    match session.compile(&src) {
        // Analysis covers the whole program and libraries; the module is
        // pruned to what `output`, `insert`/`delete` and the constraints
        // read, so the report counts what a run would evaluate.
        Ok(module) => {
            println!(
                "ok: {} predicates, {} strata evaluated",
                module.rules.len(),
                module.strata.len()
            );
            for (i, s) in module.strata.iter().enumerate() {
                if s.recursive {
                    println!(
                        "  stratum {i}: {:?} ({})",
                        s.preds,
                        if s.monotone { "semi-naive" } else { "partial fixpoint" }
                    );
                }
            }
            0
        }
        Err(e) => {
            eprintln!("rel: {e}");
            1
        }
    }
}

fn cmd_repl(args: &[String]) -> i32 {
    // `rel repl --db <dir>` opens (or creates) a durable store: every
    // committed line is appended to the WAL in <dir>, and restarting the
    // repl on the same directory recovers the full committed history.
    let store = args
        .iter()
        .position(|a| a == "--db")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default());
    let mut session = match store {
        Some(dir) if dir.is_empty() => {
            eprintln!("rel repl: --db expects a store directory");
            return 2;
        }
        Some(dir) => {
            let mut s = match Session::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rel: cannot open durable store {dir}: {e}");
                    return 1;
                }
            };
            if s.is_durable() {
                eprintln!(
                    "rel: durable store {dir} open — {} tuples recovered",
                    s.db().total_tuples()
                );
            }
            s.install_library(&rel_stdlib::full_library());
            s.install_library(rel_graph::GRAPH_LIB);
            s
        }
        None => session_with_libraries(Database::new()),
    };
    // Warm the prepared-module cache: parsing + analyzing the four
    // installed libraries happens here, once. Every input line afterwards
    // re-parses only its own text (the cached library AST is reused), and
    // a *repeated* line is served from the module cache without any
    // compilation at all.
    if let Err(e) = session.prepare("") {
        eprintln!("rel: library failed to compile: {e}");
        return 1;
    }
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    eprintln!(
        "rel repl — enter a full program per line; :profile/:explain <query>, :quit to exit"
    );
    loop {
        eprint!("rel> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => {
                let _ = session.sync();
                return 0;
            }
            Ok(_) => {}
            Err(_) => return 1,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            // Flush batched WAL appends so a durable repl never loses its
            // last few committed lines to the fsync batch window.
            let _ = session.sync();
            return 0;
        }
        // `:profile <query>` / `:explain <query>` evaluate the query
        // read-only under a profile sink and print its QueryProfile —
        // with wall times (:profile) or just the plan shape (:explain).
        if let Some(src) = line.strip_prefix(":profile ") {
            match session.query_profiled(src.trim()) {
                Ok((rows, profile)) => {
                    let _ = writeln!(out, "{rows}");
                    let _ = write!(out, "{}", profile.render());
                }
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        if let Some(src) = line.strip_prefix(":explain ") {
            match session.query_profiled(src.trim()) {
                Ok((_, profile)) => {
                    let _ = write!(out, "{}", profile.explain());
                }
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        // Each line is one transaction: prepare (cached), stage, commit.
        let prepared = match session.prepare(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                continue;
            }
        };
        let mut txn = session.begin();
        let result = txn
            .run_prepared(&prepared, &rel_engine::Params::new())
            .and_then(|_| txn.commit());
        match result {
            Ok(outcome) => {
                let _ = writeln!(out, "{}", outcome.output);
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn cmd_connect(args: &[String]) -> i32 {
    // `rel connect host:port` — the repl loop over the wire: every line
    // is shipped to a running rel-server as one transaction and its
    // `output` relation printed. The server holds the database (and its
    // durability); this process is just a thin rel-client.
    let Some(addr) = args.first() else {
        eprintln!("rel connect: missing server address (host:port)");
        return 2;
    };
    let mut client = match rel_server::Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rel: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    eprintln!(
        "rel connect {addr} — enter a full program per line; :stats, :watch [n] <query>, :quit to exit"
    );
    loop {
        eprint!("rel> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return 0,
            Ok(_) => {}
            Err(_) => return 1,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            return 0;
        }
        // `:stats` — the server's observability surface: engine metrics
        // registry, per-request-type latency, commit queue and pool.
        if line == ":stats" {
            match client.stats() {
                Ok(stats) => {
                    let _ = write!(out, "{}", stats.render());
                }
                Err(e @ rel_server::ClientError::Io(_)) => {
                    eprintln!("rel: connection lost: {e}");
                    return 1;
                }
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        // `:watch <query>` — subscribe and stream pushed deltas forever;
        // `:watch <n> <query>` stops after the initial snapshot plus `n`
        // delta batches (sequence numbers are gapless, so that is
        // "until seq n arrives") and returns to the prompt —
        // deterministic for scripted use (`printf ':watch 1 ...' | rel
        // connect`).
        if let Some(rest) = line.strip_prefix(":watch ") {
            let rest = rest.trim();
            let (limit, src) = match rest.split_once(char::is_whitespace) {
                Some((n, q)) if n.parse::<u64>().is_ok() => {
                    (Some(n.parse::<u64>().expect("checked")), q.trim())
                }
                _ => (None, rest),
            };
            let mut sub = match client.subscribe(src, &rel_engine::Params::new()) {
                Ok(s) => s,
                Err(e @ rel_server::ClientError::Io(_)) => {
                    eprintln!("rel: connection lost: {e}");
                    return 1;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    continue;
                }
            };
            let mut state = rel_core::Relation::new();
            loop {
                let d = match sub.recv() {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("rel: connection lost: {e}");
                        return 1;
                    }
                };
                if d.snapshot && d.seq > 0 {
                    // The server coalesced missed batches (we lagged);
                    // the snapshot replaces the state wholesale.
                    eprintln!("watch: resynced at seq {}", d.seq);
                }
                for t in d.removed.iter() {
                    let _ = writeln!(out, "- {t}");
                }
                for t in d.added.iter() {
                    let _ = writeln!(out, "+ {t}");
                }
                state = d.apply_to(&state);
                eprintln!("watch seq {}: {} rows live", d.seq, state.len());
                let _ = out.flush();
                if limit.is_some_and(|n| d.seq >= n) {
                    break;
                }
            }
            match sub.unsubscribe() {
                Ok(()) => {}
                Err(e @ rel_server::ClientError::Io(_)) => {
                    eprintln!("rel: connection lost: {e}");
                    return 1;
                }
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        match client.transact(line) {
            Ok(outcome) => {
                for t in outcome.output.iter() {
                    let _ = writeln!(out, "{t}");
                }
                if outcome.inserted + outcome.deleted > 0 {
                    eprintln!(
                        "committed: +{} / -{} tuples",
                        outcome.inserted, outcome.deleted
                    );
                }
            }
            // A dropped connection cannot be re-framed; typed server
            // errors leave the session usable.
            Err(e @ rel_server::ClientError::Io(_)) => {
                eprintln!("rel: connection lost: {e}");
                return 1;
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
