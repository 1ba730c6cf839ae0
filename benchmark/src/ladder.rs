//! The single-threaded, fixed-count cost ladder: one canonical two-account
//! transfer priced at every layer of the stack, on every engine, plus the
//! clock under it and the wire codec beside it.
//!
//! Each rung reports nanoseconds per operation (median of five equal chunks)
//! and allocations per operation. The allocation counts repeat exactly from
//! run to run; the times are for reading against each other, not for gating.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use zstm_api::{DynStm, DynVar, Stm, TVar};
use zstm_certify::CertifiedFactory;
use zstm_clock::{ScalarClock, ShardedClock, TimeBase};
use zstm_collections::TMap;
use zstm_core::{RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_server::command::{compile, resolve, Command};
use zstm_server::frame::{encode_request, parse_reply, parse_request, Reply};
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_util::sync::Mutex;
use zstm_util::XorShift64;
use zstm_z::ZStm;

use crate::alloc::thread_allocs;
use crate::stats;
use crate::workloads::distinct_pair;
use crate::workloads::server::{key_name, GET_PCT, KEYS};

const ACCOUNTS: usize = 1_000;
const BALANCE: i64 = 1_000;
const TMAP_BUCKETS: usize = 256;
const CHUNKS: u64 = 5;

/// Iterations per rung; `--smoke` divides them by 100.
struct Counts {
    clock: u64,
    transfer: u64,
    tmap: u64,
    codec: u64,
}

pub type Rungs = Vec<(String, f64)>;

/// `(ns per operation, allocations per operation)` over `count` calls.
fn measure(count: u64, mut op: impl FnMut()) -> (f64, f64) {
    let chunk = (count / CHUNKS).max(1);
    for _ in 0..chunk / 10 {
        op();
    }
    let allocs_before = thread_allocs();
    let per_op: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..chunk {
                op();
            }
            began.elapsed().as_nanos() as f64 / chunk as f64
        })
        .collect();
    let allocs = (thread_allocs() - allocs_before) as f64 / (chunk * CHUNKS) as f64;
    (stats::median(&per_op).expect("five chunks"), allocs)
}

fn push_rung(out: &mut Rungs, layer: &str, engine: &str, (ns, allocs): (f64, f64)) {
    out.push((format!("{layer}_ns.{engine}"), ns));
    out.push((format!("{layer}_allocs.{engine}"), allocs));
}

fn pair(rng: &mut XorShift64) -> (usize, usize) {
    distinct_pair(rng, ACCOUNTS)
}

/// The transfer through the raw engine SPI: `zstm_core::atomically`.
fn spi_transfer<F: TmFactory>(factory: F, count: u64, mut rng: XorShift64) -> (f64, f64) {
    let factory = Arc::new(factory);
    let accounts: Vec<F::Var<i64>> = (0..ACCOUNTS).map(|_| factory.new_var(BALANCE)).collect();
    let mut thread = factory.register_thread();
    let policy = RetryPolicy::unbounded();
    measure(count, || {
        let (from, to) = pair(&mut rng);
        zstm_core::atomically(
            &mut thread,
            TxKind::Short,
            &policy,
            |tx: &mut <F::Thread as TmThread>::Tx<'_>| {
                let a = tx.read(&accounts[from])?;
                let b = tx.read(&accounts[to])?;
                tx.write(&accounts[from], a - 1)?;
                tx.write(&accounts[to], b + 1)
            },
        )
        .expect("uncontended transfer commits");
    })
}

/// The transfer through the typed front end: `Stm<F>` and `TVar`.
fn typed_transfer<F: TmFactory>(factory: F, count: u64, mut rng: XorShift64) -> (f64, f64) {
    let stm = Stm::new(factory);
    let accounts: Vec<TVar<F, i64>> = (0..ACCOUNTS).map(|_| stm.new_tvar(BALANCE)).collect();
    measure(count, || {
        let (from, to) = pair(&mut rng);
        stm.atomically(TxKind::Short, |tx| {
            let a = tx.read(&accounts[from])?;
            let b = tx.read(&accounts[to])?;
            tx.write(&accounts[from], a - 1)?;
            tx.write(&accounts[to], b + 1)
        });
    })
}

/// The transfer through the erased facade: `Arc<dyn DynStm>`.
fn erased_transfer(stm: &Arc<dyn DynStm>, count: u64, mut rng: XorShift64) -> (f64, f64) {
    let accounts: Vec<DynVar> = (0..ACCOUNTS).map(|_| stm.new_i64(BALANCE)).collect();
    let policy = RetryPolicy::unbounded();
    measure(count, || {
        let (from, to) = pair(&mut rng);
        stm.atomically(TxKind::Short, &policy, |tx| {
            let a = tx.read_i64(&accounts[from])?;
            let b = tx.read_i64(&accounts[to])?;
            tx.write_i64(&accounts[from], a - 1)?;
            tx.write_i64(&accounts[to], b + 1)
        })
        .expect("uncontended transfer commits");
    })
}

/// The transfer over a `TMap<u64, i64>` of the same accounts.
fn tmap_transfer(stm: &Arc<dyn DynStm>, count: u64, mut rng: XorShift64) -> (f64, f64) {
    let map: TMap<u64, i64> = TMap::new(&**stm, TMAP_BUCKETS);
    let policy = RetryPolicy::unbounded();
    for account in 0..ACCOUNTS as u64 {
        stm.atomically(TxKind::Short, &policy, |tx| {
            map.insert(tx, &account, &BALANCE)
        })
        .expect("seeding commits");
    }
    measure(count, || {
        let (from, to) = pair(&mut rng);
        let (from, to) = (from as u64, to as u64);
        stm.atomically(TxKind::Short, &policy, |tx| {
            let a = map.get(tx, &from)?.expect("seeded account");
            let b = map.get(tx, &to)?.expect("seeded account");
            map.insert(tx, &from, &(a - 1))?;
            map.insert(tx, &to, &(b + 1))?;
            Ok(())
        })
        .expect("uncontended transfer commits");
    })
}

fn engine_rungs<F: TmFactory>(
    out: &mut Rungs,
    engine: &str,
    counts: &Counts,
    rng: &XorShift64,
    make: impl Fn() -> F,
) {
    let transfers = counts.transfer;
    push_rung(
        out,
        "core.spi_transfer",
        engine,
        spi_transfer(make(), transfers, rng.clone()),
    );
    push_rung(
        out,
        "api.typed_transfer",
        engine,
        typed_transfer(make(), transfers, rng.clone()),
    );
    let erased: Arc<dyn DynStm> = Arc::new(Stm::new(make()));
    push_rung(
        out,
        "api.erased_transfer",
        engine,
        erased_transfer(&erased, transfers, rng.clone()),
    );
    let erased: Arc<dyn DynStm> = Arc::new(Stm::new(make()));
    push_rung(
        out,
        "collections.tmap_transfer",
        engine,
        tmap_transfer(&erased, counts.tmap, rng.clone()),
    );
}

/// The request frames one client of `server_transfer_cs` sends, as argument
/// vectors: a transfer is four frames, a `GET` one.
fn request_stream(rng: &mut XorShift64, operations: usize) -> Vec<Vec<Vec<u8>>> {
    let mut frames = Vec::new();
    for _ in 0..operations {
        if rng.next_percent(GET_PCT) {
            let key = rng.next_range(KEYS as u64) as usize;
            frames.push(vec![b"GET".to_vec(), key_name(key)]);
        } else {
            let (from, to) = distinct_pair(rng, KEYS);
            frames.push(vec![b"MULTI".to_vec()]);
            frames.push(vec![b"ADD".to_vec(), key_name(from), b"-1".to_vec()]);
            frames.push(vec![b"ADD".to_vec(), key_name(to), b"1".to_vec()]);
            frames.push(vec![b"EXEC".to_vec()]);
        }
    }
    frames
}

/// The `frame` and `command` functions of `zstm-server` on that stream, with
/// no socket and no executor: what a request costs before and after the
/// transaction itself.
fn codec_rungs(out: &mut Rungs, count: u64, mut rng: XorShift64) {
    let frames = request_stream(&mut rng, 1_024);
    let args: Vec<Vec<&[u8]>> = frames
        .iter()
        .map(|frame| frame.iter().map(Vec::as_slice).collect())
        .collect();
    let wires: Vec<Vec<u8>> = args.iter().map(|args| encode_request(args)).collect();
    let data: Vec<&Vec<&[u8]>> = args
        .iter()
        .filter(|args| matches!(args[0], b"ADD" | b"GET"))
        .collect();
    let replies: Vec<Reply> = args
        .iter()
        .map(|args| match args[0] {
            b"MULTI" => Reply::status("OK"),
            b"ADD" => Reply::status("QUEUED"),
            b"EXEC" => Reply::Multi(vec![Reply::Int(BALANCE - 1), Reply::Int(BALANCE + 1)]),
            _ => Reply::Value(BALANCE.to_le_bytes().to_vec()),
        })
        .collect();
    let reply_wires: Vec<Vec<u8>> = replies.iter().map(Reply::encode_frame).collect();

    let mut at = 0usize;
    let mut next = |len: usize| {
        at = (at + 1) % len;
        at
    };
    let mut rung = |name: &str, (ns, _): (f64, f64)| out.push((name.to_string(), ns));
    rung(
        "server.encode_request_ns",
        measure(count, || {
            black_box(encode_request(&args[next(args.len())]));
        }),
    );
    rung(
        "server.parse_request_ns",
        measure(count, || {
            black_box(parse_request(&wires[next(wires.len())]).expect("well-formed frame"));
        }),
    );
    rung(
        "server.command_parse_ns",
        measure(count, || {
            black_box(Command::parse(data[next(data.len())]).expect("well-formed command"));
        }),
    );
    rung(
        "server.reply_encode_ns",
        measure(count, || {
            black_box(replies[next(replies.len())].encode_frame());
        }),
    );
    rung(
        "server.parse_reply_ns",
        measure(count, || {
            black_box(parse_reply(&reply_wires[next(reply_wires.len())]).expect("well-formed"));
        }),
    );

    // What `EXEC` does with a queued transfer, in process: resolve the keys,
    // compile the body, run it as one transaction.
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(1))));
    let directory: Mutex<HashMap<Vec<u8>, DynVar>> = Mutex::new(HashMap::new());
    let transfers: Vec<[&Vec<&[u8]>; 2]> = args
        .windows(3)
        .filter(|frames| frames[0][0] == b"MULTI")
        .map(|frames| [&frames[1], &frames[2]])
        .collect();
    let queued = |transfer: &[&Vec<&[u8]>; 2]| -> Vec<Command> {
        transfer
            .iter()
            .map(|args| {
                Command::parse(args)
                    .expect("well-formed command")
                    .expect("a data command")
            })
            .collect()
    };
    rung(
        "server.resolve_compile_ns",
        measure(count, || {
            let commands = queued(&transfers[next(transfers.len())]);
            let plan = resolve(&stm, &directory, commands);
            let _body = black_box(compile(plan, Arc::new(Mutex::new(Vec::new()))));
        }),
    );
    let policy = RetryPolicy::unbounded();
    rung(
        "server.inproc_exec_ns",
        measure(count, || {
            let commands = queued(&transfers[next(transfers.len())]);
            let plan = resolve(&stm, &directory, commands);
            let replies = Arc::new(Mutex::new(Vec::new()));
            let mut body = compile(plan, Arc::clone(&replies));
            stm.atomically_dyn(TxKind::Short, &policy, &mut body)
                .expect("uncontended transfer commits");
            black_box(std::mem::take(&mut *replies.lock()));
        }),
    );
}

/// Runs every rung; the names returned are exactly the ladder's share of
/// `per_layer` in `BENCHMARK.json`.
pub fn run(seed: u64, smoke: bool) -> Rungs {
    // Every traced run climbs the whole ladder, so it has to fit beside the
    // traced windows in the time one run may take.
    let scale = if smoke { 100 } else { 1 };
    let counts = Counts {
        clock: 1_000_000 / scale,
        transfer: 300_000 / scale,
        tmap: 100_000 / scale,
        codec: 100_000 / scale,
    };
    let rng = XorShift64::new(seed ^ 0x1add_e500);
    let mut out = Rungs::new();

    let scalar = ScalarClock::new();
    let (ns, _) = measure(counts.clock, || {
        black_box(scalar.commit_stamp(0));
    });
    out.push(("clock.commit_stamp_ns.scalar".to_string(), ns));
    let sharded = ShardedClock::new(2);
    let (ns, _) = measure(counts.clock, || {
        black_box(sharded.commit_stamp(0));
    });
    out.push(("clock.commit_stamp_ns.sharded".to_string(), ns));

    let config = || StmConfig::new(1);
    engine_rungs(&mut out, "lsa", &counts, &rng, || LsaStm::new(config()));
    engine_rungs(&mut out, "tl2", &counts, &rng, || Tl2Stm::new(config()));
    engine_rungs(&mut out, "cs", &counts, &rng, || {
        CsStm::with_vector_clock(config())
    });
    engine_rungs(&mut out, "sstm", &counts, &rng, || {
        SStm::with_vector_clock(config())
    });
    engine_rungs(&mut out, "z", &counts, &rng, || ZStm::new(config()));

    let certified: Arc<dyn DynStm> =
        Arc::new(Stm::new(CertifiedFactory::new(config(), LsaStm::new)));
    let (ns, _) = erased_transfer(&certified, counts.transfer, rng.clone());
    out.push(("certify.erased_transfer_ns.lsa".to_string(), ns));

    codec_rungs(&mut out, counts.codec, rng);
    out
}
