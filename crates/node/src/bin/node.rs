//! The node binary: replay an account-model workload against a running
//! [`Node`] as open-loop traffic and report what happened.
//!
//! Transactions are generated up front (nonce-consecutive per sender), given
//! arrival offsets by a deterministic [`ArrivalProcess`], and submitted when
//! the wall clock reaches each offset. A full mempool is backpressure, not
//! loss: the driver retries until admitted (counting the retries), because
//! dropping a transaction would leave a nonce gap that aborts every later
//! transaction from the same sender.
//!
//! ```text
//! node [--workload eth|erc20] [--accounts N] [--txns N]
//!      [--arrival fixed:<tps>|burst:<size>:<interval_ms>]
//!      [--threads N] [--block-txns N] [--max-wait-ms N] [--mempool N]
//!      [--snapshot-ms N|--no-snapshots]
//! ```
//!
//! Exit status is non-zero if any transaction failed to commit exactly once
//! or the conservation oracle rejects the committed stream.

use block_stm::Vm;
use block_stm_node::{Node, NodeError};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_vm::Transaction;
use block_stm_workloads::accounts::AccountTransaction;
use block_stm_workloads::{ArrivalProcess, ConservationOracle, Erc20Workload, EthTransferWorkload};
use std::time::{Duration, Instant};

struct Options {
    workload: String,
    accounts: u64,
    txns: usize,
    arrival: ArrivalProcess,
    threads: Option<usize>,
    block_txns: usize,
    max_wait: Duration,
    mempool: usize,
    snapshot_every: Option<Duration>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: "eth".into(),
            accounts: 1024,
            txns: 20_000,
            arrival: ArrivalProcess::FixedRate { tps: 50_000 },
            threads: None,
            block_txns: 512,
            max_wait: Duration::from_millis(10),
            mempool: 8192,
            snapshot_every: Some(Duration::from_secs(1)),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: node [--workload eth|erc20] [--accounts N] [--txns N] \
         [--arrival fixed:<tps>|burst:<size>:<interval_ms>] [--threads N] \
         [--block-txns N] [--max-wait-ms N] [--mempool N] \
         [--snapshot-ms N|--no-snapshots]"
    );
    std::process::exit(2);
}

fn parse_arrival(spec: &str) -> Option<ArrivalProcess> {
    let mut parts = spec.split(':');
    match parts.next()? {
        "fixed" => Some(ArrivalProcess::FixedRate {
            tps: parts.next()?.parse().ok()?,
        }),
        "burst" => Some(ArrivalProcess::Bursty {
            burst_size: parts.next()?.parse().ok()?,
            burst_interval: Duration::from_millis(parts.next()?.parse().ok()?),
        }),
        _ => None,
    }
}

fn parse_options() -> Options {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--workload" => options.workload = value(&mut args),
            "--accounts" => options.accounts = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--txns" => options.txns = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--arrival" => {
                options.arrival = parse_arrival(&value(&mut args)).unwrap_or_else(|| usage())
            }
            "--threads" => {
                options.threads = Some(value(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--block-txns" => {
                options.block_txns = value(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--max-wait-ms" => {
                options.max_wait =
                    Duration::from_millis(value(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--mempool" => options.mempool = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--snapshot-ms" => {
                options.snapshot_every = Some(Duration::from_millis(
                    value(&mut args).parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--no-snapshots" => options.snapshot_every = None,
            _ => usage(),
        }
    }
    options
}

/// Drives the node with the generated transactions on the arrival schedule,
/// shuts it down, audits the result, and returns the process exit code.
fn run<T>(
    options: &Options,
    genesis: InMemoryStorage<AccessPath, StateValue>,
    txns: Vec<T>,
    oracle: ConservationOracle,
) -> i32
where
    T: Transaction<Key = AccessPath, Value = StateValue> + AccountTransaction + Clone + 'static,
{
    let mut builder = Node::builder(Vm::for_testing(), genesis.clone())
        .mempool_capacity(options.mempool)
        .max_block_txns(options.block_txns)
        .max_wait(options.max_wait);
    if let Some(threads) = options.threads {
        builder = builder.concurrency(threads);
    }
    if let Some(every) = options.snapshot_every {
        builder = builder.snapshot_every(every);
    }
    let node = match builder.start() {
        Ok(node) => node,
        Err(err) => {
            eprintln!("node failed to start: {err}");
            return 1;
        }
    };

    let handle = node.handle();
    let schedule = options.arrival.schedule(txns.len());
    let start = Instant::now();
    let mut full_retries = 0u64;
    for (txn, offset) in txns.into_iter().zip(schedule) {
        if let Some(wait) = offset.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        loop {
            match handle.submit(txn.clone()) {
                Ok(_) => break,
                Err(NodeError::MempoolFull { .. }) => {
                    // Backpressure: never drop (nonce gaps poison the rest of
                    // the sender's stream), retry until the former drains.
                    full_retries += 1;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(err) => {
                    eprintln!("submission failed: {err}");
                    return 1;
                }
            }
        }
    }

    let report = match node.shutdown() {
        Ok(report) => report,
        Err(err) => {
            eprintln!("shutdown failed: {err}");
            return 1;
        }
    };

    println!("{}", report.snapshot.to_json());
    let wall = start.elapsed();
    println!(
        "# committed {} txns in {} blocks over {:.3}s ({:.0} tps), {} full-mempool retries",
        report.snapshot.committed_txns,
        report.snapshot.formed_blocks,
        wall.as_secs_f64(),
        report.snapshot.committed_txns as f64 / wall.as_secs_f64(),
        full_retries,
    );

    if !report.committed_exactly_once() {
        eprintln!("FAIL: commit audit: not every transaction committed exactly once");
        return 1;
    }
    // Re-judge the committed stream block by block against the evolving
    // pre-state, exactly as the conformance tests do.
    let mut pre = genesis;
    for (block, output) in report.blocks.iter().zip(&report.outputs) {
        if let Err(err) = oracle.check(&pre, block, &output.updates, &output.outputs) {
            eprintln!("FAIL: conservation oracle: {err}");
            return 1;
        }
        pre.apply_updates(output.updates.iter().cloned());
    }
    println!(
        "# conservation oracle passed on {} blocks",
        report.outputs.len()
    );
    0
}

fn main() {
    let options = parse_options();
    let code = match options.workload.as_str() {
        "eth" => {
            let workload = EthTransferWorkload::new(options.accounts, options.txns);
            let (genesis, txns) = workload.generate();
            let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
            run(&options, genesis, txns, oracle)
        }
        "erc20" => {
            let workload = Erc20Workload::new(options.accounts, options.txns);
            let (genesis, txns) = workload.generate();
            let oracle = ConservationOracle::new()
                .with_beneficiary(workload.beneficiary())
                .with_token(workload.token);
            run(&options, genesis, txns, oracle)
        }
        _ => usage(),
    };
    std::process::exit(code);
}
