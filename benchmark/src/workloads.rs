//! The seven workloads and the one table of sizes.
//!
//! Sizes are constants, not flags: a repetition does a fixed *count* of work
//! (blocks or transactions) over identical pre-generated inputs, so counts
//! made by the program repeat from run to run and only `--seconds` decides how
//! many repetitions a run holds. The full sizes were chosen on the 2-vCPU
//! reference host so that one repetition's timed section takes about 1.5 s.

/// Transaction family of a block workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFamily {
    /// Diem-flavoured peer-to-peer payments (21 reads, 4 writes), uniform
    /// over the account universe: the paper's benchmark transaction.
    P2p,
    /// ETH-style transfers, uniform senders and receivers, the fee credited
    /// to one beneficiary as a commutative delta.
    FeeDelta,
}

/// A closed-loop block workload: one caller hands pre-formed blocks to
/// `execute_block`, block after block, against the fixed pre-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShape {
    /// What the transactions do.
    pub family: BlockFamily,
    /// Size of the account universe; the conflict-share axis.
    pub accounts: u64,
    /// Transactions per block.
    pub block_txns: usize,
    /// Distinct blocks; a repetition executes each exactly once.
    pub distinct_blocks: usize,
    /// Untimed blocks executed before the timed section.
    pub warmup_blocks: usize,
    /// Pre-state in a `LogStore` read through a `BlockCache` instead of RAM.
    pub on_disk: bool,
}

/// A node workload: one generator thread submits an ETH-transfer stream to a
/// running node service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeShape {
    /// Size of the account universe.
    pub accounts: u64,
    /// Untimed transactions submitted (closed loop) before the timed stream.
    pub warmup_txns: usize,
    /// Timed transactions per repetition.
    pub timed_txns: usize,
    /// The node's count cut.
    pub max_block_txns: usize,
    /// The node's age cut, milliseconds.
    pub max_wait_ms: u64,
    /// Mempool capacity bound.
    pub mempool_capacity: usize,
    /// `Some(tps)`: open loop at a fixed rate; `None`: closed loop, as fast
    /// as the mempool admits.
    pub rate_tps: Option<u64>,
    /// Attach a write-behind durability sink over a fresh `LogStore`.
    pub durable: bool,
}

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `execute_block` in a closed loop.
    Block(BlockShape),
    /// The node service under generated traffic.
    Node(NodeShape),
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` selects and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Why the workload exists: which layer does the work, which is bypassed.
    pub why: &'static str,
    /// What it drives.
    pub shape: Shape,
}

/// Which column of the size table a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny sizes for `--smoke` and the self-tests: same code paths, seconds
    /// in total, numbers meaningless.
    Smoke,
}

const NODE_MAX_BLOCK_TXNS: usize = 512;
const NODE_MAX_WAIT_MS: u64 = 5;
const NODE_MEMPOOL_CAPACITY: usize = 8192;
/// The open-loop rate: roughly 40 % of what `node-saturate` sustains on the
/// reference host, so the queue stays bounded and blocks are age-cut.
const PACED_TPS: u64 = 8_000;

fn block(scale: Scale, family: BlockFamily, accounts: u64, full_blocks: usize) -> BlockShape {
    match scale {
        Scale::Full => BlockShape {
            family,
            accounts,
            block_txns: 1_000,
            distinct_blocks: full_blocks,
            warmup_blocks: 3,
            on_disk: false,
        },
        Scale::Smoke => BlockShape {
            family,
            accounts,
            block_txns: 100,
            distinct_blocks: 4,
            warmup_blocks: 1,
            on_disk: false,
        },
    }
}

fn node(scale: Scale, full_txns: usize, rate_tps: Option<u64>, durable: bool) -> NodeShape {
    let (warmup_txns, timed_txns) = match scale {
        Scale::Full => (2_000, full_txns),
        Scale::Smoke => (200, 1_500),
    };
    NodeShape {
        accounts: 1_000,
        warmup_txns,
        timed_txns,
        max_block_txns: NODE_MAX_BLOCK_TXNS,
        max_wait_ms: NODE_MAX_WAIT_MS,
        mempool_capacity: NODE_MEMPOOL_CAPACITY,
        rate_tps,
        durable,
    }
}

/// The seven workloads at `scale`, in reporting order.
pub fn all(scale: Scale) -> Vec<Workload> {
    let lowconf = block(scale, BlockFamily::P2p, 10_000, 12);
    vec![
        Workload {
            name: "p2p-lowconf",
            why: "Paper's headline row: 10k accounts, conflicts rare, so vm and plain mvmemory \
                  read/record/validate do the work; scheduler abort paths are bypassed.",
            shape: Shape::Block(lowconf),
        },
        Workload {
            name: "p2p-hot",
            why: "Paper's contended row: 10 accounts, so scheduler aborts, ESTIMATE waits and \
                  revalidation dominate; a scheduler change moves this, not p2p-lowconf.",
            shape: Shape::Block(block(scale, BlockFamily::P2p, 10, 12)),
        },
        Workload {
            name: "fee-delta",
            why: "Every txn publishes a commutative delta to one beneficiary: mvmemory's lazy \
                  delta chains work here and are bypassed in p2p-*.",
            shape: Shape::Block(block(scale, BlockFamily::FeeDelta, 10_000, 60)),
        },
        Workload {
            name: "p2p-logstore",
            why: "p2p-lowconf's exact blocks with the pre-state on disk behind BlockCache: \
                  persist's read side works; the diff to p2p-lowconf is the disk tier's cost.",
            shape: Shape::Block(BlockShape {
                on_disk: true,
                ..lowconf
            }),
        },
        Workload {
            name: "node-saturate",
            why: "Closed loop, one client as fast as the mempool admits: full count-cut blocks, \
                  so per-txn cost of mempool, former, chain pipelining and sinks sets throughput.",
            shape: Shape::Node(node(scale, 30_000, None, false)),
        },
        Workload {
            name: "node-paced",
            why: "Open loop at 8000 tps: small age-cut blocks, so per-block fixed cost (reset, \
                  gate, sweep, pool wake) sets latency instead of per-txn cost.",
            shape: Shape::Node(node(scale, 12_000, Some(PACED_TPS), false)),
        },
        Workload {
            name: "node-durable",
            why: "node-paced plus a write-behind LogStore sink: persist's write side (append, \
                  batch, fdatasync) works; commit latency should not move, durable latency may.",
            shape: Shape::Node(node(scale, 12_000, Some(PACED_TPS), true)),
        },
    ]
}

/// Looks a workload up by name.
pub fn find(scale: Scale, name: &str) -> Option<Workload> {
    all(scale)
        .into_iter()
        .find(|workload| workload.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_uniquely_named_workloads_at_both_scales() {
        for scale in [Scale::Full, Scale::Smoke] {
            let workloads = all(scale);
            assert_eq!(workloads.len(), 7);
            let mut names: Vec<_> = workloads.iter().map(|w| w.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 7);
            assert!(workloads.iter().all(|w| w.why.len() <= 200));
        }
        assert!(find(Scale::Full, "p2p-hot").is_some());
        assert!(find(Scale::Full, "nope").is_none());
    }

    #[test]
    fn logstore_runs_lowconfs_exact_blocks() {
        let (Shape::Block(ram), Shape::Block(disk)) = (
            find(Scale::Full, "p2p-lowconf").unwrap().shape,
            find(Scale::Full, "p2p-logstore").unwrap().shape,
        ) else {
            panic!("both are block workloads");
        };
        assert_eq!(
            BlockShape {
                on_disk: false,
                ..disk
            },
            ram
        );
    }
}
