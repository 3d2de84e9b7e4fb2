//! Test-only transactions shared by the engine and adaptive-executor tests.

use block_stm_vm::{ExecutionFailure, StateReader, Transaction, TransactionContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One transaction of [`latch_block`].
pub(crate) struct LatchTxn {
    reader: bool,
    reader_executed: Arc<AtomicBool>,
}

/// A two-transaction block that fails exactly one validation at two workers,
/// with no dependence on thread timing.
///
/// Transaction 0 writes key 0, but its execution first waits (for at most ten
/// seconds) until transaction 1 has executed. Transaction 1 reads key 0 and
/// copies it to key 1, so it reads the pre-block value from storage; its
/// validation fails once transaction 0's write lands. Once transaction 1 has
/// executed the latch stays open, so later runs of the same block (a
/// sequential re-run, say) never wait.
pub(crate) fn latch_block() -> Vec<LatchTxn> {
    let reader_executed = Arc::new(AtomicBool::new(false));
    [false, true]
        .into_iter()
        .map(|reader| LatchTxn {
            reader,
            reader_executed: Arc::clone(&reader_executed),
        })
        .collect()
}

impl Transaction for LatchTxn {
    type Key = u64;
    type Value = u64;

    fn execute<R: StateReader<u64, u64>>(
        &self,
        ctx: &mut TransactionContext<'_, u64, u64, R>,
    ) -> Result<(), ExecutionFailure> {
        if self.reader {
            let value = ctx.read(&0)?.unwrap_or_default();
            ctx.write(1, value);
            self.reader_executed.store(true, Ordering::SeqCst);
        } else {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.reader_executed.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            let value = ctx.read(&0)?.unwrap_or_default();
            ctx.write(0, value + 1);
        }
        Ok(())
    }
}
