//! The load generator: one thread that submits a pre-generated stream either
//! on a schedule (open loop) or as fast as it is admitted (closed loop).
//!
//! Open-loop rules (choosing-metrics §5): every transaction is timed from when
//! it was **due**, not from when it was actually sent, so a stall is charged
//! to every transaction that was due during it; the generator never slows its
//! schedule to match the system; and it reports its own lateness, so a result
//! taken while the generator itself could not keep up is recognisable.
//!
//! The loop is generic over a [`Clock`] so the accounting is testable on a
//! fake clock.

use crate::stamps::{Stage, Stamps};
use std::time::{Duration, Instant};

/// Time source and idle behaviour of the generator.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Called while waiting for `due_ns`; must let time pass.
    fn relax(&self, due_ns: u64);
    /// Called after a refused submission, before retrying.
    fn back_off(&self);
}

/// The real clock: shares the stamp arrays' origin, spin-yields while waiting.
pub struct StampClock<'a> {
    stamps: &'a Stamps,
}

impl<'a> StampClock<'a> {
    /// A clock reading `stamps`' origin.
    pub fn new(stamps: &'a Stamps) -> Self {
        StampClock { stamps }
    }
}

/// How long before a due time the generator stops yielding and only spins.
const SPIN_WINDOW_NS: u64 = 30_000;
/// Back-off after a full mempool refused a submission.
const BACKPRESSURE_BACKOFF: Duration = Duration::from_micros(50);

impl Clock for StampClock<'_> {
    fn now_ns(&self) -> u64 {
        self.stamps.now_ns()
    }

    fn relax(&self, due_ns: u64) {
        if due_ns.saturating_sub(self.now_ns()) > SPIN_WINDOW_NS {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    fn back_off(&self) {
        let until = Instant::now() + BACKPRESSURE_BACKOFF;
        while Instant::now() < until {
            std::thread::yield_now();
        }
    }
}

/// When transaction `index` of the timed stream is due, in nanoseconds after
/// the stream's start; `None` means "as soon as the previous one was admitted"
/// (closed loop).
pub type Schedule<'a> = Option<&'a dyn Fn(u64) -> u64>;

/// The outcome of one `submit` attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted.
    Accepted,
    /// Refused by backpressure; the generator retries the same transaction.
    Full,
}

/// What the generator observed about its own run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeneratorReport {
    /// Per transaction: how long after its due time the first submit attempt
    /// started (open loop only; empty for a closed loop).
    pub lateness_ns: Vec<u64>,
    /// Submissions refused by backpressure (each was retried).
    pub refused: u64,
    /// Stamp of the first submit attempt.
    pub first_submit_ns: u64,
}

/// Submits ids `ids` through `submit`, stamping `Due` (always) and
/// `SubmitStart` / `SubmitEnd` (when `traced`) into `stamps`.
///
/// `between` runs once per wait iteration and once per submission — the
/// generator's hook for sampling state (the durable watermark) without a
/// second thread.
pub fn drive<C: Clock>(
    clock: &C,
    stamps: &Stamps,
    ids: std::ops::Range<u64>,
    schedule: Schedule<'_>,
    traced: bool,
    mut submit: impl FnMut(u64) -> Admission,
    mut between: impl FnMut(u64),
) -> GeneratorReport {
    let mut report = GeneratorReport {
        lateness_ns: Vec::with_capacity(if schedule.is_some() {
            (ids.end - ids.start) as usize
        } else {
            0
        }),
        ..GeneratorReport::default()
    };
    let start_ns = clock.now_ns();
    let first_id = ids.start;
    for id in ids {
        let mut now = clock.now_ns();
        let due_ns = match schedule {
            Some(offset) => {
                let due_ns = start_ns + offset(id - first_id);
                while now < due_ns {
                    between(now);
                    clock.relax(due_ns);
                    now = clock.now_ns();
                }
                report.lateness_ns.push(now - due_ns);
                due_ns
            }
            None => now,
        };
        stamps.set(Stage::Due, id, due_ns);
        if id == first_id {
            report.first_submit_ns = now;
        }
        if traced {
            stamps.set(Stage::SubmitStart, id, now);
        }
        while submit(id) == Admission::Full {
            report.refused += 1;
            clock.back_off();
            between(clock.now_ns());
        }
        if traced {
            stamps.set(Stage::SubmitEnd, id, clock.now_ns());
        }
        between(clock.now_ns());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: `relax` advances it by one
    /// microsecond, `back_off` by fifty.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn relax(&self, _due_ns: u64) {
            self.now.set(self.now.get() + 1_000);
        }
        fn back_off(&self) {
            self.now.set(self.now.get() + 50_000);
        }
    }

    /// 10 000 tps: one transaction every 100 µs.
    fn every_100us(index: u64) -> u64 {
        index * 100_000
    }

    #[test]
    fn open_loop_stamps_due_times_from_the_schedule_not_from_the_send() {
        let clock = FakeClock {
            now: Cell::new(5_000),
        };
        let stamps = Stamps::new(8);
        // Submitting id 2 stalls the generator for 350 µs: ids 3, 4 and 5 fall
        // due during the stall and are sent late.
        let report = drive(
            &clock,
            &stamps,
            0..8,
            Some(&every_100us),
            true,
            |id| {
                if id == 2 {
                    clock.now.set(clock.now.get() + 350_000);
                }
                Admission::Accepted
            },
            |_| {},
        );
        for id in 0..8 {
            assert_eq!(
                stamps.get(Stage::Due, id),
                5_000 + id * 100_000,
                "due time of {id} follows the schedule regardless of the stall"
            );
        }
        assert_eq!(report.first_submit_ns, 5_000);
        assert_eq!(report.lateness_ns[..3], [0, 0, 0]);
        // The stall ends at 5_000 + 200_000 + 350_000 = 555_000.
        assert_eq!(report.lateness_ns[3], 555_000 - 305_000);
        assert_eq!(report.lateness_ns[4], 555_000 - 405_000);
        assert_eq!(report.lateness_ns[5], 555_000 - 505_000);
        assert_eq!(report.lateness_ns[6..], [0, 0], "the generator caught up");
        // A latency taken from the due stamp charges the stall to id 3; one
        // taken from the actual send would hide it.
        let sent_3 = stamps.get(Stage::SubmitStart, 3);
        assert_eq!(sent_3 - stamps.get(Stage::Due, 3), 250_000);
        assert_eq!(report.refused, 0);
    }

    #[test]
    fn backpressure_is_retried_counted_and_charged_to_the_transaction() {
        let clock = FakeClock { now: Cell::new(0) };
        let stamps = Stamps::new(3);
        let mut refusals_left = 2;
        let mut sampled = 0u32;
        let report = drive(
            &clock,
            &stamps,
            0..3,
            Some(&every_100us),
            true,
            |id| {
                if id == 1 && refusals_left > 0 {
                    refusals_left -= 1;
                    Admission::Full
                } else {
                    Admission::Accepted
                }
            },
            |_| sampled += 1,
        );
        assert_eq!(report.refused, 2);
        assert_eq!(stamps.get(Stage::Due, 1), 100_000);
        assert_eq!(
            stamps.get(Stage::SubmitEnd, 1),
            200_000,
            "two 50 µs back-offs before admission"
        );
        assert_eq!(
            sampled,
            100 + 2 + 3,
            "the hook runs per wait iteration, per retry and per submission"
        );
    }

    #[test]
    fn closed_loop_is_due_when_the_previous_submission_returns() {
        let clock = FakeClock { now: Cell::new(0) };
        let stamps = Stamps::new(3);
        let report = drive(
            &clock,
            &stamps,
            0..3,
            None,
            false,
            |_| {
                clock.now.set(clock.now.get() + 7_000);
                Admission::Accepted
            },
            |_| {},
        );
        assert_eq!(
            [0, 1, 2].map(|id| stamps.get(Stage::Due, id)),
            [0, 7_000, 14_000]
        );
        assert!(report.lateness_ns.is_empty());
        assert_eq!(
            stamps.get(Stage::SubmitStart, 0),
            crate::stamps::UNSET,
            "submit stamps are taken only in a traced repetition"
        );
    }
}
