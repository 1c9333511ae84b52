//! Dependency-free thread-coordination primitives.
//!
//! The sharded network engine crosses a full-fleet barrier on *every*
//! simulated core cycle — tens of thousands of crossings per run.
//! `std::sync::Barrier` parks and wakes threads through a mutex/condvar
//! pair, costing microseconds per crossing; [`SpinBarrier`] keeps the
//! common case (all workers arrive within a cycle's worth of work) down
//! to a handful of atomic operations, falling back to `yield_now` when a
//! straggler keeps the fleet waiting.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A reusable sense-reversing spin barrier.
///
/// All memory writes a thread performs before [`SpinBarrier::wait`] are
/// visible to every other thread after its own `wait` returns (the last
/// arrival's generation bump release-publishes the accumulated
/// release-sequence on the arrival counter), so the sharded engine can
/// exchange its outboxes through plain buffers separated by barrier
/// crossings.
///
/// # Poisoning
///
/// A barrier synchronizes a *fixed* party count, so a thread that dies
/// mid-run (a panic in a worker) would leave every peer spinning forever.
/// [`SpinBarrier::poison`] breaks that wedge: the dying thread records
/// its panic message and raises a flag; every thread inside (or later
/// entering) [`SpinBarrier::wait`] observes the flag and panics with the
/// original message, so the whole fleet unwinds instead of hanging.
///
/// # Example
///
/// ```
/// use simcore::sync::SpinBarrier;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let barrier = SpinBarrier::new(2);
/// let turns = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| {
///             for round in 0..100 {
///                 barrier.wait();
///                 // Everyone agrees on the round count at each crossing.
///                 assert!(turns.load(Ordering::SeqCst) >= round);
///                 turns.fetch_max(round + 1, Ordering::SeqCst);
///             }
///         });
///     }
/// });
/// ```
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    poison_msg: Mutex<Option<String>>,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics when `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            poison_msg: Mutex::new(None),
        }
    }

    /// Marks the barrier as poisoned, recording `msg` (typically the
    /// panic message of the thread that died). The first message wins;
    /// later poisonings keep the original. Every thread currently
    /// spinning in [`SpinBarrier::wait`] — and every thread that calls it
    /// afterwards — panics with that message instead of waiting forever
    /// for a party that will never arrive.
    pub fn poison(&self, msg: &str) {
        {
            let mut slot = self.poison_msg.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(msg.to_string());
            }
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once [`SpinBarrier::poison`] has been called.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Panics with `"worker fleet panicked: <recorded message>"` once the
    /// barrier has been poisoned — what [`SpinBarrier::wait`] checks on
    /// entry and while spinning, and what the thread that owns the fleet
    /// calls after joining it to re-raise a failure its parties caught.
    pub fn raise_if_poisoned(&self) {
        if self.is_poisoned() {
            self.poison_panic();
        }
    }

    #[cold]
    fn poison_panic(&self) -> ! {
        let msg = self
            .poison_msg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_else(|| "unknown panic".to_string());
        panic!("worker fleet panicked: {msg}");
    }

    /// Blocks until all `parties` threads have called `wait` for this
    /// generation. Spins briefly, then yields the CPU while waiting, so
    /// oversubscribed fleets degrade to scheduler fairness instead of
    /// livelock.
    ///
    /// # Panics
    ///
    /// Panics with the recorded message when the barrier has been
    /// [poisoned](SpinBarrier::poison) — on entry or at any point while
    /// spinning, so a fleet whose peer died mid-generation unwinds
    /// instead of hanging.
    pub fn wait(&self) {
        self.raise_if_poisoned();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count *before* releasing the fleet,
            // so early re-entrants of the next generation start from 0.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            // Compare against the entry generation with `!=`, not
            // `== gen + 1`: a fast peer may complete whole generations
            // while this thread is descheduled.
            while self.generation.load(Ordering::Acquire) == gen {
                self.raise_if_poisoned();
                spins = spins.saturating_add(1);
                if spins < 1 << 7 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn phases_are_totally_ordered() {
        // Each thread increments a per-phase counter, then crosses the
        // barrier; after the crossing the counter must read exactly the
        // fleet size — any barrier leak shows up as a partial count. The
        // post-crossing reads also exercise the publication guarantee.
        const THREADS: usize = 4;
        const ROUNDS: usize = 2_000;
        let barrier = SpinBarrier::new(THREADS);
        let counters: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for (round, counter) in counters.iter().enumerate() {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            THREADS,
                            "round {round}: a thread crossed before the fleet arrived"
                        );
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_rejected() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "worker fleet panicked: shard 3 died")]
    fn poisoned_barrier_panics_on_entry() {
        let b = SpinBarrier::new(2);
        b.poison("shard 3 died");
        assert!(b.is_poisoned());
        b.wait();
    }

    #[test]
    fn first_poison_message_wins() {
        let b = SpinBarrier::new(2);
        b.poison("original failure");
        b.poison("secondary failure");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()))
            .expect_err("poisoned wait must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("original failure"), "got: {msg}");
    }

    #[test]
    fn poison_releases_a_spinning_fleet() {
        // One thread parks in wait(); the other never arrives — it
        // poisons instead. The parked thread must unwind with the
        // original message rather than spin forever.
        let b = SpinBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
                let payload = r.expect_err("wait must panic after poison");
                payload
                    .downcast_ref::<String>()
                    .expect("panic carries a String")
                    .clone()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.poison("endpoint exploded");
            let msg = waiter.join().expect("waiter thread itself is healthy");
            assert!(msg.contains("endpoint exploded"), "got: {msg}");
        });
    }
}
