//! # tle-base — shared primitives for the TLE reproduction stack
//!
//! This crate holds the low-level building blocks that both the software
//! transactional memory (`tle-stm`) and the simulated hardware transactional
//! memory (`tle-htm`) are built from:
//!
//! - [`TxVal`] / [`TCell`] — word-coded transactional memory locations.
//!   Every transactional datum is stored in an `AtomicU64`, which keeps the
//!   whole runtime free of undefined behaviour: the racy access patterns of
//!   word-based STM (doomed readers observing in-flight writer state) become
//!   well-defined races on atomics.
//! - [`Clock`] — the global version clock used by the `ml_wt` STM algorithm.
//! - [`OrecTable`] — the striped ownership-record table (versioned write
//!   locks) indexed by cell address.
//! - [`SlotRegistry`] — a fixed-size registry of per-thread publication
//!   slots, used for quiescence epochs (STM) and transaction identities
//!   (HTM simulation).
//! - [`Gate`] — the global serial-irrevocability gate: irrevocable and
//!   serialized work takes it and sweeps the transactions' own presence
//!   words, transactions only read it (this is the GCC libitm "serial mode"
//!   used both for unsafe operations and as the abort-storm fallback).
//! - [`stats`] — per-slot single-writer statistics rows, per-abort-cause
//!   breakdowns and latency histograms.
//! - [`sets`] — the inline-first transaction sets and the per-thread lease
//!   pool every transaction flavour draws its read/write logs from.
//! - [`trace`] — the one event hook every kernel point calls, and its
//!   diagnostic sink: per-thread event rings for reconstructing whole
//!   elision episodes (enable with the `trace` cargo feature).
//! - [`rng`] — tiny deterministic RNGs (splitmix64 / xorshift64*) used for
//!   seeded workload generation and simulated "event" aborts.
//! - [`fault`] — the deterministic fault-injection oracle consulted at the
//!   runtime's hazard points (always compiled; one relaxed flag load when
//!   no plan is installed).
//! - [`sched`], [`history`], [`mutant`] — the check planes, compiled in
//!   together by the `check` feature: yield points for the deterministic
//!   model-checking scheduler in `tle-check`, the sessions of the opacity
//!   log (the event hook's second sink) feeding the offline checker, and
//!   seeded-bug switches that validate the checker actually catches bugs.
//!   Without `check` all three are empty inline stubs.
//! - [`park`] — the per-thread executor-worker flag, with a debug audit
//!   that executor workers never reach a real OS park.
//! - [`exec`] — the in-tree, dependency-free async executor that the
//!   `run_async` / `try_run_async` entry points in `tle-core` run on.

pub mod abort;
pub mod cell;
pub mod clock;
pub mod exec;
pub mod fault;
pub mod gate;
pub mod history;
pub mod json;
pub mod mutant;
pub mod orec;
pub mod park;
pub mod rng;
pub mod sched;
pub mod sets;
pub mod slots;
pub mod stats;
pub mod trace;
pub mod window;

pub use abort::AbortCause;
pub use cell::{TCell, TxVal};
pub use clock::Clock;
pub use exec::Exec;
pub use gate::Gate;
pub use orec::{OrecTable, OrecValue};
pub use slots::{Slot, SlotRegistry, INACTIVE};
pub use window::{AbortClass, StatWindow, WindowSnapshot, WINDOW_BUCKETS};

/// Size, in bytes, of the cache lines modelled by the HTM simulator and used
/// for padding decisions throughout the workspace.
pub const CACHE_LINE: usize = 64;

/// Round an address down to its cache-line base.
#[inline]
pub fn line_of(addr: usize) -> usize {
    addr / CACHE_LINE
}

/// A `T` padded out to a cache line, to avoid false sharing between
/// per-thread hot words. `crossbeam` has an equivalent type; we keep our own
/// to avoid pulling the dependency into the lowest layer.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct Padded<T>(pub T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Padded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Padded<u8>>(), 64);
        assert!(std::mem::size_of::<Padded<u8>>() >= 64);
    }

    #[test]
    fn line_of_maps_to_64_byte_granules() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(130), 2);
    }
}
