//! [`SoftTx`]: the algorithm-polymorphic software transaction handed to the
//! TLE runtime. Enum dispatch (not trait objects) keeps the per-access cost
//! at one predictable branch.

use crate::norec::NorecTx;
use crate::tx::StmTx;
use std::sync::atomic::AtomicU64;
use tle_base::{AbortCause, AbortWord, TCell, TxVal};

/// Which software TM algorithm a domain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StmAlgo {
    /// GCC's `ml_wt`: orec-based, write-through, quiescence for
    /// privatization safety. The algorithm of the paper's evaluation.
    MlWt = 0,
    /// NOrec: global sequence lock, value-based validation, write-back;
    /// privatization-safe without any drain. The ablation alternative.
    Norec = 1,
}

impl StmAlgo {
    /// Decode from the atomic representation.
    pub fn from_u8(v: u8) -> Self {
        if v == 1 {
            StmAlgo::Norec
        } else {
            StmAlgo::MlWt
        }
    }

    /// Stable label for benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            StmAlgo::MlWt => "ml_wt",
            StmAlgo::Norec => "NOrec",
        }
    }
}

/// A software transaction of whichever algorithm the domain selected.
pub enum SoftTx<'g> {
    /// An `ml_wt` attempt.
    MlWt(StmTx<'g>),
    /// A NOrec attempt.
    Norec(NorecTx<'g>),
}

// The runner moves this descriptor through its context by value, so its
// size is part of the runner's code shape (see the assertion beside
// `StmTx`).
const _: () = assert!(std::mem::size_of::<SoftTx<'static>>() == 64);

impl<'g> SoftTx<'g> {
    /// Transactionally read a cell.
    #[inline]
    pub fn read<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        match self {
            SoftTx::MlWt(tx) => tx.read(cell),
            SoftTx::Norec(tx) => tx.read(cell),
        }
    }

    /// Transactionally write a cell.
    #[inline]
    pub fn write<T: TxVal>(&mut self, cell: &TCell<T>, v: T) -> Result<(), AbortCause> {
        match self {
            SoftTx::MlWt(tx) => tx.write(cell, v),
            SoftTx::Norec(tx) => tx.write(cell, v),
        }
    }

    /// The read barrier of the word `w` at `addr`; the word or the abort
    /// comes back in a register pair.
    #[inline]
    pub fn read_word(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortWord> {
        match self {
            SoftTx::MlWt(tx) => tx.read_word(w, addr),
            SoftTx::Norec(tx) => tx.read_word(w, addr),
        }
    }

    /// The write barrier of the word `w` at `addr`, word-wide result.
    #[inline]
    pub fn write_word(&mut self, w: &AtomicU64, addr: usize, val: u64) -> Result<(), AbortWord> {
        match self {
            SoftTx::MlWt(tx) => tx.write_word(w, addr, val),
            SoftTx::Norec(tx) => tx.write_word(w, addr, val),
        }
    }

    /// Read-modify-write convenience.
    #[inline]
    pub fn update<T: TxVal>(
        &mut self,
        cell: &TCell<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, AbortCause> {
        match self {
            SoftTx::MlWt(tx) => tx.update(cell, f),
            SoftTx::Norec(tx) => tx.update(cell, f),
        }
    }

    /// `TM_NoQuiesce` (no-op under NOrec, which never drains).
    #[inline]
    pub fn no_quiesce(&mut self) {
        if let SoftTx::MlWt(tx) = self {
            tx.no_quiesce();
        }
    }

    /// Allocator-mandated drain override (no-op under NOrec).
    #[inline]
    pub fn will_free_memory(&mut self) {
        if let SoftTx::MlWt(tx) = self {
            tx.will_free_memory();
        }
    }

    /// Attach the transaction's retry-time budget so the post-commit drain
    /// can observe an overrun (no-op under NOrec, which never drains).
    #[inline]
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        if let SoftTx::MlWt(tx) = self {
            tx.set_deadline(deadline);
        }
    }

    /// Whether this attempt wrote anything.
    #[inline]
    pub fn is_writer(&self) -> bool {
        match self {
            SoftTx::MlWt(tx) => tx.is_writer(),
            SoftTx::Norec(tx) => tx.is_writer(),
        }
    }

    /// Attempt to commit; `Ok` is the nanoseconds the post-commit drain
    /// waited.
    pub fn commit(mut self) -> Result<u64, AbortCause> {
        Ok(self.commit_in_place()?)
    }

    /// Commit without moving the descriptor: `Ok` is the nanoseconds the
    /// post-commit drain waited, and the finished attempt is the caller's
    /// to drop. The result comes back in a register pair.
    #[inline]
    pub fn commit_in_place(&mut self) -> Result<u64, AbortWord> {
        match self {
            SoftTx::MlWt(tx) => tx.commit_in_place(),
            SoftTx::Norec(tx) => tx.commit_in_place(),
        }
    }

    /// Abort this attempt.
    pub fn abort(self, cause: AbortCause) {
        match self {
            SoftTx::MlWt(tx) => tx.abort(cause),
            SoftTx::Norec(tx) => tx.abort(cause),
        }
    }

    /// Withdraw this attempt without counting it ([`StmTx::retire`]).
    pub fn retire(self) {
        match self {
            SoftTx::MlWt(tx) => tx.retire(),
            SoftTx::Norec(tx) => tx.retire(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuiescePolicy, StmGlobal};

    #[test]
    fn algo_u8_roundtrip_and_labels() {
        assert_eq!(StmAlgo::from_u8(StmAlgo::MlWt as u8), StmAlgo::MlWt);
        assert_eq!(StmAlgo::from_u8(StmAlgo::Norec as u8), StmAlgo::Norec);
        assert_eq!(StmAlgo::MlWt.label(), "ml_wt");
        assert_eq!(StmAlgo::Norec.label(), "NOrec");
    }

    #[test]
    fn begin_soft_dispatches_on_domain_algo() {
        for algo in [StmAlgo::MlWt, StmAlgo::Norec] {
            let g = StmGlobal::new(QuiescePolicy::Never);
            g.set_algo(algo);
            let slot = g.slots.register_raw().unwrap();
            let a = TCell::new(1u64);
            let mut tx = g.begin_soft(slot);
            match (&tx, algo) {
                (SoftTx::MlWt(_), StmAlgo::MlWt) | (SoftTx::Norec(_), StmAlgo::Norec) => {}
                _ => panic!("begin_soft ignored the algorithm selection"),
            }
            tx.update(&a, |v| v * 2).unwrap();
            tx.commit().unwrap();
            assert_eq!(a.load_direct(), 2);
            g.slots.unregister_raw(slot);
        }
    }

    #[test]
    fn both_algorithms_retire_without_a_trace() {
        for algo in [StmAlgo::MlWt, StmAlgo::Norec] {
            let g = StmGlobal::new(QuiescePolicy::Never);
            g.set_algo(algo);
            let slot = g.slots.register_raw().unwrap();
            let a = TCell::new(5u64);
            let mut tx = g.begin_soft(slot);
            tx.write(&a, 100u64).unwrap();
            assert!(!g.slots.all_inactive());
            tx.retire();
            assert!(g.slots.all_inactive(), "{algo:?} stayed present");
            assert_eq!(a.load_direct(), 5, "{algo:?} leaked a write");
            let snap = g.stats.snapshot();
            assert_eq!((snap.commits, snap.aborts), (0, 0), "{algo:?}");
            g.slots.unregister_raw(slot);
        }
    }

    #[test]
    fn both_algorithms_roll_back_on_abort() {
        for algo in [StmAlgo::MlWt, StmAlgo::Norec] {
            let g = StmGlobal::new(QuiescePolicy::Never);
            g.set_algo(algo);
            let slot = g.slots.register_raw().unwrap();
            let a = TCell::new(5u64);
            let mut tx = g.begin_soft(slot);
            tx.write(&a, 100u64).unwrap();
            tx.abort(AbortCause::Explicit);
            assert_eq!(a.load_direct(), 5, "{algo:?} leaked a write");
            g.slots.unregister_raw(slot);
        }
    }
}
