//! Abort causes shared by the STM and the HTM simulator.

/// Why a transaction attempt failed. Returned as `Err(cause)` from the
/// typed transactional reads/writes/commits (the word-level barriers return
/// it widened, as an [`AbortWord`]); the runner in `tle-core` maps causes
/// to retry/backoff/fallback policy, and the statistics layer
/// ([`crate::stats::TxStats`]) counts every abort under its cause so the
/// paper's Figure-4-style breakdowns are measured rather than inferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortCause {
    /// STM: a read found the orec locked by another transaction.
    ReadConflict = 0,
    /// STM: a write could not acquire the orec.
    WriteConflict = 1,
    /// STM: read-set validation failed mid-transaction (at a timestamp
    /// extension or a NOrec snapshot revalidation).
    ValidationFailed = 2,
    /// STM: commit-time validation failed — the read set was consistent
    /// throughout the body but a concurrent commit invalidated it between
    /// the last access and the commit point.
    CommitValidation = 3,
    /// HTM: this transaction was doomed by a conflicting access (the
    /// cache-coherence invalidation model).
    Conflict = 4,
    /// HTM: the read- or write-set exceeded simulated cache capacity.
    Capacity = 5,
    /// HTM: a simulated asynchronous event (interrupt, SMI) flushed the
    /// transactional state.
    Event = 6,
    /// The transaction executed an operation that cannot run transactionally
    /// (irrevocable I/O, syscall); must be retried in serial mode.
    Unsafe = 7,
    /// The program explicitly cancelled the transaction (includes drops of
    /// live transactions, e.g. a panic unwinding through the closure).
    Explicit = 8,
}

impl AbortCause {
    /// Number of distinct causes (array-indexing bound for per-cause
    /// counters).
    pub const COUNT: usize = 9;

    /// Every cause, in discriminant order (statistics tables iterate this).
    pub const ALL: [AbortCause; Self::COUNT] = [
        AbortCause::ReadConflict,
        AbortCause::WriteConflict,
        AbortCause::ValidationFailed,
        AbortCause::CommitValidation,
        AbortCause::Conflict,
        AbortCause::Capacity,
        AbortCause::Event,
        AbortCause::Unsafe,
        AbortCause::Explicit,
    ];

    /// Dense index for per-cause counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as u8 as usize
    }

    /// Decode from the wire/trace representation.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Short stable label for statistics tables.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::ReadConflict => "read-conflict",
            AbortCause::WriteConflict => "write-conflict",
            AbortCause::ValidationFailed => "validation",
            AbortCause::CommitValidation => "commit-validation",
            AbortCause::Conflict => "conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::Event => "event",
            AbortCause::Unsafe => "unsafe",
            AbortCause::Explicit => "explicit",
        }
    }

    /// Whether retrying the same transaction concurrently can possibly
    /// succeed. `Unsafe` deterministically fails until serialized; real RTM
    /// reports the same through the `XABORT`/retry-bit convention.
    pub fn retry_may_succeed(self) -> bool {
        !matches!(self, AbortCause::Unsafe)
    }
}

/// An [`AbortCause`] widened to a machine word: the error of every
/// out-of-line barrier and commit.
///
/// `Result<u64, AbortCause>` puts the value at offset 8 and the one-byte
/// cause at offset 1, so it is no scalar pair and rustc returns it through
/// a stack slot in the caller. With the cause a whole word at the value's
/// offset, `Result<u64, AbortWord>` (and `Result<(), AbortWord>`) come back
/// in a register pair. A stored cause stays one byte: the word exists only
/// in flight, and converts back to the cause where it leaves the
/// transactional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct AbortWord(u64);

impl AbortWord {
    /// The cause this word carries.
    #[inline(always)]
    pub fn cause(self) -> AbortCause {
        debug_assert!((self.0 as usize) < AbortCause::COUNT);
        // SAFETY: the field is private and only `From<AbortCause>` writes
        // it, with a valid `#[repr(u8)]` discriminant.
        unsafe { std::mem::transmute::<u8, AbortCause>(self.0 as u8) }
    }
}

impl From<AbortCause> for AbortWord {
    #[inline(always)]
    fn from(c: AbortCause) -> Self {
        AbortWord(c as u8 as u64)
    }
}

impl From<AbortWord> for AbortCause {
    #[inline(always)]
    fn from(w: AbortWord) -> Self {
        w.cause()
    }
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            AbortCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), AbortCause::ALL.len());
    }

    #[test]
    fn only_unsafe_is_deterministic() {
        assert!(!AbortCause::Unsafe.retry_may_succeed());
        assert!(AbortCause::Conflict.retry_may_succeed());
        assert!(AbortCause::Capacity.retry_may_succeed());
        assert!(AbortCause::CommitValidation.retry_may_succeed());
    }

    #[test]
    fn index_and_u8_roundtrip() {
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(AbortCause::from_u8(i as u8), Some(*c));
        }
        assert_eq!(AbortCause::from_u8(AbortCause::COUNT as u8), None);
        assert_eq!(AbortCause::ALL.len(), AbortCause::COUNT);
    }

    #[test]
    fn every_cause_round_trips_through_its_word() {
        for c in AbortCause::ALL {
            let w = AbortWord::from(c);
            assert_eq!(w.cause(), c);
            assert_eq!(AbortCause::from(w), c);
        }
        assert_eq!(std::mem::size_of::<AbortCause>(), 1);
        assert_eq!(std::mem::size_of::<AbortWord>(), 8);
        // The in-flight shapes a register pair carries.
        assert_eq!(std::mem::size_of::<Result<u64, AbortWord>>(), 16);
        assert_eq!(std::mem::size_of::<Result<(), AbortWord>>(), 16);
    }
}
