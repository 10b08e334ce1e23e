//! Seeded-bug switches for validating the model checker (feature
//! `check`).
//!
//! A checker that has never caught a bug is untested code. This plane lets
//! the `tle-check` test-suite re-introduce, one at a time, the classic TM
//! implementation bugs the kernels guard against, and assert that the
//! explorer + opacity checker flag each of them with a replayable schedule.
//! Each [`Mutant`] names one guard to disable; the kernels consult
//! [`armed`] at the guarded line.
//!
//! Without the `check` feature, [`armed`] is a `const`-foldable
//! `false` and every guard compiles exactly as before — mutants cannot ship.
//! With the feature, arming is a process-global switch, so tests that arm
//! mutants must serialize themselves (the mutation matrix runs in its own
//! integration-test binary for this reason).

use std::fmt;

/// The seeded bugs. Each corresponds to deleting one safety-critical line
/// from a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// `ml_wt` commit skips commit-time read-set validation: a writer whose
    /// read-set was overwritten mid-flight commits anyway (serializability
    /// violation).
    SkipCommitValidation,
    /// `ml_wt` commit skips the post-commit quiescence drain: a privatizing
    /// commit returns while doomed zombies still hold undo state, so their
    /// rollback can clobber post-privatization non-transactional writes
    /// (paper §IV).
    DropQuiesce,
    /// `ml_wt` rollback releases ownership records *before* replaying the
    /// undo log: concurrent readers see clean orecs over still-dirty data
    /// (torn snapshot).
    EarlyOrecRelease,
    /// Condvar notify is dropped on the floor: a committed signal never
    /// wakes the parked waiter (lost-wakeup deadlock).
    LostSignal,
    /// Simulated-HTM read path skips its doom checks: a transaction doomed
    /// by a committing writer keeps reading and can observe a half-published
    /// redo log (zombie torn snapshot).
    SkipDoomCheck,
    /// Lazy-subscription begin skips the held-lock refusal: an elided
    /// section starts (and later commits) although the fallback lock was
    /// held for its entire speculation window, racing the lock holder's
    /// direct writes (Dice et al., naive lazy subscription hazard #1).
    LazyCommitWithLockHeld,
    /// Lazy-mode lock acquisition skips its doom-all sweep: transactions
    /// already speculating when the lock is taken are never doomed and run
    /// on as zombies over the holder's half-written state (hazard #2).
    LazyZombieEscape,
    /// The lazy subscription's window capture is reordered ahead of
    /// transaction begin, so a lock acquired in between sweeps past an
    /// idle slot and the zombie speculates outside the sandbox (the
    /// compiler/hardware reordering hazard, #3).
    LazySubscriptionReorder,
    /// A freshly begun transaction ignores a closed serial gate: it runs on
    /// beside the serial section whose sweep it was supposed to retreat from
    /// (the concurrent half of the presence handshake deleted).
    GateSkipClosedCheck,
    /// Serial entry skips its presence sweep: the serial section starts
    /// while transactions that began before the gate closed are still in
    /// flight (the serial half of the handshake deleted).
    GateSkipSweep,
    /// Simulated-HTM claim-on-update deleted: the read half of an `update`
    /// marks no line, so a writer that commits between the load and the
    /// write claim goes unseen (lost update).
    HtmUpdateSkipsClaim,
    /// Simulated-HTM read-only commit skips its state load: a reader doomed
    /// after its last read commits a snapshot its commit point no longer
    /// sees.
    HtmReadOnlyCommitIgnoresDoom,
    /// Simulated-HTM writer tags: a claim whose writer is past its commit
    /// point reads as ended, so a reader marks the line and loads without
    /// waiting out the writer's half-published redo log (torn snapshot).
    HtmCommittedClaimReadsStale,
}

impl Mutant {
    /// All mutants, for matrix-style tests.
    pub const ALL: [Mutant; 13] = [
        Mutant::SkipCommitValidation,
        Mutant::DropQuiesce,
        Mutant::EarlyOrecRelease,
        Mutant::LostSignal,
        Mutant::SkipDoomCheck,
        Mutant::LazyCommitWithLockHeld,
        Mutant::LazyZombieEscape,
        Mutant::LazySubscriptionReorder,
        Mutant::GateSkipClosedCheck,
        Mutant::GateSkipSweep,
        Mutant::HtmUpdateSkipsClaim,
        Mutant::HtmReadOnlyCommitIgnoresDoom,
        Mutant::HtmCommittedClaimReadsStale,
    ];
}

impl fmt::Display for Mutant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mutant::SkipCommitValidation => "skip-commit-validation",
            Mutant::DropQuiesce => "drop-quiesce",
            Mutant::EarlyOrecRelease => "early-orec-release",
            Mutant::LostSignal => "lost-signal",
            Mutant::SkipDoomCheck => "skip-doom-check",
            Mutant::LazyCommitWithLockHeld => "lazy-commit-with-lock-held",
            Mutant::LazyZombieEscape => "lazy-zombie-escape",
            Mutant::LazySubscriptionReorder => "lazy-subscription-reorder",
            Mutant::GateSkipClosedCheck => "gate-skip-closed-check",
            Mutant::GateSkipSweep => "gate-skip-sweep",
            Mutant::HtmUpdateSkipsClaim => "htm-update-skips-claim",
            Mutant::HtmReadOnlyCommitIgnoresDoom => "htm-read-only-commit-ignores-doom",
            Mutant::HtmCommittedClaimReadsStale => "htm-committed-claim-reads-stale",
        };
        f.write_str(s)
    }
}

/// Whether the mutant switches are compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "check")
}

#[cfg(feature = "check")]
mod imp {
    use super::Mutant;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = none armed; otherwise 1 + index into `Mutant::ALL`.
    static ARMED: AtomicU8 = AtomicU8::new(0);

    fn code(m: Mutant) -> u8 {
        Mutant::ALL.iter().position(|&x| x == m).unwrap() as u8 + 1
    }

    #[inline]
    pub fn armed(m: Mutant) -> bool {
        ARMED.load(Ordering::Relaxed) == code(m)
    }

    #[inline]
    pub fn any_armed() -> bool {
        ARMED.load(Ordering::Relaxed) != 0
    }

    pub fn arm(m: Mutant) {
        ARMED.store(code(m), Ordering::SeqCst);
    }

    pub fn disarm() {
        ARMED.store(0, Ordering::SeqCst);
    }

    pub fn current() -> Option<Mutant> {
        match ARMED.load(Ordering::Relaxed) {
            0 => None,
            n => Some(Mutant::ALL[(n - 1) as usize]),
        }
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    use super::Mutant;

    #[inline(always)]
    pub fn armed(_m: Mutant) -> bool {
        false
    }
    #[inline(always)]
    pub fn any_armed() -> bool {
        false
    }
    pub fn arm(_m: Mutant) {}
    pub fn disarm() {}
    pub fn current() -> Option<Mutant> {
        None
    }
}

/// Is this specific mutant armed? Kernels guard the corresponding line with
/// `if !mutant::armed(..)`. Compiles to `false` without the feature.
#[inline(always)]
pub fn armed(m: Mutant) -> bool {
    imp::armed(m)
}

/// Is any mutant armed? A fast path that serves only the unmutated kernel
/// checks this once and leaves every mutated line to its slow path.
/// Compiles to `false` without the feature.
#[inline(always)]
pub fn any_armed() -> bool {
    imp::any_armed()
}

/// Arm one mutant process-wide (disarming any other). No-op without the
/// feature.
pub fn arm(m: Mutant) {
    imp::arm(m);
}

/// Disarm all mutants.
pub fn disarm() {
    imp::disarm();
}

/// The currently armed mutant, if any.
pub fn current() -> Option<Mutant> {
    imp::current()
}

#[cfg(all(test, not(feature = "check")))]
mod tests_disabled {
    use super::*;

    /// Mirror of `trace::hooks_compile_to_noops_without_feature`: arming is
    /// impossible without the feature.
    #[test]
    fn mutants_cannot_arm_without_feature() {
        assert!(!compiled());
        for m in Mutant::ALL {
            arm(m);
            assert!(!armed(m), "{m} armed despite feature being off");
            assert_eq!(current(), None);
        }
        disarm();
    }
}

#[cfg(all(test, feature = "check"))]
mod tests_enabled {
    use super::*;

    #[test]
    fn arming_is_exclusive() {
        assert!(compiled());
        // Single test touching the global switch in this binary.
        for m in Mutant::ALL {
            arm(m);
            assert!(armed(m));
            assert_eq!(current(), Some(m));
            for other in Mutant::ALL {
                if other != m {
                    assert!(!armed(other), "{other} armed alongside {m}");
                }
            }
        }
        disarm();
        assert_eq!(current(), None);
        for m in Mutant::ALL {
            assert!(!armed(m));
        }
    }
}
