//! # tle-txset — the paper's data-structure microbenchmarks
//!
//! §VII-C of the paper studies quiescence overheads on three concurrent set
//! implementations, each protected by a single (elided) lock:
//!
//! - a **list-based set** storing 6-bit keys ([`TxListSet`]) — long
//!   traversals, high conflict probability;
//! - a **hash-based set** storing 8-bit keys ([`TxHashSet`]) — short
//!   disjoint transactions;
//! - a **tree-based set** storing 8-bit keys ([`TxTreeSet`]) — intermediate.
//!
//! All three allocate nodes from **type-stable index-based pools**: nodes
//! are `u32` indices into a fixed slab, the free list is itself
//! transactional state, and a "freed" node is recycled, never deallocated.
//! This is what makes the paper's *NoQ* configuration (globally disabled
//! quiescence) memory-safe to even measure in Rust: a doomed transaction can
//! still read a recycled node's cells — and will abort at its next
//! validation — but can never touch unmapped memory. The paper makes the
//! same point from the other side: GCC's TM-aware allocator *requires*
//! quiescence before memory returns to the OS, which is why even "NoQ"
//! quiesces frees ([`TxCtx::will_free_memory`]).
//!
//! The *SelectNoQ* behaviour (the paper's `TM_NoQuiesce` proposal) is baked
//! into the operations: lookups, failed updates and inserts publish rather
//! than privatize, so they call [`TxCtx::no_quiesce`]; successful removes
//! privatize a node and free it, so they quiesce. The calls take effect
//! only under [`AlgoMode::StmCondvarNoQuiesce`], which is SelectNoQ; the
//! domain's [`QuiescePolicy`](tle_stm::QuiescePolicy) is the NoQ switch.
//!
//! [`AlgoMode::StmCondvarNoQuiesce`]: tle_core::AlgoMode::StmCondvarNoQuiesce
//! [`TxCtx::will_free_memory`]: tle_core::TxCtx::will_free_memory
//! [`TxCtx::no_quiesce`]: tle_core::TxCtx::no_quiesce

mod hash;
mod list;
mod tree;

pub use hash::TxHashSet;
pub use list::TxListSet;
pub use tree::TxTreeSet;

use tle_core::ThreadHandle;

/// Index value meaning "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// The common interface of the three transactional sets.
pub trait TxSet: Send + Sync {
    /// Insert `key`; returns `true` if the set changed.
    fn insert(&self, th: &ThreadHandle, key: u64) -> bool;
    /// Remove `key`; returns `true` if the set changed.
    fn remove(&self, th: &ThreadHandle, key: u64) -> bool;
    /// Membership test.
    fn contains(&self, th: &ThreadHandle, key: u64) -> bool;
    /// Number of keys (non-concurrent: call only while quiescent).
    fn len_direct(&self) -> usize;
    /// The size of the key universe (keys are `0..key_space()`).
    fn key_space(&self) -> u64;
    /// Structure name for benchmark tables.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use tle_base::rng::XorShift64;
    use tle_core::{AlgoMode, TmSystem};

    /// Sequential oracle check: random ops mirrored against a BTreeSet.
    pub fn oracle_check(set: &dyn TxSet, seed: u64, ops: usize) {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let mut oracle = BTreeSet::new();
        let mut rng = XorShift64::new(seed);
        let space = set.key_space();
        for _ in 0..ops {
            let key = rng.below(space);
            match rng.below(3) {
                0 => assert_eq!(
                    set.insert(&th, key),
                    oracle.insert(key),
                    "insert({key}) disagreed with oracle"
                ),
                1 => assert_eq!(
                    set.remove(&th, key),
                    oracle.remove(&key),
                    "remove({key}) disagreed with oracle"
                ),
                _ => assert_eq!(
                    set.contains(&th, key),
                    oracle.contains(&key),
                    "contains({key}) disagreed with oracle"
                ),
            }
        }
        assert_eq!(set.len_direct(), oracle.len());
    }

    /// Concurrent net-count check: per-key insert/remove deltas must match
    /// final membership.
    pub fn concurrent_check(make: impl Fn() -> Arc<dyn TxSet>, mode: AlgoMode) {
        let set = make();
        let sys = Arc::new(TmSystem::new(mode));
        let threads = 4;
        let ops = 3_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = Arc::clone(&set);
                let sys = Arc::clone(&sys);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let mut rng = XorShift64::new(0xBEEF ^ t as u64);
                    let space = set.key_space();
                    // net[key] = inserts_won - removes_won by this thread
                    let mut net = vec![0i64; space as usize];
                    for _ in 0..ops {
                        let key = rng.below(space);
                        match rng.below(3) {
                            0 => {
                                if set.insert(&th, key) {
                                    net[key as usize] += 1;
                                }
                            }
                            1 => {
                                if set.remove(&th, key) {
                                    net[key as usize] -= 1;
                                }
                            }
                            _ => {
                                let _ = set.contains(&th, key);
                            }
                        }
                    }
                    net
                })
            })
            .collect();
        let mut net = vec![0i64; set.key_space() as usize];
        for h in handles {
            for (k, d) in h.join().unwrap().into_iter().enumerate() {
                net[k] += d;
            }
        }
        let sys2 = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys2.register();
        for (k, d) in net.iter().enumerate() {
            assert!(
                *d == 0 || *d == 1,
                "key {k} net count {d} is impossible (successful ops must alternate)"
            );
            assert_eq!(
                set.contains(&th, k as u64),
                *d == 1,
                "membership of {k} disagrees with net op count {d} under {mode:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tle_core::{AlgoMode, TmSystem};

    #[test]
    fn all_sets_expose_paper_key_spaces() {
        assert_eq!(TxListSet::new().key_space(), 64, "6-bit keys");
        assert_eq!(TxHashSet::new().key_space(), 256, "8-bit keys");
        assert_eq!(TxTreeSet::new().key_space(), 256, "8-bit keys");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TxListSet::new().name(), "list");
        assert_eq!(TxHashSet::new().name(), "hash");
        assert_eq!(TxTreeSet::new().name(), "tree");
    }

    #[test]
    fn empty_sets_have_no_members() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let sets: [Box<dyn TxSet>; 3] = [
            Box::new(TxListSet::new()),
            Box::new(TxHashSet::new()),
            Box::new(TxTreeSet::new()),
        ];
        for s in &sets {
            assert_eq!(s.len_direct(), 0);
            for k in [0u64, 1, 5, s.key_space() - 1] {
                assert!(!s.contains(&th, k));
                assert!(!s.remove(&th, k));
            }
        }
    }

    #[test]
    fn sets_work_on_norec_backend() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmNorec));
        let th = sys.register();
        let sets: [Box<dyn TxSet>; 3] = [
            Box::new(TxListSet::new()),
            Box::new(TxHashSet::new()),
            Box::new(TxTreeSet::new()),
        ];
        for s in &sets {
            for k in 0..32u64 {
                assert!(s.insert(&th, k));
            }
            for k in (0..32u64).step_by(2) {
                assert!(s.remove(&th, k));
            }
            assert_eq!(s.len_direct(), 16, "{} under NOrec", s.name());
        }
    }
}
