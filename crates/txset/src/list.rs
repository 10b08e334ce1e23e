//! The list-based set: a sorted singly-linked list over a 6-bit key space,
//! protected by one elided lock. Long traversals make every operation read
//! a prefix of the list, so concurrent writers conflict often — the paper's
//! high-contention microbenchmark (Figure 5 a/b).

use crate::{TxSet, NIL};
use tle_base::TCell;
use tle_core::{ElidableMutex, ThreadHandle, TxCtx, TxError};

/// 6-bit keys, per the paper.
const KEY_SPACE: u64 = 64;
/// Pool capacity: full key space plus recycling slack.
const POOL: usize = KEY_SPACE as usize + 128;

struct Node {
    key: TCell<u64>,
    next: TCell<u32>,
}

/// Transactional sorted-list set. See the module docs.
pub struct TxListSet {
    lock: ElidableMutex,
    head: TCell<u32>,
    free: TCell<u32>,
    nodes: Box<[Node]>,
}

impl TxListSet {
    /// An empty set with all pool nodes on the free list.
    pub fn new() -> Self {
        let nodes: Box<[Node]> = (0..POOL)
            .map(|i| Node {
                key: TCell::new(0),
                next: TCell::new(if i + 1 < POOL { i as u32 + 1 } else { NIL }),
            })
            .collect();
        TxListSet {
            lock: ElidableMutex::new("list-set"),
            head: TCell::new(NIL),
            free: TCell::new(0),
            nodes,
        }
    }

    fn alloc(&self, ctx: &mut TxCtx<'_>) -> Result<u32, TxError> {
        let idx = ctx.read(&self.free)?;
        assert_ne!(idx, NIL, "list-set node pool exhausted");
        let next = ctx.read(&self.nodes[idx as usize].next)?;
        ctx.write(&self.free, next)?;
        Ok(idx)
    }

    fn release(&self, ctx: &mut TxCtx<'_>, idx: u32) -> Result<(), TxError> {
        let f = ctx.read(&self.free)?;
        ctx.write(&self.nodes[idx as usize].next, f)?;
        ctx.write(&self.free, idx)?;
        Ok(())
    }

    /// Find `(prev, cur, hit)` such that `cur` is the first node with
    /// `node.key >= key` (`NIL` allowed on either side) and `hit` says it
    /// holds `key`, so no caller re-reads the key the walk stopped at.
    fn locate(&self, ctx: &mut TxCtx<'_>, key: u64) -> Result<(u32, u32, bool), TxError> {
        let mut prev = NIL;
        let mut cur = ctx.read(&self.head)?;
        while cur != NIL {
            let k = ctx.read(&self.nodes[cur as usize].key)?;
            if k >= key {
                return Ok((prev, cur, k == key));
            }
            prev = cur;
            cur = ctx.read(&self.nodes[cur as usize].next)?;
        }
        Ok((prev, NIL, false))
    }
}

impl Default for TxListSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TxSet for TxListSet {
    fn insert(&self, th: &ThreadHandle, key: u64) -> bool {
        debug_assert!(key < KEY_SPACE);
        th.tx(&self.lock).run(|ctx| {
            let (prev, cur, hit) = self.locate(ctx, key)?;
            if hit {
                // Present: nothing privatized -> no quiescence needed.
                ctx.no_quiesce();
                return Ok(false);
            }
            let n = self.alloc(ctx)?;
            ctx.write(&self.nodes[n as usize].key, key)?;
            ctx.write(&self.nodes[n as usize].next, cur)?;
            if prev == NIL {
                ctx.write(&self.head, n)?;
            } else {
                ctx.write(&self.nodes[prev as usize].next, n)?;
            }
            // Publication, not privatization (paper §IV-B: publication
            // safety holds without the drain).
            ctx.no_quiesce();
            Ok(true)
        })
    }

    fn remove(&self, th: &ThreadHandle, key: u64) -> bool {
        debug_assert!(key < KEY_SPACE);
        th.tx(&self.lock).run(|ctx| {
            let (prev, cur, hit) = self.locate(ctx, key)?;
            if !hit {
                ctx.no_quiesce();
                return Ok(false);
            }
            let next = ctx.read(&self.nodes[cur as usize].next)?;
            if prev == NIL {
                ctx.write(&self.head, next)?;
            } else {
                ctx.write(&self.nodes[prev as usize].next, next)?;
            }
            self.release(ctx, cur)?;
            // Privatizes (and recycles) the node: must quiesce even under
            // TM_NoQuiesce (allocator-mandated drain).
            ctx.will_free_memory();
            Ok(true)
        })
    }

    fn contains(&self, th: &ThreadHandle, key: u64) -> bool {
        debug_assert!(key < KEY_SPACE);
        th.tx(&self.lock).run(|ctx| {
            let (_, _, hit) = self.locate(ctx, key)?;
            ctx.no_quiesce();
            Ok(hit)
        })
    }

    fn len_direct(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load_direct();
        while cur != NIL {
            n += 1;
            cur = self.nodes[cur as usize].next.load_direct();
            assert!(n <= POOL, "cycle detected in list");
        }
        n
    }

    fn key_space(&self) -> u64 {
        KEY_SPACE
    }

    fn name(&self) -> &'static str {
        "list"
    }
}

impl TxListSet {
    /// Test/diagnostic helper: assert sortedness and return the keys.
    pub fn collect_direct(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.head.load_direct();
        while cur != NIL {
            out.push(self.nodes[cur as usize].key.load_direct());
            cur = self.nodes[cur as usize].next.load_direct();
        }
        for w in out.windows(2) {
            assert!(w[0] < w[1], "list keys out of order: {:?}", w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::sync::Arc;
    use tle_core::{AlgoMode, TmSystem};

    #[test]
    fn insert_remove_contains_sequential() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let s = TxListSet::new();
        assert!(s.insert(&th, 5));
        assert!(s.insert(&th, 1));
        assert!(s.insert(&th, 9));
        assert!(!s.insert(&th, 5), "duplicate insert must fail");
        assert_eq!(s.collect_direct(), vec![1, 5, 9]);
        assert!(s.contains(&th, 5));
        assert!(!s.contains(&th, 4));
        assert!(s.remove(&th, 5));
        assert!(!s.remove(&th, 5));
        assert_eq!(s.collect_direct(), vec![1, 9]);
    }

    #[test]
    fn boundary_keys() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let s = TxListSet::new();
        assert!(s.insert(&th, 0));
        assert!(s.insert(&th, 63));
        assert!(s.contains(&th, 0));
        assert!(s.contains(&th, 63));
        assert!(s.remove(&th, 0));
        assert_eq!(s.collect_direct(), vec![63]);
    }

    #[test]
    fn nodes_are_recycled() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let s = TxListSet::new();
        for round in 0..50 {
            for k in 0..KEY_SPACE {
                assert!(s.insert(&th, k), "round {round} insert {k}");
            }
            for k in 0..KEY_SPACE {
                assert!(s.remove(&th, k), "round {round} remove {k}");
            }
        }
        assert_eq!(s.len_direct(), 0);
    }

    #[test]
    fn matches_oracle() {
        testutil::oracle_check(&TxListSet::new(), 42, 5_000);
    }

    #[test]
    fn concurrent_all_modes() {
        for mode in [
            AlgoMode::Baseline,
            AlgoMode::StmCondvar,
            AlgoMode::StmCondvarNoQuiesce,
            AlgoMode::HtmCondvar,
        ] {
            testutil::concurrent_check(|| Arc::new(TxListSet::new()), mode);
        }
    }
}
