//! The hash-based set: fixed bucket array with per-bucket sorted chains,
//! 8-bit keys, one elided lock. Operations on different buckets touch
//! disjoint memory, so conflicts are rare — the paper's low-contention
//! microbenchmark (Figure 5 c/d).

use crate::{TxSet, NIL};
use tle_base::TCell;
use tle_core::{ElidableMutex, ThreadHandle, TxCtx, TxError};

/// 8-bit keys, per the paper.
const KEY_SPACE: u64 = 256;
const BUCKETS: usize = 64;
const POOL: usize = KEY_SPACE as usize + 128;

struct Node {
    key: TCell<u64>,
    next: TCell<u32>,
}

/// Transactional hash set. See the module docs.
pub struct TxHashSet {
    lock: ElidableMutex,
    buckets: Box<[TCell<u32>]>,
    free: TCell<u32>,
    nodes: Box<[Node]>,
}

impl TxHashSet {
    /// An empty set.
    pub fn new() -> Self {
        let nodes: Box<[Node]> = (0..POOL)
            .map(|i| Node {
                key: TCell::new(0),
                next: TCell::new(if i + 1 < POOL { i as u32 + 1 } else { NIL }),
            })
            .collect();
        TxHashSet {
            lock: ElidableMutex::new("hash-set"),
            buckets: (0..BUCKETS).map(|_| TCell::new(NIL)).collect(),
            free: TCell::new(0),
            nodes,
        }
    }

    #[inline]
    fn bucket_of(key: u64) -> usize {
        // Multiplicative mix so adjacent keys spread.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize & (BUCKETS - 1)
    }

    fn alloc(&self, ctx: &mut TxCtx<'_>) -> Result<u32, TxError> {
        let idx = ctx.read(&self.free)?;
        assert_ne!(idx, NIL, "hash-set node pool exhausted");
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

    /// `(prev, cur, hit)` within `key`'s bucket chain: `cur` is the first
    /// node with `cur.key >= key`, and `hit` says it holds `key`, so no
    /// caller re-reads the key the walk stopped at.
    fn locate(&self, ctx: &mut TxCtx<'_>, key: u64) -> Result<(u32, u32, bool), TxError> {
        let b = &self.buckets[Self::bucket_of(key)];
        let mut prev = NIL;
        let mut cur = ctx.read(b)?;
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

impl Default for TxHashSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TxSet for TxHashSet {
    fn insert(&self, th: &ThreadHandle, key: u64) -> bool {
        debug_assert!(key < KEY_SPACE);
        th.tx(&self.lock).run(|ctx| {
            let (prev, cur, hit) = self.locate(ctx, key)?;
            if hit {
                ctx.no_quiesce();
                return Ok(false);
            }
            let n = self.alloc(ctx)?;
            ctx.write(&self.nodes[n as usize].key, key)?;
            ctx.write(&self.nodes[n as usize].next, cur)?;
            if prev == NIL {
                ctx.write(&self.buckets[Self::bucket_of(key)], n)?;
            } else {
                ctx.write(&self.nodes[prev as usize].next, n)?;
            }
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
                ctx.write(&self.buckets[Self::bucket_of(key)], next)?;
            } else {
                ctx.write(&self.nodes[prev as usize].next, next)?;
            }
            self.release(ctx, cur)?;
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
        for b in self.buckets.iter() {
            let mut cur = b.load_direct();
            while cur != NIL {
                n += 1;
                cur = self.nodes[cur as usize].next.load_direct();
                assert!(n <= POOL, "cycle detected in hash chain");
            }
        }
        n
    }

    fn key_space(&self) -> u64 {
        KEY_SPACE
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::sync::Arc;
    use tle_core::{AlgoMode, TmSystem};

    #[test]
    fn bucket_mapping_is_total_and_stable() {
        for k in 0..KEY_SPACE {
            let b = TxHashSet::bucket_of(k);
            assert!(b < BUCKETS);
            assert_eq!(b, TxHashSet::bucket_of(k));
        }
    }

    #[test]
    fn full_key_space_round_trip() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let s = TxHashSet::new();
        for k in 0..KEY_SPACE {
            assert!(s.insert(&th, k));
        }
        assert_eq!(s.len_direct(), KEY_SPACE as usize);
        for k in 0..KEY_SPACE {
            assert!(s.contains(&th, k));
        }
        for k in (0..KEY_SPACE).rev() {
            assert!(s.remove(&th, k));
        }
        assert_eq!(s.len_direct(), 0);
    }

    #[test]
    fn matches_oracle() {
        testutil::oracle_check(&TxHashSet::new(), 7, 8_000);
    }

    #[test]
    fn concurrent_all_modes() {
        for mode in [
            AlgoMode::Baseline,
            AlgoMode::StmCondvar,
            AlgoMode::StmCondvarNoQuiesce,
            AlgoMode::HtmCondvar,
        ] {
            testutil::concurrent_check(|| Arc::new(TxHashSet::new()), mode);
        }
    }
}
