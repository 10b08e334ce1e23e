//! The yardsticks: fixed work that uses nothing of the repo (`std` only),
//! timed between the trials of every round. Nothing absolute repeats on the
//! shared host — for minutes at a time everything runs slow — so a trial's
//! throughput is gated as a ratio to the yardstick's own rate next to it
//! (`tput_vs_ref.*`): what slows the host slows both, what slows the code
//! under test slows only the trial.
//!
//! One yardstick per kind of workload, because a slow spell does not hit
//! all work alike: it cost a kv trial (dependent loads over 1 MB) 50–65 %
//! and a compute loop on 256 kB 27 % (README, "Shape"). So each yardstick
//! does its workload's kind of work on its workload's footprint: a locked
//! counter, a locked chained hash table of the store's shape, a suffix sort
//! and move-to-front over one codec block.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Run `pass` on a fresh thread while the caller sleeps, as every trial
/// runs its load (a client thread, a pipeline worker). The host's two
/// virtual cores are not equally fast at every moment, and the guest puts a
/// fresh thread on the idle one: a yardstick on the main thread sat on the
/// other core and read up to 40 % off the trial next to it.
pub fn on_fresh_thread<R: Send>(pass: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(pass).join().expect("yardstick thread panicked"))
}

/// The plainest lock there is; never contended here.
#[derive(Default)]
pub struct SpinLock(AtomicBool);

impl SpinLock {
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        while self.0.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let r = f();
        self.0.store(false, Ordering::Release);
        r
    }
}

/// `elide-1t`'s yardstick: a counter behind a [`SpinLock`].
#[derive(Default)]
pub struct Counter {
    lock: SpinLock,
    cell: AtomicU64,
}

impl Counter {
    /// `n` locked increments; seconds taken.
    pub fn pass(&self, n: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..n {
            self.lock.with(|| {
                let v = self.cell.load(Ordering::Relaxed);
                self.cell.store(v + 1, Ordering::Relaxed);
            });
        }
        t0.elapsed().as_secs_f64()
    }
}

const NIL: u32 = u32::MAX;

struct Node {
    key: u64,
    val: u64,
    next: u32,
}

struct Shard {
    buckets: Vec<u32>,
    nodes: Vec<Node>,
    free: u32,
}

/// The kv workloads' yardstick: a sharded, pooled, chained hash table with
/// the shape of `ShardedKv` (same shard and bucket counts, same node size,
/// sorted chains, a free list), each shard behind a [`SpinLock`].
pub struct Table {
    shards: Vec<(SpinLock, Shard)>,
    keys_per_shard: u64,
}

impl Table {
    pub fn new(shards: usize, keys_per_shard: u64) -> Table {
        let pool = keys_per_shard as usize + 64;
        let buckets = (keys_per_shard as usize / 4).next_power_of_two().max(16);
        let shard = || Shard {
            buckets: vec![NIL; buckets],
            nodes: (0..pool)
                .map(|i| Node {
                    key: 0,
                    val: 0,
                    next: if i + 1 < pool { i as u32 + 1 } else { NIL },
                })
                .collect(),
            free: 0,
        };
        Table {
            shards: (0..shards)
                .map(|_| (SpinLock::default(), shard()))
                .collect(),
            keys_per_shard,
        }
    }

    #[inline]
    fn locked<R>(&mut self, key: u64, f: impl FnOnce(&mut Shard, u64) -> R) -> R {
        let at = (key / self.keys_per_shard) as usize % self.shards.len();
        let (lock, shard) = &mut self.shards[at];
        lock.with(|| f(shard, key % self.keys_per_shard))
    }

    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.locked(key, |s, k| {
            let (_, cur) = s.locate(k);
            (cur != NIL && s.nodes[cur as usize].key == k).then(|| s.nodes[cur as usize].val)
        })
    }

    pub fn put(&mut self, key: u64, val: u64) -> Option<u64> {
        self.locked(key, |s, k| {
            let (prev, cur) = s.locate(k);
            if cur != NIL && s.nodes[cur as usize].key == k {
                return Some(std::mem::replace(&mut s.nodes[cur as usize].val, val));
            }
            let n = s.free;
            assert_ne!(n, NIL, "yardstick node pool exhausted");
            s.free = s.nodes[n as usize].next;
            s.nodes[n as usize] = Node {
                key: k,
                val,
                next: cur,
            };
            *s.link(prev, k) = n;
            None
        })
    }

    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.locked(key, |s, k| {
            let (prev, cur) = s.locate(k);
            if cur == NIL || s.nodes[cur as usize].key != k {
                return None;
            }
            *s.link(prev, k) = s.nodes[cur as usize].next;
            s.nodes[cur as usize].next = s.free;
            s.free = cur;
            Some(s.nodes[cur as usize].val)
        })
    }
}

impl Shard {
    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.buckets.len() - 1)
    }

    /// `(prev, cur)` in `key`'s chain, `cur` the first node with a key
    /// not below `key`.
    fn locate(&self, key: u64) -> (u32, u32) {
        let mut prev = NIL;
        let mut cur = self.buckets[self.bucket_of(key)];
        while cur != NIL && self.nodes[cur as usize].key < key {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        (prev, cur)
    }

    /// The link that points at the node after `prev` in `key`'s chain.
    fn link(&mut self, prev: u32, key: u64) -> &mut u32 {
        if prev == NIL {
            let b = self.bucket_of(key);
            &mut self.buckets[b]
        } else {
            &mut self.nodes[prev as usize].next
        }
    }
}

/// `pbz-pipeline`'s yardstick: what a codec block costs most — sort the
/// suffixes of one block-sized buffer, then move-to-front the byte before
/// each suffix in sorted order.
pub struct Block {
    bytes: Vec<u8>,
    suffixes: Vec<u32>,
}

impl Block {
    /// The same bytes whatever the benchmark's seed.
    pub fn new(len: usize) -> Block {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Block {
            bytes: (0..len).map(|_| (next() % 61) as u8).collect(),
            suffixes: Vec::with_capacity(len),
        }
    }

    /// `n` passes over the block; seconds taken.
    pub fn pass(&mut self, n: u64) -> f64 {
        let bytes = &self.bytes[..];
        let t0 = Instant::now();
        for _ in 0..n {
            self.suffixes.clear();
            self.suffixes.extend(0..bytes.len() as u32);
            self.suffixes
                .sort_unstable_by(|&a, &b| bytes[a as usize..].cmp(&bytes[b as usize..]));
            let mut order: [u8; 64] = std::array::from_fn(|i| i as u8);
            let mut sum = 0u64;
            for &at in &self.suffixes {
                let b = bytes[(at as usize + bytes.len() - 1) % bytes.len()];
                let rank = order.iter().position(|&o| o == b).unwrap();
                order.copy_within(0..rank, 1);
                order[0] = b;
                sum += rank as u64;
            }
            black_box(sum);
        }
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_a_map() {
        let mut t = Table::new(4, 16);
        for k in 0..64 {
            assert_eq!(t.put(k, k * 10), None);
        }
        assert_eq!(t.get(37), Some(370));
        assert_eq!(t.put(37, 1), Some(370));
        assert_eq!(t.remove(37), Some(1));
        assert_eq!(t.get(37), None);
        assert_eq!(t.remove(37), None);
        assert_eq!(t.put(37, 2), None);
        for k in 0..64 {
            assert!(t.get(k).is_some());
        }
    }
}
