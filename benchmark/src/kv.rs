//! `kv-read` and `kv-write`: closed-loop clients against a preloaded
//! [`ShardedKv`] that fits the private L2, zipf-skewed keys.
//!
//! `kv-read` (95 % get / 5 % put) rides the read-only commit fast path,
//! `no_quiesce` and runner dispatch; quiescence and write locking do little.
//! `kv-write` (50 % get / 30 % put / 20 % remove-then-put) uses the same
//! layers differently: read-write commits, orec acquisition, free-list
//! pushes and pops and the privatization quiescence call — so a read-path
//! gain bought with write-path cost shows there. The gated trials run one
//! client; conflicts and quiescence waits need the second one, which runs in
//! the traced run only (`drive::Load`).
//!
//! The yardstick (`yard::Table`) serves the same request streams.

use crate::drive::{drive, run_clients, Load, Mode, Observe, Ops, Trial, MODES};
use crate::yard::{on_fresh_thread, Table};
use crate::{Sizing, Workload};
use std::sync::Arc;
use std::time::Instant;
use tle_core::{ThreadHandle, TmSystem};
use tle_kv::ShardedKv;

const THETA: f64 = 0.99;
/// Values carry their key in the high bits, so a `get` can tell a value
/// that belongs to another key (or to nobody) from its own.
const TAG_BITS: u32 = 24;

pub fn encode(key: u64, tag: u64) -> u64 {
    (key << TAG_BITS) | (tag & ((1 << TAG_BITS) - 1))
}

/// Value-provenance check: was `val` written for `key`?
pub fn belongs_to(key: u64, val: u64) -> bool {
    val >> TAG_BITS == key
}

pub enum Req {
    Get(u64),
    Put(u64, u64),
    /// Remove the key, then put it back: the store's length is unchanged
    /// once the op returns.
    Replace(u64, u64),
}

/// The harness's own generator (xorshift64): the key streams are inputs,
/// and the yardstick draws from them too, so nothing of the repo may be in
/// them.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Any non-zero state works; spread a small seed over the word.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, n)`, near enough for `n` far below 2^64.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `[0, n)` by inverse-CDF table lookup (rank 0 is the
/// hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let r = rng.unit();
        (self.cdf.partition_point(|&c| c < r) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// What a workload's clients ask for.
#[derive(Clone, Copy)]
struct Mix {
    seed: u64,
    /// Percent of ops that are `put`.
    put_pct: u64,
    /// Percent of ops that are remove-then-put.
    replace_pct: u64,
}

impl Mix {
    /// Client `tid`'s requests in round `round`. Every mode of a round, and
    /// the yardstick, see the same streams.
    fn stream(self, zipf: &Zipf, tid: usize, round: u64) -> Stream<'_> {
        let stream = self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tid as u64;
        Stream {
            zipf,
            rng: Rng::new(stream),
            mix: self,
        }
    }
}

/// One client's stream of requests.
pub struct Stream<'a> {
    zipf: &'a Zipf,
    rng: Rng,
    mix: Mix,
}

impl Stream<'_> {
    #[inline]
    fn next(&mut self, i: u64) -> Req {
        let key = self.zipf.sample(&mut self.rng);
        let coin = self.rng.below(100);
        if coin < self.mix.put_pct {
            Req::Put(key, encode(key, i))
        } else if coin < self.mix.put_pct + self.mix.replace_pct {
            Req::Replace(key, encode(key, i))
        } else {
            Req::Get(key)
        }
    }
}

/// One client of the store under test.
pub struct Client<'a> {
    store: &'a ShardedKv,
    th: &'a ThreadHandle,
    stream: Stream<'a>,
}

impl Ops for Client<'_> {
    type Req = Req;

    #[inline]
    fn prep(&mut self, i: u64) -> Req {
        self.stream.next(i)
    }

    fn span_name(req: &Req) -> &'static str {
        match req {
            Req::Get(_) => "kv.get",
            Req::Put(..) => "kv.put",
            Req::Replace(..) => "kv.remove",
        }
    }

    #[inline]
    fn exec(&mut self, req: Req) -> u64 {
        match req {
            // A miss is legal only while another client is between the two
            // halves of a `Replace` of this key; with no `Replace` in the
            // mix every key is always present.
            Req::Get(k) => match self.store.get(self.th, k) {
                Some(v) => !belongs_to(k, v) as u64,
                None => (self.stream.mix.replace_pct == 0) as u64,
            },
            Req::Put(k, v) => self
                .store
                .put(self.th, k, v)
                .map_or(0, |old| !belongs_to(k, old) as u64),
            Req::Replace(k, v) => {
                let gone = self.store.remove(self.th, k);
                let back = self.store.put(self.th, k, v);
                gone.into_iter()
                    .chain(back)
                    .filter(|&old| !belongs_to(k, old))
                    .count() as u64
            }
        }
    }
}

/// The yardstick's client: the same stream against the `std`-only
/// [`Table`].
struct RefClient<'a> {
    table: &'a mut Table,
    stream: Stream<'a>,
}

impl Ops for RefClient<'_> {
    type Req = Req;

    #[inline]
    fn prep(&mut self, i: u64) -> Req {
        self.stream.next(i)
    }

    fn span_name(_req: &Req) -> &'static str {
        "yard.table"
    }

    /// The same calls and the same checks as [`Client::exec`]; its one
    /// thread never sees a key missing.
    #[inline]
    fn exec(&mut self, req: Req) -> u64 {
        match req {
            Req::Get(k) => self.table.get(k).map_or(1, |v| !belongs_to(k, v) as u64),
            Req::Put(k, v) => self
                .table
                .put(k, v)
                .map_or(0, |old| !belongs_to(k, old) as u64),
            Req::Replace(k, v) => {
                let gone = self.table.remove(k);
                let back = self.table.put(k, v);
                gone.into_iter()
                    .chain(back)
                    .filter(|&old| !belongs_to(k, old))
                    .count() as u64
            }
        }
    }
}

pub struct Backend {
    pub sys: Arc<TmSystem>,
    pub store: ShardedKv,
    /// One registered handle per client thread.
    pub handles: Vec<ThreadHandle>,
}

impl Backend {
    /// A store with every key present, loaded through `mode`'s own path.
    pub fn preloaded(mode: Mode, shards: usize, keys_per_shard: u64) -> Backend {
        let sys = Arc::new(TmSystem::new(mode.algo()));
        let store = ShardedKv::new(shards, keys_per_shard);
        let handles: Vec<ThreadHandle> = (0..Load::Two as usize).map(|_| sys.register()).collect();
        for k in 0..store.total_keys() {
            store.put(&handles[0], k, encode(k, 0));
        }
        Backend {
            sys,
            store,
            handles,
        }
    }

    /// Store-length check: keys present (walks every chain; quiescent only).
    pub fn len(&self) -> u64 {
        self.store
            .shards()
            .iter()
            .map(|s| s.len_direct() as u64)
            .sum()
    }
}

pub struct Kv {
    pub zipf: Arc<Zipf>,
    pub backends: Vec<Arc<Backend>>,
    /// The yardstick's table: the store's shape, the same preload.
    table: Table,
    mix: Mix,
    ops_per_client: u64,
    timed_ops_per_client: u64,
    yard_ops: u64,
}

impl Kv {
    pub fn setup(seed: u64, sz: &Sizing, write_heavy: bool) -> Kv {
        let backends: Vec<Arc<Backend>> = MODES
            .iter()
            .map(|&m| Arc::new(Backend::preloaded(m, sz.kv_shards, sz.kv_keys_per_shard)))
            .collect();
        let (put_pct, replace_pct, ops_per_client) = if write_heavy {
            (30, 20, sz.kv_write_ops)
        } else {
            (5, 0, sz.kv_read_ops)
        };
        let mut table = Table::new(sz.kv_shards, sz.kv_keys_per_shard);
        for k in 0..backends[0].store.total_keys() {
            table.put(k, encode(k, 0));
        }
        let mut w = Kv {
            zipf: Arc::new(Zipf::new(backends[0].store.total_keys(), THETA)),
            backends,
            table,
            mix: Mix {
                seed,
                put_pct,
                replace_pct,
            },
            ops_per_client: sz.warm_ops,
            timed_ops_per_client: sz.kv_timed_ops,
            yard_ops: sz.warm_ops,
        };
        for m in MODES {
            w.trial(m, Load::Two, u64::MAX, Observe::Plain);
        }
        w.yardstick(u64::MAX);
        w.yard_ops = sz.kv_yard_ops;
        w.ops_per_client = ops_per_client;
        w
    }

    pub fn client<'a>(&'a self, b: &'a Backend, tid: usize, round: u64) -> Client<'a> {
        Client {
            store: &b.store,
            th: &b.handles[tid],
            stream: self.mix.stream(&self.zipf, tid, round),
        }
    }
}

impl Workload for Kv {
    fn trial(&mut self, mode: Mode, load: Load, round: u64, observe: Observe<'_>) -> Trial {
        let n = match observe {
            Observe::Timed(_) => self.timed_ops_per_client,
            _ => self.ops_per_client,
        };
        let b = &*self.backends[mode.index()];
        let mut clients: Vec<Client<'_>> = (0..load as usize)
            .map(|tid| self.client(b, tid, round))
            .collect();
        let mut t = run_clients(&mut clients, n, observe);
        t.fails += (b.len() != b.store.total_keys()) as u64;
        t
    }

    fn yardstick(&mut self, round: u64) -> f64 {
        let n = self.yard_ops;
        let mut client = RefClient {
            table: &mut self.table,
            stream: self.mix.stream(&self.zipf, 0, round),
        };
        let (fails, secs) = on_fresh_thread(|| {
            let t0 = Instant::now();
            (
                drive(&mut client, n, Observe::Plain),
                t0.elapsed().as_secs_f64(),
            )
        });
        assert_eq!(fails, 0, "the yardstick's own table lost a value");
        n as f64 / secs
    }

    fn system(&self, mode: Mode) -> &Arc<TmSystem> {
        &self.backends[mode.index()].sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_check_tells_own_values_from_foreign_ones() {
        assert!(belongs_to(7, encode(7, 123)));
        assert!(belongs_to(7, encode(7, u64::MAX)));
        assert!(!belongs_to(7, encode(8, 123)));
        assert!(!belongs_to(7, 0));
    }

    #[test]
    fn a_planted_wrong_value_fails_the_run() {
        let sz = Sizing::quick();
        for write_heavy in [false, true] {
            let mut w = Kv::setup(1, &sz, write_heavy);
            let clean = w.trial(Mode::Stm, Load::Two, 0, Observe::Plain);
            assert_eq!(clean.fails, 0);
            // Key 0 is the hottest zipf rank: give it a value that was
            // written for another key.
            let b = &w.backends[Mode::Stm.index()];
            b.store.put(&b.handles[0], 0, encode(5, 0));
            let t = w.trial(Mode::Stm, Load::One, 1, Observe::Plain);
            assert!(t.fails > 0, "the foreign value went unnoticed");
            let report = crate::tests::report_with(t.ops, t.fails);
            assert!(report.fail_share() > 0.0);
            assert_ne!(report.exit_code(), 0);
        }
    }

    #[test]
    fn a_lost_key_fails_the_length_check() {
        let mut w = Kv::setup(1, &Sizing::quick(), false);
        let b = &w.backends[Mode::Lock.index()];
        // The coldest key: no client will put it back (chance ~1e-5).
        let cold = b.store.total_keys() - 1;
        b.store.remove(&b.handles[0], cold);
        assert_eq!(b.len(), b.store.total_keys() - 1);
        assert!(w.trial(Mode::Lock, Load::One, 0, Observe::Plain).fails > 0);
    }
}
