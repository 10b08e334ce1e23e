//! The per-layer ladder: fixed-count single-thread loops over the public
//! functions of each crate, reported as ns/op so that adjacent rows subtract
//! into one layer's own cost (`core.run.stm.ns` − `stm.tx_rw.ns` is the
//! runner's dispatch; `kv.get.ns.stm` − `core.run.stm.ns` is what a kv op
//! adds on top of an elided section). One [`Ladder::pass`] measures every
//! row once; the caller repeats passes and keeps medians. The rows do not
//! depend on the workload being run.

use crate::drive::{drive, Load, Mode, Observe, MODES};
use crate::kv::{belongs_to, encode, Kv, Rng};
use crate::pbz::{pipeline_config, staged_block, BLOCK};
use crate::spans::{self, Tracer};
use crate::Sizing;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tle_base::exec::{yield_now, Exec};
use tle_base::{OrecTable, TCell};
use tle_core::{AlgoMode, ElidableMutex, ThreadHandle, TmSystem, TxCondvar};
use tle_htm::{HtmConfig, HtmGlobal};
use tle_pbz::{compress_block, compress_parallel, gen_text, TleFifo};
use tle_stm::{QuiescePolicy, StmGlobal};
use tle_txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};

/// Async sessions multiplexed on the executor's two workers.
const SESSIONS: u64 = 32;
const YIELD_EVERY: u64 = 64;

/// One `(metric name, value)` per row.
pub type Rows = Vec<(String, f64)>;

fn ns_per(n: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// An uncontended counter behind an elidable lock on its own system.
struct Section {
    th: ThreadHandle,
    lock: ElidableMutex,
    cell: TCell<u64>,
}

impl Section {
    fn new(sys: TmSystem) -> Arc<Section> {
        Arc::new(Section {
            th: Arc::new(sys).register(),
            lock: ElidableMutex::new("ladder"),
            cell: TCell::new(0),
        })
    }

    fn run(&self, n: u64) -> f64 {
        ns_per(n, || {
            for _ in 0..n {
                black_box(
                    self.th
                        .tx(&self.lock)
                        .run(|ctx| ctx.update(&self.cell, |v| v + 1)),
                );
            }
        })
    }
}

pub struct Ladder {
    n: u64,
    /// The calibrated duration of an empty span.
    pub span_overhead_ns: f64,
    base: Instant,
    orecs: OrecTable,
    stm: StmGlobal,
    stm_quiesce: StmGlobal,
    htm: HtmGlobal,
    runs: BTreeMap<&'static str, Arc<Section>>,
    deadline: Arc<Section>,
    exec: Exec,
    sets: Vec<(&'static str, Box<dyn TxSet>)>,
    set_th: ThreadHandle,
    kv: Kv,
    keys: Vec<u64>,
    block: Vec<u8>,
    mini: Vec<u8>,
    pbz_sys: Arc<TmSystem>,
    fifo: TleFifo<u64>,
    /// Failed checks seen by ladder rows (a `TxError` from `try_run`, a
    /// foreign value from a kv row).
    pub fails: u64,
}

impl Ladder {
    pub fn new(seed: u64, sz: &Sizing, base: Instant) -> Ladder {
        let kv = Kv::setup(seed, sz, false);
        let mut rng = Rng::new(seed ^ 0x1ADD);
        let keys = (0..sz.ladder_ops)
            .map(|_| kv.zipf.sample(&mut rng))
            .collect();
        let set_sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let set_th = set_sys.register();
        let sets: Vec<(&'static str, Box<dyn TxSet>)> = vec![
            ("list", Box::new(TxListSet::new())),
            ("hash", Box::new(TxHashSet::new())),
            ("tree", Box::new(TxTreeSet::new())),
        ];
        for (_, s) in &sets {
            for k in (0..s.key_space()).step_by(2) {
                s.insert(&set_th, k);
            }
        }
        Ladder {
            n: sz.ladder_ops,
            span_overhead_ns: spans::calibrate_overhead(base),
            base,
            orecs: OrecTable::new(),
            stm: StmGlobal::new(QuiescePolicy::Never),
            stm_quiesce: StmGlobal::new(QuiescePolicy::Always),
            htm: HtmGlobal::new(HtmConfig::default()),
            runs: [
                ("lock", AlgoMode::Baseline),
                ("stm", AlgoMode::StmCondvar),
                ("stm_noquiesce", AlgoMode::StmCondvarNoQuiesce),
                ("htm", AlgoMode::HtmCondvar),
                ("adaptive_htm", AlgoMode::AdaptiveHtm),
                ("adaptive_htm_lazy", AlgoMode::AdaptiveHtmLazy),
            ]
            .into_iter()
            .map(|(name, mode)| (name, Section::new(TmSystem::new(mode))))
            .collect(),
            deadline: Section::new(
                TmSystem::builder()
                    .mode(AlgoMode::StmCondvar)
                    .admission(true)
                    .build(),
            ),
            exec: Exec::new(2),
            sets,
            set_th,
            kv,
            keys,
            block: gen_text(seed, BLOCK),
            mini: gen_text(seed ^ 1, BLOCK * sz.ladder_pbz_blocks),
            pbz_sys: Arc::new(TmSystem::new(AlgoMode::StmCondvar)),
            fifo: TleFifo::new("ladder-fifo", 4),
            fails: 0,
        }
    }

    /// Measure every row once.
    pub fn pass(&mut self, pass: u64) -> Rows {
        let mut rows = Rows::new();
        self.base_rows(&mut rows);
        let stm_rw = self.stm_rows(&mut rows);
        let htm_rw = self.htm_rows(&mut rows);
        let run_stm = self.core_rows(&mut rows, stm_rw, htm_rw);
        self.txset_rows(&mut rows, pass);
        self.kv_rows(&mut rows, pass, run_stm);
        self.pbz_rows(&mut rows);
        rows.push(("trace.span_overhead_ns".into(), self.span_overhead_ns));
        rows
    }

    fn base_rows(&self, rows: &mut Rows) {
        let n = self.n * 8;
        let cell = TCell::new(7u64);
        let load = ns_per(n, || {
            for _ in 0..n {
                black_box(black_box(&cell).load_direct());
            }
        });
        let store = ns_per(n, || {
            for i in 0..n {
                black_box(&cell).store_direct(black_box(i));
            }
        });
        let i = self.orecs.index_of(0x1000);
        let orec = ns_per(n, || {
            for _ in 0..n {
                let seen = self.orecs.load(i);
                assert!(self.orecs.try_lock(i, seen, 1));
                self.orecs.release(i, (seen >> 1) + 1);
            }
        });
        let tasks = self.n / 8;
        let spawn_join = ns_per(tasks, || {
            for _ in 0..tasks {
                self.exec.spawn(async {}).join();
            }
        });
        let yields = self.n;
        let yield_ns = ns_per(yields, || {
            self.exec
                .spawn(async move {
                    for _ in 0..yields {
                        yield_now().await;
                    }
                })
                .join()
        });
        rows.push(("base.tcell.load_ns".into(), load));
        rows.push(("base.tcell.store_ns".into(), store));
        rows.push(("base.orec.lock_release_ns".into(), orec));
        rows.push(("base.exec.spawn_join_ns".into(), spawn_join));
        rows.push(("base.exec.yield_ns".into(), yield_ns));
    }

    /// Raw STM transactions; the traced loop wraps begin, body and commit
    /// in spans of their own. Returns `stm.tx_rw.ns`.
    fn stm_rows(&self, rows: &mut Rows) -> f64 {
        let n = self.n;
        let cell = TCell::new(0u64);
        let raw = |g: &StmGlobal, write: bool| {
            let slot = g.slots.register_raw().expect("a free STM slot");
            let ns = ns_per(n, || {
                for _ in 0..n {
                    let mut tx = g.begin(slot);
                    if write {
                        tx.update(&cell, |v| v + 1).expect("uncontended");
                    } else {
                        black_box(tx.read(&cell).expect("uncontended"));
                    }
                    tx.commit().expect("uncontended");
                }
            });
            g.slots.unregister_raw(slot);
            ns
        };
        let ro = raw(&self.stm, false);
        let rw = raw(&self.stm, true);
        let rw_quiesce = raw(&self.stm_quiesce, true);
        rows.push(("stm.tx_ro.ns".into(), ro));
        rows.push(("stm.tx_rw.ns".into(), rw));
        rows.push(("stm.tx_rw_quiesce.ns".into(), rw_quiesce));

        let slot = self.stm.slots.register_raw().expect("a free STM slot");
        let mut tr = Tracer::new(self.base);
        for i in 0..n / 4 {
            tr.set_op(i);
            tr.open("stm.tx");
            tr.open("stm.begin");
            let mut tx = self.stm.begin(slot);
            tr.close();
            tr.open("stm.body");
            tx.update(&cell, |v| v + 1).expect("uncontended");
            tr.close();
            tr.open("stm.commit");
            tx.commit().expect("uncontended");
            tr.close();
            tr.close();
        }
        self.stm.slots.unregister_raw(slot);
        self.push_self_times(rows, &tr, &["stm.begin", "stm.body", "stm.commit"]);
        rw
    }

    /// Raw simulated-HTM transactions (default config, so a simulated
    /// event abort is retried like the runner would). Returns
    /// `htm.tx_rw.ns`.
    fn htm_rows(&self, rows: &mut Rows) -> f64 {
        let n = self.n;
        let cell = TCell::new(0u64);
        let slot = self.htm.slots.register_raw().expect("a free HTM slot");
        let raw = |write: bool| {
            ns_per(n, || {
                for _ in 0..n {
                    loop {
                        let mut tx = self.htm.begin(slot);
                        let body = if write {
                            tx.update(&cell, |v| v + 1)
                        } else {
                            tx.read(&cell)
                        };
                        match body {
                            Ok(v) => {
                                black_box(v);
                                if tx.commit().is_ok() {
                                    break;
                                }
                            }
                            Err(cause) => tx.abort(cause),
                        }
                    }
                }
            })
        };
        let ro = raw(false);
        let rw = raw(true);
        rows.push(("htm.tx_ro.ns".into(), ro));
        rows.push(("htm.tx_rw.ns".into(), rw));

        let mut tr = Tracer::new(self.base);
        for i in 0..n / 4 {
            tr.set_op(i);
            tr.open("htm.tx");
            tr.open("htm.begin");
            let mut tx = self.htm.begin(slot);
            tr.close();
            tr.open("htm.body");
            let body = tx.update(&cell, |v| v + 1);
            tr.close();
            tr.open("htm.commit");
            match body {
                Ok(_) => drop(tx.commit()),
                Err(cause) => tx.abort(cause),
            }
            tr.close();
            tr.close();
        }
        self.htm.slots.unregister_raw(slot);
        self.push_self_times(rows, &tr, &["htm.begin", "htm.body", "htm.commit"]);
        rw
    }

    fn push_self_times(&self, rows: &mut Rows, tr: &Tracer, names: &[&str]) {
        let st = spans::self_times(&tr.spans, self.span_overhead_ns);
        for name in names {
            rows.push((format!("{name}.self_ns"), st[name]));
        }
    }

    /// `tx().run` per mode, the deadline/admission path, the async runner
    /// and the condvar hand-off. Returns `core.run.stm.ns`.
    fn core_rows(&mut self, rows: &mut Rows, stm_rw: f64, htm_rw: f64) -> f64 {
        let n = self.n;
        let mut by_mode = BTreeMap::new();
        for (name, s) in &self.runs {
            let ns = s.run(n);
            by_mode.insert(*name, ns);
            rows.push((format!("core.run.{name}.ns"), ns));
        }
        rows.push(("core.dispatch.stm.ns".into(), by_mode["stm"] - stm_rw));
        rows.push(("core.dispatch.htm.ns".into(), by_mode["htm"] - htm_rw));

        let d = &self.deadline;
        let mut refused = 0;
        let deadline = ns_per(n, || {
            for _ in 0..n {
                let r =
                    d.th.tx(&d.lock)
                        .deadline_us(1_000_000)
                        .try_run(|ctx| ctx.update(&d.cell, |v| v + 1));
                refused += r.is_err() as u64;
            }
        });
        self.fails += refused;
        rows.push(("core.try_run.deadline.ns".into(), deadline));

        for name in ["stm", "htm"] {
            let s = Arc::clone(&self.runs[name]);
            let ns = ns_per(n, || {
                self.exec
                    .spawn(async move {
                        for _ in 0..n {
                            black_box(
                                s.th.tx(&s.lock)
                                    .run_async(|ctx| ctx.update(&s.cell, |v| v + 1))
                                    .await,
                            );
                        }
                    })
                    .join()
            });
            rows.push((format!("core.run_async.{name}.ns"), ns));
        }

        for mode in [Mode::Lock, Mode::Stm] {
            let ns = condvar_handoff(mode.algo(), n / 64);
            rows.push((format!("core.condvar.handoff_ns.{}", mode.suffix()), ns));
        }
        by_mode["stm"]
    }

    /// The paper's 90 % lookup / 5 % insert / 5 % remove mix (Figure 5).
    fn txset_rows(&self, rows: &mut Rows, pass: u64) {
        let n = self.n;
        for (name, set) in &self.sets {
            let mut rng = Rng::new(pass);
            let ns = ns_per(n, || {
                for _ in 0..n {
                    let key = rng.below(set.key_space());
                    match rng.below(100) {
                        0..=89 => black_box(set.contains(&self.set_th, key)),
                        90..=94 => black_box(set.insert(&self.set_th, key)),
                        _ => black_box(set.remove(&self.set_th, key)),
                    };
                }
            });
            rows.push((format!("txset.{name}.op_ns.stm"), ns));
        }
    }

    fn kv_rows(&mut self, rows: &mut Rows, pass: u64, run_stm: f64) {
        let n = self.n;
        let mut fails = 0;
        for mode in MODES {
            let b = &self.kv.backends[mode.index()];
            let th = &b.handles[0];
            let get = ns_per(n, || {
                for &k in &self.keys {
                    match b.store.get(th, k) {
                        Some(v) => fails += !belongs_to(k, v) as u64,
                        None => fails += 1,
                    }
                }
            });
            let put = ns_per(n, || {
                for (i, &k) in self.keys.iter().enumerate() {
                    black_box(b.store.put(th, k, encode(k, i as u64)));
                }
            });
            rows.push((format!("kv.get.ns.{}", mode.suffix()), get));
            rows.push((format!("kv.put.ns.{}", mode.suffix()), put));
            if mode == Mode::Stm {
                rows.push(("kv.over_run.stm.ns".into(), get - run_stm));
                // Time the removals alone; the keys go back in untimed.
                // Distinct keys spread over the whole store, so that every
                // removal finds its key.
                let total = b.store.total_keys();
                let removals = (n / 4).min(total);
                let key = |i: u64| i * total / removals;
                let remove = ns_per(removals, || {
                    for i in 0..removals {
                        fails += b.store.remove(th, key(i)).is_none() as u64;
                    }
                });
                for i in 0..removals {
                    b.store.put(th, key(i), encode(key(i), 0));
                }
                rows.push(("kv.remove.ns.stm".into(), remove));
            }
        }

        // The async path: sessions on the executor, no think time.
        let per_session = n / 8;
        let b = &self.kv.backends[Mode::Stm.index()];
        let handles: Vec<Arc<ThreadHandle>> = (0..self.exec.workers())
            .map(|_| Arc::new(b.sys.register()))
            .collect();
        let t0 = Instant::now();
        let joins: Vec<_> = (0..SESSIONS)
            .map(|sid| {
                let b = Arc::clone(b);
                let zipf = Arc::clone(&self.kv.zipf);
                let th = Arc::clone(&handles[sid as usize % handles.len()]);
                self.exec.spawn(async move {
                    let mut rng = Rng::new(pass ^ (sid << 32));
                    let mut fails = 0u64;
                    for i in 0..per_session {
                        let k = zipf.sample(&mut rng);
                        if rng.below(100) < 5 {
                            b.store.put_async(&th, k, encode(k, i)).await;
                        } else {
                            match b.store.get_async(&th, k).await {
                                Some(v) => fails += !belongs_to(k, v) as u64,
                                None => fails += 1,
                            }
                        }
                        if i % YIELD_EVERY == YIELD_EVERY - 1 {
                            yield_now().await;
                        }
                    }
                    fails
                })
            })
            .collect();
        fails += joins.into_iter().map(|j| j.join()).sum::<u64>();
        let secs = t0.elapsed().as_secs_f64();
        rows.push((
            "kv.async.ops_per_s".into(),
            (SESSIONS * per_session) as f64 / secs,
        ));

        // What the harness itself adds to a kv op: key generation.
        let mut client = self.kv.client(b, 0, pass);
        let mut tr = Tracer::new(self.base);
        // One op in SAMPLE_EVERY carries spans, so run enough ops for a mean.
        fails += drive(&mut client, n * 4, Observe::Traced(&mut tr));
        self.push_self_times(rows, &tr, &["harness.keygen"]);
        self.fails += fails;
    }

    fn pbz_rows(&mut self, rows: &mut Rows) {
        let kb = BLOCK as f64 / 1024.0;
        let mut tr = Tracer::new(self.base);
        staged_block(&self.block, &mut tr);
        for s in &tr.spans {
            if s.name != "pbz.block" {
                let ns = (s.end_ns - s.start_ns) as f64;
                rows.push((format!("{}.ns_per_kb", s.name), ns / kb));
            }
        }
        let block = ns_per(1, || {
            black_box(compress_block(&self.block));
        });
        rows.push(("pbz.block.ns_per_kb".into(), block / kb));

        let th = self.pbz_sys.register();
        let n = self.n / 2;
        let fifo = ns_per(n, || {
            for i in 0..n {
                self.fifo
                    .push(&th, Box::new(i))
                    .expect("ladder fifo stays open");
                black_box(self.fifo.pop(&th));
            }
        });
        drop(th);
        rows.push(("pbz.fifo.push_pop_ns".into(), fifo));

        // A short pipeline run: critical sections per block, and how much
        // of two workers' time the codec got.
        let cfg = pipeline_config(Load::Two);
        let blocks = self.mini.chunks(BLOCK).count() as f64;
        let serial_ns = ns_per(1, || {
            for chunk in self.mini.chunks(BLOCK) {
                black_box(compress_block(chunk));
            }
        });
        self.pbz_sys.reset_stats();
        let wall_ns = ns_per(1, || {
            black_box(compress_parallel(&self.pbz_sys, &self.mini, &cfg));
        });
        let stats = self.pbz_sys.domain_stats();
        rows.push((
            "pbz.tx_per_block".into(),
            (stats.stm.commits + stats.tle.commits) as f64 / blocks,
        ));
        rows.push((
            "pbz.parallel_efficiency".into(),
            serial_ns / (cfg.workers as f64 * wall_ns),
        ));
    }
}

/// Two threads pass a turn back and forth through `ctx.wait`/`ctx.signal`;
/// ns per hand-off.
fn condvar_handoff(mode: AlgoMode, round_trips: u64) -> f64 {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = ElidableMutex::new("handoff");
    let turn = TCell::new(0u64);
    let cvs = [TxCondvar::new(), TxCondvar::new()];
    ns_per(round_trips * 2, || {
        std::thread::scope(|s| {
            for side in 0..2u64 {
                let (sys, lock, turn, cvs) = (&sys, &lock, &turn, &cvs);
                s.spawn(move || {
                    let th = sys.register();
                    for _ in 0..round_trips {
                        th.tx(lock).run(|ctx| {
                            ctx.no_quiesce();
                            if ctx.read(turn)? != side {
                                return ctx.wait(&cvs[side as usize], None);
                            }
                            ctx.write(turn, 1 - side)?;
                            ctx.signal(&cvs[1 - side as usize])
                        });
                    }
                });
            }
        })
    })
}
