//! Criterion micro-benchmarks for the TM primitives: cell access, orec
//! protocol, transaction begin/commit, quiescence drain, HTM access path.
//! Not a paper figure — engineering baselines for the runtime itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tle_base::{OrecTable, TCell};
use tle_core::{AlgoMode, ElidableMutex, TmSystem};
use tle_stm::{QuiescePolicy, StmGlobal};

fn bench_tcell(c: &mut Criterion) {
    let cell = TCell::new(7u64);
    c.bench_function("tcell/load_direct", |b| {
        b.iter(|| black_box(cell.load_direct()))
    });
    c.bench_function("tcell/store_direct", |b| {
        b.iter(|| cell.store_direct(black_box(9u64)))
    });
}

fn bench_orec(c: &mut Criterion) {
    let t = OrecTable::new();
    c.bench_function("orec/index_of", |b| {
        b.iter(|| black_box(t.index_of(black_box(0xDEAD_BEEF))))
    });
    c.bench_function("orec/lock_release", |b| {
        let i = t.index_of(0x1000);
        b.iter(|| {
            let seen = t.load(i);
            assert!(t.try_lock(i, seen, 1));
            t.release(i, (seen >> 1) + 1);
        })
    });
}

fn bench_stm_tx(c: &mut Criterion) {
    let g = StmGlobal::new(QuiescePolicy::Never);
    let slot = g.slots.register_raw().unwrap();
    let cell = TCell::new(0u64);
    c.bench_function("stm/ro_tx_1read", |b| {
        b.iter(|| {
            let mut tx = g.begin(slot);
            black_box(tx.read(&cell).unwrap());
            tx.commit().unwrap();
        })
    });
    c.bench_function("stm/rw_tx_1write", |b| {
        b.iter(|| {
            let mut tx = g.begin(slot);
            tx.update(&cell, |v| v + 1).unwrap();
            tx.commit().unwrap();
        })
    });
    let g_q = StmGlobal::new(QuiescePolicy::Always);
    let slot_q = g_q.slots.register_raw().unwrap();
    let cell_q = TCell::new(0u64);
    c.bench_function("stm/rw_tx_1write_with_quiesce", |b| {
        b.iter(|| {
            let mut tx = g_q.begin(slot_q);
            tx.update(&cell_q, |v| v + 1).unwrap();
            tx.commit().unwrap();
        })
    });
}

fn bench_tle_modes(c: &mut Criterion) {
    for mode in [
        AlgoMode::Baseline,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
    ] {
        let sys = Arc::new(TmSystem::new(mode));
        let th = sys.register();
        let lock = ElidableMutex::new("bench");
        let cell = TCell::new(0u64);
        c.bench_function(format!("tle/incr/{}", mode.label()), |b| {
            b.iter(|| {
                th.tx(&lock).run(|ctx| {
                    ctx.update(&cell, |v| v + 1)?;
                    Ok(())
                })
            })
        });
    }
}

/// The side of the serial handshake that pays: an `unsafe_op` section — one
/// failed speculative attempt, then serial entry with its presence sweep
/// over four registered handles' slots — on one thread.
fn bench_tle_serial(c: &mut Criterion) {
    for (name, mode) in [("STM", AlgoMode::StmCondvar), ("HTM", AlgoMode::HtmCondvar)] {
        let sys = Arc::new(TmSystem::new(mode));
        let handles: Vec<_> = (0..4).map(|_| sys.register()).collect();
        let th = &handles[0];
        let lock = ElidableMutex::new("bench-serial");
        let cell = TCell::new(0u64);
        c.bench_function(format!("tle/serial/{name}"), |b| {
            b.iter(|| {
                th.tx(&lock).run(|ctx| {
                    ctx.unsafe_op()?;
                    ctx.update(&cell, |v| v + 1)?;
                    Ok(())
                })
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tcell, bench_orec, bench_stm_tx, bench_tle_modes, bench_tle_serial
}
criterion_main!(benches);
