//! Opacity stress: no transaction — not even one doomed to abort — may
//! observe an inconsistent snapshot. The C++ TMTS demands this
//! ("transactional sequential consistency", paper §IV), and zombie
//! executions are precisely what quiescence + validation protect against.
//!
//! The invariant: all cells of an array are always equal (writers increment
//! every cell in one transaction). Every transactional closure asserts
//! equality over its *own reads*; a TM that lets a doomed transaction see a
//! half-applied update fails the assertion inside the closure.

use std::sync::Arc;
use tle_repro::prelude::*;

const CELLS: usize = 8;
const WRITERS: usize = 3;
const READERS: usize = 3;
// Full stress weight only where the kernels are compiled for speed
// (release / CI); debug builds exist to iterate, and the deterministic
// sibling `tests/opacity_check.rs` carries the interleaving coverage there.
const OPS: u64 = if cfg!(debug_assertions) { 400 } else { 4_000 };
const ORDER_OPS: u64 = if cfg!(debug_assertions) { 300 } else { 2_000 };

fn run_opacity(mode: AlgoMode) {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("opacity"));
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..CELLS).map(|_| TCell::new(0)).collect());

    let mut handles = Vec::new();
    for _ in 0..WRITERS {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cells = Arc::clone(&cells);
        handles.push(std::thread::spawn(move || {
            let th = sys.register();
            for _ in 0..OPS {
                th.tx(&lock).run(|ctx| {
                    let first = ctx.read(&cells[0])?;
                    for c in cells.iter().skip(1) {
                        let v = ctx.read(c)?;
                        assert_eq!(v, first, "writer observed a torn snapshot under {mode:?}");
                    }
                    for c in cells.iter() {
                        ctx.write(c, first + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for _ in 0..READERS {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cells = Arc::clone(&cells);
        handles.push(std::thread::spawn(move || {
            let th = sys.register();
            for _ in 0..OPS {
                let (lo, hi) = th.tx(&lock).run(|ctx| {
                    let mut lo = u64::MAX;
                    let mut hi = 0;
                    for c in cells.iter() {
                        let v = ctx.read(c)?;
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    Ok((lo, hi))
                });
                assert_eq!(lo, hi, "reader observed a torn snapshot under {mode:?}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let expect = WRITERS as u64 * OPS;
    for c in cells.iter() {
        assert_eq!(c.load_direct(), expect, "lost increments under {mode:?}");
    }
}

#[test]
fn opacity_baseline() {
    run_opacity(AlgoMode::Baseline);
}

#[test]
fn opacity_stm_mlwt() {
    run_opacity(AlgoMode::StmCondvar);
}

#[test]
fn opacity_stm_mlwt_noquiesce() {
    run_opacity(AlgoMode::StmCondvarNoQuiesce);
}

#[test]
fn opacity_stm_norec() {
    run_opacity(AlgoMode::StmNorec);
}

#[test]
fn opacity_htm() {
    run_opacity(AlgoMode::HtmCondvar);
}

#[test]
fn opacity_adaptive_htm() {
    run_opacity(AlgoMode::AdaptiveHtm);
}

/// Commit-order consistency: transactions tag themselves with a sequence
/// number drawn transactionally; replaying their writes in tag order must
/// reproduce the final memory state (serializability witness).
#[test]
fn commit_order_replay_matches_final_state() {
    for mode in [AlgoMode::StmCondvar, AlgoMode::StmNorec] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("serial-witness"));
        let seq = Arc::new(TCell::new(0u64));
        let slots: Arc<Vec<TCell<u64>>> = Arc::new((0..4).map(|_| TCell::new(0)).collect());

        let handles: Vec<_> = (0..4)
            .map(|t| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let seq = Arc::clone(&seq);
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let mut rng = tle_repro::base::rng::XorShift64::new(t as u64);
                    let mut log = Vec::new();
                    for _ in 0..ORDER_OPS {
                        let target = rng.below(4) as usize;
                        let (tag, value) = th.tx(&lock).run(|ctx| {
                            let tag = ctx.update(&*seq, |v| v + 1)?;
                            let value = tag * 31 + target as u64;
                            ctx.write(&slots[target], value)?;
                            Ok((tag, value))
                        });
                        log.push((tag, target, value));
                    }
                    log
                })
            })
            .collect();
        let mut log: Vec<(u64, usize, u64)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Tags must be unique and dense (each transaction got its own).
        log.sort_unstable();
        for (i, &(tag, _, _)) in log.iter().enumerate() {
            assert_eq!(tag, i as u64 + 1, "sequence tags not dense under {mode:?}");
        }
        // Replay in commit (tag) order.
        let mut replay = [0u64; 4];
        for &(_, target, value) in &log {
            replay[target] = value;
        }
        for (i, c) in slots.iter().enumerate() {
            assert_eq!(
                c.load_direct(),
                replay[i],
                "slot {i} diverges from commit-order replay under {mode:?}"
            );
        }
    }
}
