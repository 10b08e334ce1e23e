//! Edge-case integration tests: condvar ring hygiene under timeout storms,
//! serialization-gate writer preference, HTM conflict-table aliasing, FIFO
//! capacity blocking, and slot exhaustion behaviour.

use std::sync::Arc;
use std::time::Duration;
use tle_repro::base::exec::Exec;
use tle_repro::base::Padded;
use tle_repro::pbz::TleFifo;
use tle_repro::prelude::*;

/// Hundreds of timed-out waits must not clog the condvar ring (cancelled
/// entries are compacted by later enqueues/dequeues).
#[test]
fn condvar_survives_timeout_storm() {
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let sys = Arc::new(TmSystem::new(mode));
        let th = sys.register();
        let lock = ElidableMutex::new("storm");
        let cv = TxCondvar::new();
        let never = TCell::new(false);
        for _ in 0..600 {
            // Each iteration: one wait that always times out.
            let mut fired = false;
            th.tx(&lock).run(|ctx| {
                if !ctx.read(&never)? && !fired {
                    fired = true;
                    return ctx.wait(&cv, Some(Duration::from_micros(50)));
                }
                Ok(())
            });
        }
        // The ring must still accept and deliver a real wakeup.
        let got = {
            let sys2 = Arc::clone(&sys);
            let flag = Arc::new(TCell::new(false));
            let flag2 = Arc::clone(&flag);
            let lock = Arc::new(ElidableMutex::new("storm2"));
            let lock2 = Arc::clone(&lock);
            let cv = Arc::new(TxCondvar::new());
            let cv2 = Arc::clone(&cv);
            let waiter = std::thread::spawn(move || {
                let th = sys2.register();
                th.tx(&lock2).run(|ctx| {
                    if !ctx.read(&*flag2)? {
                        return ctx.wait(&cv2, None);
                    }
                    Ok(())
                });
                true
            });
            std::thread::sleep(Duration::from_millis(20));
            th.tx(&lock).run(|ctx| {
                ctx.write(&*flag, true)?;
                ctx.signal(&cv)?;
                Ok(())
            });
            waiter.join().unwrap()
        };
        assert!(got, "post-storm wakeup lost under {mode:?}");
    }
}

/// A pending serial request closes the gate to *new* transactions (writer
/// preference), or abort storms could starve the serial fallback forever.
/// Dropping it unacquired reopens the gate and wakes the entrants it turned
/// away — a spinning thread and a suspended task alike — and their retreats
/// were never attempts. Each entrant bumps its own line-padded cell, so once
/// the gate reopens the two cannot conflict with each other (on a shared
/// cell, their sections overlap on two cores and one may abort for real).
#[test]
fn gate_prefers_pending_serial_requests() {
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("pending"));
        let cells: Arc<[Padded<TCell<u64>>; 2]> =
            Arc::new([Padded(TCell::new(0)), Padded(TCell::new(0))]);
        let pending = sys.gate.request_serial();
        assert!(sys.gate.closed() && !sys.gate.serial_held());

        let bump = |ctx: &mut TxCtx<'_>, cell: &TCell<u64>| {
            let v = ctx.read(cell)?;
            ctx.write(cell, v + 1)
        };
        let sync_entrant = {
            let (sys, lock, cells) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cells));
            std::thread::spawn(move || sys.register().tx(&lock).run(|ctx| bump(ctx, &cells[0])))
        };
        let exec = Exec::new(1);
        let async_entrant = {
            let (sys, lock, cells) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cells));
            exec.spawn(async move {
                let th = sys.register();
                th.tx(&lock).run_async(|ctx| bump(ctx, &cells[1])).await
            })
        };
        let bumps = || cells.iter().map(|c| c.load_direct()).collect::<Vec<_>>();
        // Nothing gets past a closed gate, however long it stays closed.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(bumps(), [0, 0], "{mode:?}: an entrant jumped the queue");

        drop(pending); // abandoned: reopens and wakes
        sync_entrant.join().unwrap();
        async_entrant.join();
        assert_eq!(bumps(), [1, 1], "{mode:?}");
        let d = sys.domain_stats();
        let tm = if mode == AlgoMode::HtmCondvar {
            &d.htm
        } else {
            &d.stm
        };
        assert_eq!(
            (tm.commits, tm.aborts, d.tle.serial_fallbacks),
            (2, 0, 0),
            "{mode:?}: a retreat is not an attempt"
        );
    }
}

/// Serial entry sweeps the transactions' own presence words: it blocks until
/// a raw transaction in flight on another slot — one the runner knows nothing
/// about — has ended, whichever way it ends.
#[test]
fn serial_entry_waits_out_in_flight_raw_transactions() {
    #[derive(Debug, Clone, Copy)]
    enum Ending {
        Commit,
        Abort,
        DropOnPanic,
    }
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        for ending in [Ending::Commit, Ending::Abort, Ending::DropOnPanic] {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = Arc::new(ElidableMutex::new("sweep"));
            let cell = TCell::new(0u64);
            let entered = Arc::new(TCell::new(false));
            // The in-flight transaction, begun before the gate closes.
            let (stm_slot, htm_slot) = (
                sys.stm.slots.register_raw().unwrap(),
                sys.htm.slots.register_raw().unwrap(),
            );
            let end: Box<dyn FnOnce()> = if mode == AlgoMode::HtmCondvar {
                let mut tx = sys.htm.begin(htm_slot);
                tx.write(&cell, 1u64).unwrap();
                match ending {
                    Ending::Commit => Box::new(move || tx.commit().unwrap()),
                    Ending::Abort => Box::new(move || tx.abort(AbortCause::Explicit)),
                    Ending::DropOnPanic => Box::new(move || {
                        let _tx = tx;
                        panic!("injected panic inside a raw transaction");
                    }),
                }
            } else {
                let mut tx = sys.stm.begin(stm_slot);
                tx.write(&cell, 1u64).unwrap();
                match ending {
                    Ending::Commit => Box::new(move || {
                        tx.commit().unwrap();
                    }),
                    Ending::Abort => Box::new(move || tx.abort(AbortCause::Explicit)),
                    Ending::DropOnPanic => Box::new(move || {
                        let _tx = tx;
                        panic!("injected panic inside a raw transaction");
                    }),
                }
            };
            let serial = {
                let (sys, lock, entered) =
                    (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&entered));
                std::thread::spawn(move || {
                    sys.register().tx(&lock).run(|ctx| {
                        ctx.unsafe_op()?;
                        ctx.write(&*entered, true)
                    })
                })
            };
            // Once the serial bit is taken the entry is sweeping, and the
            // sweep cannot pass our published presence.
            while !sys.gate.serial_held() {
                std::thread::yield_now();
            }
            assert!(
                !entered.load_direct(),
                "{mode:?}/{ending:?}: serial section ran beside a live transaction"
            );
            let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(end));
            assert_eq!(ended.is_err(), matches!(ending, Ending::DropOnPanic));
            serial.join().unwrap();
            assert!(entered.load_direct(), "{mode:?}/{ending:?}");
            sys.stm.slots.unregister_raw(stm_slot);
            sys.htm.slots.unregister_raw(htm_slot);
        }
    }
}

/// Two cells in the same cache line conflict in HTM even though they are
/// distinct locations (false sharing — real TSX behaviour).
#[test]
fn htm_same_line_false_sharing_conflicts() {
    use tle_repro::htm::{HtmConfig, HtmGlobal};
    let g = HtmGlobal::new(HtmConfig {
        event_prob: 0.0,
        ..HtmConfig::default()
    });
    let s1 = g.slots.register_raw().unwrap();
    let s2 = g.slots.register_raw().unwrap();
    // Adjacent cells in one allocation share a 64-byte line.
    let pair = Box::new((TCell::new(0u64), TCell::new(0u64)));
    let same_line =
        tle_repro::base::line_of(pair.0.addr()) == tle_repro::base::line_of(pair.1.addr());
    if !same_line {
        return; // allocator split them; nothing to assert
    }
    let mut t1 = g.begin(s1);
    t1.write(&pair.0, 1u64).unwrap();
    let mut t2 = g.begin(s2);
    // Writing the *other* cell on the same line must conflict.
    let r = t2.write(&pair.1, 2u64);
    let c1 = t1.commit();
    let c2 = match r {
        Ok(()) => t2.commit(),
        Err(e) => {
            t2.abort(e);
            Err(e)
        }
    };
    assert!(
        !(c1.is_ok() && c2.is_ok()),
        "false sharing must serialize same-line writers"
    );
    g.slots.unregister_raw(s1);
    g.slots.unregister_raw(s2);
}

/// Pushing into a full FIFO blocks until a pop frees a slot.
#[test]
fn fifo_capacity_blocks_producer() {
    for mode in [
        AlgoMode::Baseline,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
    ] {
        let sys = Arc::new(TmSystem::new(mode));
        let q: Arc<TleFifo<u32>> = Arc::new(TleFifo::new("tiny", 2));
        {
            let th = sys.register();
            q.push(&th, Box::new(1)).unwrap();
            q.push(&th, Box::new(2)).unwrap();
            assert_eq!(q.len_approx(), 2);
        }
        let producer = {
            let sys = Arc::clone(&sys);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let th = sys.register();
                let t0 = std::time::Instant::now();
                q.push(&th, Box::new(3)).unwrap(); // must block: queue full
                t0.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        {
            let th = sys.register();
            assert_eq!(*q.pop(&th).unwrap(), 1);
        }
        let waited = producer.join().unwrap();
        assert!(
            waited >= Duration::from_millis(15),
            "producer did not block on full queue under {mode:?} ({waited:?})"
        );
        let th = sys.register();
        assert_eq!(*q.pop(&th).unwrap(), 2);
        assert_eq!(*q.pop(&th).unwrap(), 3);
    }
}

/// Deep wait/signal chains across many condvars (one per stage) — a
/// pipeline-of-pipelines shape that stresses waiter bookkeeping.
#[test]
fn chained_condvar_stages() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvarNoQuiesce));
    const STAGES: usize = 6;
    let locks: Arc<Vec<ElidableMutex>> =
        Arc::new((0..STAGES).map(|_| ElidableMutex::new("stage")).collect());
    let cvs: Arc<Vec<TxCondvar>> = Arc::new((0..STAGES).map(|_| TxCondvar::new()).collect());
    let tokens: Arc<Vec<TCell<u64>>> = Arc::new((0..STAGES).map(|_| TCell::new(0)).collect());
    const ROUNDS: u64 = 200;

    let stages: Vec<_> = (0..STAGES)
        .map(|s| {
            let sys = Arc::clone(&sys);
            let locks = Arc::clone(&locks);
            let cvs = Arc::clone(&cvs);
            let tokens = Arc::clone(&tokens);
            std::thread::spawn(move || {
                let th = sys.register();
                for round in 1..=ROUNDS {
                    // Wait for our stage's token to reach `round`.
                    th.tx(&locks[s]).run(|ctx| {
                        if ctx.read(&tokens[s])? < round {
                            ctx.no_quiesce();
                            return ctx.wait(&cvs[s], None);
                        }
                        Ok(())
                    });
                    // Pass the token downstream.
                    if s + 1 < STAGES {
                        th.tx(&locks[s + 1]).run(|ctx| {
                            ctx.update(&tokens[s + 1], |v| v + 1)?;
                            ctx.broadcast(&cvs[s + 1])?;
                            Ok(())
                        });
                    }
                }
            })
        })
        .collect();
    // Drive stage 0.
    {
        let th = sys.register();
        for _ in 0..ROUNDS {
            th.tx(&locks[0]).run(|ctx| {
                ctx.update(&tokens[0], |v| v + 1)?;
                ctx.broadcast(&cvs[0])?;
                Ok(())
            });
        }
    }
    for s in stages {
        s.join().unwrap();
    }
    for (i, t) in tokens.iter().enumerate() {
        assert_eq!(t.load_direct(), ROUNDS, "stage {i} token miscount");
    }
}
