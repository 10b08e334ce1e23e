//! `elide-1t`: one thread, one private counter, nothing but the runtime.
//! `base`/`stm`/`htm`/`core` do all of the work and application code none,
//! so it is the most repeatable place to see a runner, commit-path or orec
//! change. Its two-thread form gives each thread a counter and a lock of
//! its own: no conflicts, only what the runtime itself shares (the global
//! clock, the slot table).

use crate::drive::{run_clients, Load, Mode, Observe, Ops, Trial, MODES};
use crate::yard::{on_fresh_thread, Counter as YardCounter};
use crate::{Sizing, Workload};
use std::sync::Arc;
use tle_base::TCell;
use tle_core::{ElidableMutex, ThreadHandle, TmSystem};

struct Counter {
    th: ThreadHandle,
    lock: ElidableMutex,
    cell: TCell<u64>,
    issued: u64,
}

impl Ops for Counter {
    type Req = ();
    fn prep(&mut self, _i: u64) {}
    fn span_name(_req: &()) -> &'static str {
        "core.run"
    }
    #[inline]
    fn exec(&mut self, _req: ()) -> u64 {
        std::hint::black_box(
            self.th
                .tx(&self.lock)
                .run(|ctx| ctx.update(&self.cell, |v| v + 1)),
        );
        0
    }
}

pub struct Elide {
    /// Per mode: the system and one counter per load thread.
    modes: Vec<(Arc<TmSystem>, Vec<Counter>)>,
    ops: u64,
    timed_ops: u64,
    yard: YardCounter,
    yard_ops: u64,
}

impl Elide {
    pub fn setup(_seed: u64, sz: &Sizing) -> Elide {
        let mut w = Elide {
            modes: MODES
                .iter()
                .map(|m| {
                    let sys = Arc::new(TmSystem::new(m.algo()));
                    let counters = (0..Load::Two as usize)
                        .map(|_| Counter {
                            th: sys.register(),
                            lock: ElidableMutex::new("elide"),
                            cell: TCell::new(0),
                            issued: 0,
                        })
                        .collect();
                    (sys, counters)
                })
                .collect(),
            ops: sz.warm_ops,
            timed_ops: sz.elide_timed_ops,
            yard: YardCounter::default(),
            yard_ops: sz.warm_ops,
        };
        for m in MODES {
            w.trial(m, Load::Two, 0, Observe::Plain);
        }
        w.yardstick(0);
        w.ops = sz.elide_ops;
        w.yard_ops = sz.elide_yard_ops;
        w
    }
}

impl Workload for Elide {
    fn trial(&mut self, mode: Mode, load: Load, _round: u64, observe: Observe<'_>) -> Trial {
        let n = match observe {
            Observe::Timed(_) => self.timed_ops,
            _ => self.ops,
        };
        let counters = &mut self.modes[mode.index()].1[..load as usize];
        let mut t = run_clients(counters, n, observe);
        // Counter-total check: every issued increment took effect once.
        for c in counters {
            c.issued += n;
            t.fails += (c.cell.load_direct() != c.issued) as u64;
        }
        t
    }

    fn yardstick(&mut self, _round: u64) -> f64 {
        let n = self.yard_ops;
        n as f64 / on_fresh_thread(|| self.yard.pass(n))
    }

    fn system(&self, mode: Mode) -> &Arc<TmSystem> {
        &self.modes[mode.index()].0
    }
}
