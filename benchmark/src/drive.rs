//! The closed loop every op-based trial runs: a client thread issues its
//! next op only when the previous one returned. One loop, three ways of
//! observing it — untimed (throughput), per-op timed (latency) and sampled
//! spans (traced run) — so that the three never differ in the work done.

use crate::spans::{Tracer, SAMPLE_EVERY};
use std::sync::Barrier;
use std::time::Instant;
use tle_core::AlgoMode;

/// The three compared ways of running the same critical sections; the
/// suffixes of the metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Lock,
    Stm,
    Htm,
}

pub const MODES: [Mode; 3] = [Mode::Lock, Mode::Stm, Mode::Htm];

impl Mode {
    pub fn suffix(self) -> &'static str {
        match self {
            Mode::Lock => "lock",
            Mode::Stm => "stm",
            Mode::Htm => "htm",
        }
    }

    pub fn algo(self) -> AlgoMode {
        match self {
            Mode::Lock => AlgoMode::Baseline,
            Mode::Stm => AlgoMode::StmCondvar,
            Mode::Htm => AlgoMode::HtmCondvar,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// How many threads load the system in a trial.
///
/// On the shared 2-core host the second core comes and goes: a 2-thread
/// trial's wall-clock throughput swings by tens of percent from one minute
/// to the next while a 1-thread trial holds still. Gated numbers therefore
/// come from [`Load::One`]; [`Load::Two`] runs in the traced run, where it
/// is the only place conflicts, quiescence waits and 1→2 scaling show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    One = 1,
    Two = 2,
}

/// How a trial is observed.
pub enum Observe<'a> {
    /// Nothing per op: the trial's wall time gives throughput.
    Plain,
    /// Each op's latency in ns is appended (kept apart from throughput
    /// trials, whose loop carries no clock reads).
    Timed(&'a mut Vec<u32>),
    /// One op in [`SAMPLE_EVERY`] is wrapped in spans.
    Traced(&'a mut Tracer),
}

/// A stream of ops: `prep` is the harness's own work (key generation),
/// `exec` the call into the system under test.
pub trait Ops {
    type Req;
    fn prep(&mut self, i: u64) -> Self::Req;
    /// Span name of the call `exec` makes for this request.
    fn span_name(req: &Self::Req) -> &'static str;
    /// Run the op; returns the number of failed checks.
    fn exec(&mut self, req: Self::Req) -> u64;
}

/// Issue `n` ops back to back; returns the failed-check count.
pub fn drive<O: Ops>(ops: &mut O, n: u64, observe: Observe<'_>) -> u64 {
    let mut fails = 0;
    match observe {
        Observe::Plain => {
            for i in 0..n {
                let req = ops.prep(i);
                fails += ops.exec(req);
            }
        }
        Observe::Timed(lat) => {
            // Sized up front: no reallocation inside the timed loop.
            lat.reserve(n as usize);
            for i in 0..n {
                let req = ops.prep(i);
                let t0 = Instant::now();
                fails += ops.exec(req);
                lat.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            }
        }
        Observe::Traced(tr) => {
            for i in 0..n {
                if i % SAMPLE_EVERY != 0 {
                    let req = ops.prep(i);
                    fails += ops.exec(req);
                    continue;
                }
                tr.set_op(i);
                tr.open("harness.op");
                tr.open("harness.keygen");
                let req = ops.prep(i);
                tr.close();
                tr.open(O::span_name(&req));
                fails += ops.exec(req);
                tr.close();
                tr.close();
            }
        }
    }
    fails
}

/// Run `n` ops on every client, one thread per client, released together.
/// Only a one-client trial can be observed per op.
pub fn run_clients<O: Ops + Send>(clients: &mut [O], n: u64, observe: Observe<'_>) -> Trial {
    assert!(
        clients.len() == 1 || matches!(observe, Observe::Plain),
        "latency and traced trials run one client"
    );
    let barrier = Barrier::new(clients.len() + 1);
    let ops = n * clients.len() as u64;
    let mut observe = Some(observe);
    let (secs, fails) = std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let observe = observe.take().unwrap_or(Observe::Plain);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    drive(client, n, observe)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let fails: u64 = joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .sum();
        (t0.elapsed().as_secs_f64(), fails)
    });
    Trial { ops, secs, fails }
}

/// What one trial produced.
pub struct Trial {
    pub ops: u64,
    pub secs: f64,
    pub fails: u64,
}

impl Trial {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}
