//! The top-level TLE system: algorithm mode, policy knobs, thread
//! registration, and the per-lock adaptive policy controller.

use crate::domain::{
    admission_decide, AdaptiveConfig, AdmissionConfig, ModeSwitchEvent, SwitchReason,
};
use crate::elide::{ElidableMutex, LockInner};
use crate::runner;
use crate::{TxCtx, TxError};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use tle_base::gate::SerialToken;
use tle_base::mutant::{self, Mutant};
use tle_base::stats::{fmt_ns, LatencyHistSnapshot, TxStats, TxStatsSnapshot};
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, Gate};
use tle_htm::{HtmConfig, HtmGlobal};
use tle_stm::{QuiescePolicy, StmGlobal};

/// The five synchronization algorithms evaluated in the paper (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AlgoMode {
    /// The original pthread-style locking (no elision).
    Baseline = 0,
    /// STM elision; waiting degrades to polling in small transactions.
    StmSpin = 1,
    /// STM elision with transaction-friendly condition variables.
    StmCondvar = 2,
    /// `StmCondvar` plus selective quiescence disabling (`TM_NoQuiesce`).
    StmCondvarNoQuiesce = 3,
    /// Simulated-HTM elision with condition variables and serial fallback.
    HtmCondvar = 4,
    /// glibc-style adaptive lock elision (extension, not one of the
    /// paper's five): hardware transactions **subscribe to the lock word**
    /// and fall back to **the lock itself** (not global serialization);
    /// an adaptive skip counter disables elision on locks that keep
    /// aborting, exactly like glibc's `pthread_mutex_lock` elision.
    AdaptiveHtm = 5,
    /// [`AdaptiveHtm`](Self::AdaptiveHtm) with **safe lazy subscription**
    /// (Dice et al., "Hardware extensions to make lazy subscription
    /// safe"): the fallback lock word is *not* read at transaction begin —
    /// lock-path acquisitions therefore no longer abort every speculating
    /// reader of that line. Safety is restored by three ordered guards:
    /// begin refuses to speculate while the lock's acquisition seqlock is
    /// odd (held), the lock path dooms every active transaction on acquire
    /// (zombies cannot run on), and the seqlock is re-checked immediately
    /// before the commit point, proving the lock was free for the whole
    /// speculation window. Never a controller target — strictly opt-in.
    AdaptiveHtmLazy = 6,
    /// **Naive** lazy subscription — the literature's unsafe strawman: the
    /// lock word is read only once, just before commit, with no
    /// doom-on-acquire and no whole-window check. Exists so the model
    /// checker can demonstrate the hazard catalog (DESIGN.md §17) on a
    /// real mode. Compiled only into dev/check builds (`debug_assertions`,
    /// tests, or the `unsafe-modes` feature); release binaries reject any
    /// construction of it at compile time. Never a controller target.
    #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
    AdaptiveHtmLazyUnsafe = 7,
}

/// Error returned when a byte is not a valid [`AlgoMode`] discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidAlgoMode(pub u8);

impl std::fmt::Display for InvalidAlgoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid AlgoMode discriminant {}", self.0)
    }
}

impl std::error::Error for InvalidAlgoMode {}

impl TryFrom<u8> for AlgoMode {
    type Error = InvalidAlgoMode;

    fn try_from(v: u8) -> Result<Self, InvalidAlgoMode> {
        match v {
            0 => Ok(AlgoMode::Baseline),
            1 => Ok(AlgoMode::StmSpin),
            2 => Ok(AlgoMode::StmCondvar),
            3 => Ok(AlgoMode::StmCondvarNoQuiesce),
            4 => Ok(AlgoMode::HtmCondvar),
            5 => Ok(AlgoMode::AdaptiveHtm),
            6 => Ok(AlgoMode::AdaptiveHtmLazy),
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            7 => Ok(AlgoMode::AdaptiveHtmLazyUnsafe),
            other => Err(InvalidAlgoMode(other)),
        }
    }
}

/// Error returned when a string names no [`AlgoMode`]; carries the
/// offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgoModeError(pub String);

impl std::fmt::Display for ParseAlgoModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm mode {:?} (expected one of: baseline, stm-spin, \
             stm-condvar, stm-noquiesce, htm, adaptive-htm, adaptive-htm-lazy, \
             adaptive-htm-lazy-unsafe [dev/check builds only])",
            self.0
        )
    }
}

impl std::error::Error for ParseAlgoModeError {}

impl std::str::FromStr for AlgoMode {
    type Err = ParseAlgoModeError;

    /// Parse the CLI spellings used by the `tle-torture`/`tle-trace`
    /// binaries (aliases included).
    fn from_str(s: &str) -> Result<Self, ParseAlgoModeError> {
        match s {
            "baseline" | "pthread" => Ok(AlgoMode::Baseline),
            "stm-spin" | "spin" => Ok(AlgoMode::StmSpin),
            "stm" | "stm-condvar" => Ok(AlgoMode::StmCondvar),
            "stm-noquiesce" | "stm-condvar-noquiesce" | "noquiesce" => {
                Ok(AlgoMode::StmCondvarNoQuiesce)
            }
            "htm" | "htm-condvar" => Ok(AlgoMode::HtmCondvar),
            "adaptive-htm" | "adaptive" | "glibc" => Ok(AlgoMode::AdaptiveHtm),
            "adaptive-htm-lazy" | "lazy" => Ok(AlgoMode::AdaptiveHtmLazy),
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            "adaptive-htm-lazy-unsafe" | "lazy-unsafe" => Ok(AlgoMode::AdaptiveHtmLazyUnsafe),
            other => Err(ParseAlgoModeError(other.to_string())),
        }
    }
}

impl AlgoMode {
    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            AlgoMode::Baseline => "pthread",
            AlgoMode::StmSpin => "STM+Spin",
            AlgoMode::StmCondvar => "STM+CondVar",
            AlgoMode::StmCondvarNoQuiesce => "STM+CondVar+NoQuiesce",
            AlgoMode::HtmCondvar => "HTM+CondVar",
            AlgoMode::AdaptiveHtm => "AdaptiveHTM(glibc)",
            AlgoMode::AdaptiveHtmLazy => "AdaptiveHTM(lazy)",
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            AlgoMode::AdaptiveHtmLazyUnsafe => "AdaptiveHTM(lazy-unsafe)",
        }
    }

    /// The quiescence policy this algorithm implies for its STM domain.
    pub fn quiesce_policy(self) -> QuiescePolicy {
        match self {
            AlgoMode::StmCondvarNoQuiesce => QuiescePolicy::Selective,
            _ => QuiescePolicy::Always,
        }
    }

    /// Whether this mode runs critical sections as transactions.
    pub fn is_transactional(self) -> bool {
        !matches!(self, AlgoMode::Baseline)
    }

    /// Whether this mode is glibc-family adaptive elision: hardware
    /// transactions fall back to **the lock itself** rather than the
    /// global serial gate ([`AdaptiveHtm`](Self::AdaptiveHtm) and the two
    /// lazy-subscription variants).
    pub fn is_glibc_family(self) -> bool {
        match self {
            AlgoMode::AdaptiveHtm | AlgoMode::AdaptiveHtmLazy => true,
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            AlgoMode::AdaptiveHtmLazyUnsafe => true,
            _ => false,
        }
    }

    /// Whether this mode defers its fallback-lock subscription to commit
    /// time instead of reading the lock word at transaction begin.
    pub fn is_lazy(self) -> bool {
        match self {
            AlgoMode::AdaptiveHtmLazy => true,
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            AlgoMode::AdaptiveHtmLazyUnsafe => true,
            _ => false,
        }
    }

    /// Whether this is the naive lazy variant, which omits every safety
    /// guard (dev/check builds only; always `false` in release builds,
    /// where the variant does not exist).
    pub fn is_lazy_unsafe(self) -> bool {
        match self {
            #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
            AlgoMode::AdaptiveHtmLazyUnsafe => true,
            _ => false,
        }
    }
}

/// Retry/fallback policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlePolicy {
    /// Hardware attempts before serializing. The paper's configuration is
    /// **2** ("fall back to a serial mode after hardware transactions fail
    /// twice") and §VII-A calls tuning this knob out as future work — see
    /// the `ablate_htm_retry` bench.
    pub htm_retries: u32,
    /// Software attempts before serializing (GCC uses a similar abort-storm
    /// escape hatch).
    pub stm_retries: u32,
    /// Exponential-backoff ceiling (spins) between software retries.
    pub backoff_ceiling: u32,
    /// Starvation-escalation ladder: a thread whose *consecutive* aborts
    /// (accumulated across critical sections, reset by any concurrent
    /// commit) reach this bound is granted one serial-irrevocable slot —
    /// guaranteed progress for a thread the retry/fallback policy alone
    /// keeps starving. The default (2× `stm_retries`) only fires under
    /// persistent cross-section abort storms, so the paper-mode fallback
    /// behaviour is unchanged in ordinary runs.
    pub escalation_bound: u32,
}

impl Default for TlePolicy {
    fn default() -> Self {
        TlePolicy {
            htm_retries: 2,
            stm_retries: 64,
            backoff_ceiling: 1 << 12,
            escalation_bound: 128,
        }
    }
}

/// Per-critical-section overrides of the global [`TlePolicy`] — the
/// transaction-by-transaction retry tuning the paper's §VII-A asks for.
///
/// Build fluently from the default:
///
/// ```
/// use tle_core::TxHints;
/// let hints = TxHints::new().with_htm_retries(8).with_stm_retries(128);
/// assert_eq!(hints.htm_retries, Some(8));
/// assert_eq!(hints.stm_retries, Some(128));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxHints {
    /// Override the hardware-retry budget for this section.
    pub htm_retries: Option<u32>,
    /// Override the software-retry budget for this section.
    pub stm_retries: Option<u32>,
    /// Retry-time budget for this section, measured from dispatch. The
    /// runner checks it before every retry tier and serial-gate entry and
    /// clamps condvar waits to the remainder. Under
    /// [`TxRequest::try_run`] expiry surfaces as
    /// [`TxError::DeadlineExceeded`]; under the infallible
    /// [`TxRequest::run`] it forces the serial path instead
    /// (bounded retry time, no error channel needed).
    pub deadline: Option<Duration>,
}

impl TxHints {
    /// No overrides (same as `TxHints::default()`); starting point for the
    /// fluent setters.
    pub fn new() -> Self {
        TxHints::default()
    }

    /// Override the hardware-retry budget for this section.
    pub fn with_htm_retries(mut self, n: u32) -> Self {
        self.htm_retries = Some(n);
        self
    }

    /// Override the software-retry budget for this section.
    pub fn with_stm_retries(mut self, n: u32) -> Self {
        self.stm_retries = Some(n);
        self
    }

    /// Give this section a retry-time budget (see
    /// [`TxHints::deadline`]).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// `(htm_retries, stm_retries)` shorthand for [`TxRequest::hints`].
impl From<(u32, u32)> for TxHints {
    fn from((htm, stm): (u32, u32)) -> Self {
        TxHints::new().with_htm_retries(htm).with_stm_retries(stm)
    }
}

/// Staged configuration for a [`TmSystem`] (see [`TmSystem::builder`]).
///
/// Defaults reproduce `TmSystem::new(AlgoMode::HtmCondvar)`: default
/// [`TlePolicy`], default [`HtmConfig`], adaptation off.
#[derive(Debug, Clone, Default)]
pub struct TmSystemBuilder {
    mode: Option<AlgoMode>,
    policy: TlePolicy,
    htm_cfg: HtmConfig,
    adaptive: Option<AdaptiveConfig>,
    admission: Option<AdmissionConfig>,
}

impl TmSystemBuilder {
    /// The algorithm every lock inherits (default:
    /// [`AlgoMode::HtmCondvar`]).
    pub fn mode(mut self, mode: AlgoMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Retry/fallback policy knobs.
    pub fn policy(mut self, policy: TlePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Simulated-hardware configuration.
    pub fn htm_config(mut self, cfg: HtmConfig) -> Self {
        self.htm_cfg = cfg;
        self
    }

    /// Enable (with default thresholds) or disable the per-lock adaptive
    /// controller.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = if on {
            Some(AdaptiveConfig::default())
        } else {
            None
        };
        self
    }

    /// Enable the per-lock adaptive controller with explicit thresholds.
    pub fn adaptive_config(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = Some(cfg);
        self
    }

    /// Enable (with default thresholds) or disable the per-lock admission
    /// controller — the elide → serialize → shed degradation ladder (see
    /// [`crate::admission_decide`]). Adopted locks are stepped by
    /// [`TmSystem::controller_step`].
    pub fn admission(mut self, on: bool) -> Self {
        self.admission = if on {
            Some(AdmissionConfig::default())
        } else {
            None
        };
        self
    }

    /// Enable the per-lock admission controller with explicit thresholds.
    pub fn admission_config(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(cfg);
        self
    }

    /// Assemble the runtime.
    pub fn build(self) -> TmSystem {
        let mode = self.mode.unwrap_or(AlgoMode::HtmCondvar);
        TmSystem {
            stm: StmGlobal::new(mode.quiesce_policy()),
            htm: HtmGlobal::new(self.htm_cfg),
            gate: Gate::new(),
            stats: TxStats::new(),
            mode: AtomicU8::new(mode as u8),
            policy: self.policy,
            adaptive: self.adaptive,
            admission: self.admission,
            locks: parking_lot::Mutex::new(Vec::new()),
            switch_log: parking_lot::Mutex::new(Vec::new()),
            ctrl_steps: AtomicU64::new(0),
        }
    }
}

/// The assembled TLE runtime. One instance per process/benchmark-trial;
/// applications share it via `Arc`.
pub struct TmSystem {
    /// The software TM domain.
    pub stm: StmGlobal,
    /// The simulated hardware TM domain.
    pub htm: HtmGlobal,
    /// The serialization gate (irrevocability + fallback). Transactions
    /// only read it; the runtime's serial entries go through
    /// `TmSystem::enter_serial`, which sweeps both domains' presence words.
    pub gate: Gate,
    /// TLE-level statistics (serial fallbacks are counted here).
    pub stats: TxStats,
    mode: AtomicU8,
    policy: TlePolicy,
    /// Controller thresholds; `None` when adaptation is off.
    adaptive: Option<AdaptiveConfig>,
    /// Admission-ladder thresholds; `None` when admission control is off.
    admission: Option<AdmissionConfig>,
    /// Locks adopted into the controller (weak: the application owns them).
    locks: parking_lot::Mutex<Vec<Weak<LockInner>>>,
    /// Every per-lock mode switch, in application order.
    switch_log: parking_lot::Mutex<Vec<ModeSwitchEvent>>,
    /// Controller step counter (timestamps switch events).
    ctrl_steps: AtomicU64,
}

impl TmSystem {
    /// Start configuring a system (see [`TmSystemBuilder`]).
    pub fn builder() -> TmSystemBuilder {
        TmSystemBuilder::default()
    }

    /// Build a system running algorithm `mode` with default policy
    /// (sugar for `TmSystem::builder().mode(mode).build()`).
    pub fn new(mode: AlgoMode) -> Self {
        Self::builder().mode(mode).build()
    }

    /// The global algorithm (locks may carry per-lock overrides; see
    /// [`ElidableMutex::resolved_mode`]).
    #[inline]
    pub fn mode(&self) -> AlgoMode {
        AlgoMode::try_from(self.mode.load(Ordering::Relaxed)).expect("corrupt mode byte")
    }

    /// Switch the global algorithm. Only call between phases (no
    /// transactions in flight); benchmarks use this to sweep modes over one
    /// data set. Per-lock overrides installed by the controller or
    /// [`TmSystem::set_lock_mode`] are unaffected.
    pub fn set_mode(&self, mode: AlgoMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
        self.stm.set_policy(mode.quiesce_policy());
    }

    /// The retry/fallback policy.
    #[inline]
    pub fn policy(&self) -> &TlePolicy {
        &self.policy
    }

    /// Whether the per-lock adaptive controller is configured.
    #[inline]
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive.is_some()
    }

    /// The controller thresholds, when adaptation is on.
    pub fn adaptive_config(&self) -> Option<&AdaptiveConfig> {
        self.adaptive.as_ref()
    }

    /// Whether the per-lock admission controller is configured.
    #[inline]
    pub fn admission_enabled(&self) -> bool {
        self.admission.is_some()
    }

    /// The admission-ladder thresholds, when admission control is on.
    pub fn admission_config(&self) -> Option<&AdmissionConfig> {
        self.admission.as_ref()
    }

    /// Select the software-TM algorithm (`ml_wt`, the paper's; or NOrec,
    /// the privatization-safe-by-construction ablation). Takes effect for
    /// subsequently started transactions; switch only between phases.
    pub fn set_stm_algo(&self, algo: tle_stm::StmAlgo) {
        self.stm.set_algo(algo);
    }

    /// Adopt `lock` into the adaptive/admission controllers: subsequent
    /// [`controller_step`](TmSystem::controller_step) calls sample its
    /// outcome window and may switch its mode (adaptive) or move it along
    /// the elide → serialize → shed ladder (admission). Idempotent; a no-op
    /// when the system was built without [`TmSystemBuilder::adaptive`] or
    /// [`TmSystemBuilder::admission`].
    pub fn adopt_lock(&self, lock: &ElidableMutex) {
        if !self.adaptive_enabled() && !self.admission_enabled() {
            return;
        }
        let inner = lock.inner();
        let mut locks = self.locks.lock();
        if locks.iter().any(|w| w.as_ptr() == Arc::as_ptr(inner)) {
            return;
        }
        inner.domain().set_adopted();
        locks.push(Arc::downgrade(inner));
    }

    /// Manually pin `lock` to `mode`, overriding the global algorithm (and
    /// suspending the controller's opinion until its next decision). Uses
    /// the full mode-flip exclusion protocol, so it is safe while worker
    /// threads are running — but must not be called from inside a critical
    /// section (it would self-deadlock on the serialization gate).
    ///
    /// Pinning [`AlgoMode::StmCondvarNoQuiesce`] counts as the per-lock
    /// `TM_NoQuiesce` opt-in (it is an explicit application assertion).
    pub fn set_lock_mode(&self, lock: &ElidableMutex, mode: AlgoMode) {
        if mode == AlgoMode::StmCondvarNoQuiesce {
            self.opt_in_no_quiesce(lock);
        }
        self.flip_lock(lock.inner(), Some(mode), SwitchReason::Manual);
    }

    /// Remove `lock`'s per-lock override so it inherits the global
    /// algorithm again. Same exclusion protocol as
    /// [`set_lock_mode`](TmSystem::set_lock_mode).
    pub fn clear_lock_mode(&self, lock: &ElidableMutex) {
        self.flip_lock(lock.inner(), None, SwitchReason::Manual);
    }

    /// Per-lock `TM_NoQuiesce` opt-in: every software transaction under
    /// `lock` asserts it does not privatize, skipping the post-commit
    /// quiescence drain. This is a **correctness contract** the application
    /// makes (paper §IV-B); the adaptive controller never infers it.
    pub fn set_lock_no_quiesce(&self, lock: &ElidableMutex, on: bool) {
        if on {
            self.opt_in_no_quiesce(lock);
        } else {
            lock.domain().set_no_quiesce(false);
        }
    }

    fn opt_in_no_quiesce(&self, lock: &ElidableMutex) {
        lock.domain().set_no_quiesce(true);
        // The per-transaction assertion only matters under the Selective
        // policy; upgrade a default Always domain so the opt-in takes
        // effect (Never is left alone — it already skips every drain).
        if self.stm.policy() == QuiescePolicy::Always {
            self.stm.set_policy(QuiescePolicy::Selective);
        }
    }

    /// One sweep of the serial handshake's load half: every STM slot reads
    /// `INACTIVE` and every HTM lifecycle word `IDLE`, with `SeqCst` loads
    /// (see `tle_base::gate`).
    pub(crate) fn presence_idle(&self) -> bool {
        // Seeded bug: the sweep is deleted and the serial section starts
        // beside transactions that began before the gate closed.
        mutant::armed(Mutant::GateSkipSweep)
            || (self.stm.slots.all_inactive() && self.htm.all_idle())
    }

    /// Enter serial-irrevocable mode, blocking: take the gate, then sweep
    /// until no transaction is present. With
    /// [`enter_serial_async`](Self::enter_serial_async) the only way the
    /// runtime obtains a serial token — the serial section, a mode flip and
    /// the excluded ring removal, under both drivers — so none can exist
    /// that has not swept.
    pub(crate) fn enter_serial(&self) -> SerialToken<'_> {
        self.gate.enter_serial(|| self.presence_idle())
    }

    /// [`enter_serial`](Self::enter_serial) for an executor worker:
    /// suspends on another serial section's exit, and sweeps once per poll
    /// with the worker yielded in between.
    pub(crate) fn enter_serial_async(
        &self,
    ) -> impl std::future::Future<Output = SerialToken<'_>> + '_ {
        self.gate.enter_serial_async(|| self.presence_idle())
    }

    /// Install (or clear) a per-lock mode override under **total
    /// exclusion**: serial gate (waits out and turns away every concurrent
    /// and serial transactional section), the raw mutex (blocks baseline
    /// sections), and the adaptive lock word (blocks glibc-style lock-path
    /// holders and dooms subscribed hardware transactions). The domain
    /// epoch is bumped inside the exclusion; runners re-check it after
    /// taking their own foothold and re-dispatch on mismatch.
    fn flip_lock(&self, inner: &Arc<LockInner>, to: Option<AlgoMode>, reason: SwitchReason) {
        let serial = self.enter_serial();
        let guard = inner.raw().lock();
        // Adaptive word: same acquisition as the glibc lock path.
        let word = inner.held_cell().word();
        let mut spins = 0u32;
        while word
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.htm.invalidate(inner.held_cell());
        // Lazy modes never subscribe the word's line, so the invalidation
        // above cannot reach them: bump the acquisition seqlock (new lazy
        // begins refuse) and sweep-doom every active transaction. Flips are
        // rare, so doing this unconditionally (rather than only when the
        // old or new resolved mode is lazy) costs nothing.
        inner.seq_bump();
        self.htm.doom_all_active();

        let domain = inner.domain();
        let from = domain.resolved(self.mode());
        domain.set_override(to);
        let to_mode = domain.resolved(self.mode());
        domain.bump_epoch();
        domain.window.reset();
        domain.reset_dwell();
        domain.set_last_reason(reason);

        if from != to_mode {
            domain.note_switch();
            let step = self.ctrl_steps.load(Ordering::SeqCst);
            let cause = match reason {
                SwitchReason::Capacity => Some(AbortCause::Capacity),
                SwitchReason::ConflictStorm => Some(AbortCause::Conflict),
                _ => None,
            };
            trace::emit(
                TraceKind::ModeSwitch,
                TxMode::Serial,
                cause,
                ((from as u64) << 8) | to_mode as u64,
            );
            self.switch_log.lock().push(ModeSwitchEvent {
                step,
                lock: inner.name().to_string(),
                from,
                to: to_mode,
                reason,
            });
        }

        inner.held_cell().store_direct(false);
        // Restore even parity: lazy speculation may resume.
        inner.seq_bump();
        drop(guard);
        drop(serial);
    }

    /// One controller sampling step over every adopted lock: bump dwell,
    /// snapshot the window, apply [`crate::decide`] (mode adaptation) and
    /// [`crate::admission_decide`] (degradation ladder), and either flip the
    /// lock (which resets its window) or advance its window ring. Returns
    /// the number of locks switched or re-stepped this step. Call from a
    /// management thread (never from inside a critical section), or let
    /// [`start_controller`](TmSystem::start_controller) drive it.
    pub fn controller_step(&self) -> usize {
        if self.adaptive.is_none() && self.admission.is_none() {
            return 0;
        }
        self.ctrl_steps.fetch_add(1, Ordering::SeqCst);
        let live: Vec<Arc<LockInner>> = {
            let mut locks = self.locks.lock();
            locks.retain(|w| w.strong_count() > 0);
            locks.iter().filter_map(|w| w.upgrade()).collect()
        };
        let mut switched = 0;
        for inner in live {
            let domain = inner.domain();
            let snap = domain.window.snapshot();
            let mut flipped = false;
            if let Some(cfg) = self.adaptive.as_ref() {
                let mode = domain.resolved(self.mode());
                let dwelled = domain.bump_dwell();
                if let Some((to, reason)) =
                    crate::domain::decide(mode, &snap, dwelled, domain.last_reason(), cfg)
                {
                    self.flip_lock(&inner, Some(to), reason);
                    switched += 1;
                    flipped = true;
                }
            }
            if let Some(cfg) = self.admission.as_ref() {
                let step = domain.admission_step();
                let dwelled = domain.bump_adm_dwell();
                let peak = domain.take_queue_peak();
                if let Some(next) = admission_decide(step, &snap, peak, dwelled, cfg) {
                    domain.set_admission_step(next);
                    switched += 1;
                }
            }
            // A mode flip already reset the window inside its exclusion
            // section; rolling here would discard a fresh (empty) slice.
            if !flipped {
                domain.window.roll();
            }
        }
        switched
    }

    /// Spawn a background thread calling
    /// [`controller_step`](TmSystem::controller_step) every `interval`.
    /// The returned handle stops and joins the thread when dropped.
    pub fn start_controller(self: &Arc<Self>, interval: Duration) -> ControllerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let sys = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("tle-adapt".into())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    sys.controller_step();
                }
            })
            .expect("spawn adaptive controller thread");
        ControllerHandle {
            stop,
            join: Some(join),
        }
    }

    /// Every per-lock mode switch so far, in application order
    /// (controller decisions and manual pins alike).
    pub fn mode_switches(&self) -> Vec<ModeSwitchEvent> {
        self.switch_log.lock().clone()
    }

    /// Register the calling thread, claiming STM and HTM slots. The handle
    /// is the capability through which critical sections run.
    pub fn register(self: &Arc<Self>) -> ThreadHandle {
        match self.try_register() {
            Some(th) => th,
            None => panic!("out of STM/HTM thread slots"),
        }
    }

    /// Fallible twin of [`register`](TmSystem::register): `None` when the
    /// slot registries are exhausted instead of panicking. The async runner
    /// uses this to claim *transient* slots per critical section (thousands
    /// of logical sessions share a bounded slot pool), backing off with a
    /// scheduler yield until a slot frees up.
    pub fn try_register(self: &Arc<Self>) -> Option<ThreadHandle> {
        let stm_slot = self.stm.slots.register_raw()?;
        let htm_slot = match self.htm.slots.register_raw() {
            Some(s) => s,
            None => {
                self.stm.slots.unregister_raw(stm_slot);
                return None;
            }
        };
        Some(ThreadHandle {
            sys: Arc::clone(self),
            stm_slot,
            htm_slot,
            consec_aborts: AtomicU32::new(0),
        })
    }

    /// Reset all statistics — any recorded trace events and the mode-switch
    /// log included — between benchmark trials.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.stm.stats.reset();
        self.htm.stats.reset();
        self.switch_log.lock().clear();
        tle_base::trace::clear();
    }

    /// Snapshot every domain's counters at once.
    pub fn domain_stats(&self) -> DomainStats {
        DomainStats {
            mode: self.mode(),
            tle: self.stats.snapshot(),
            stm: self.stm.stats.snapshot(),
            htm: self.htm.stats.snapshot(),
        }
    }

    /// Render the Figure-4-style abort breakdown for the current counters,
    /// plus a per-lock section for adopted locks (resolved mode, window
    /// contents, switch count).
    pub fn report(&self) -> String {
        let mut out = self.domain_stats().report();
        let live: Vec<Arc<LockInner>> = self
            .locks
            .lock()
            .iter()
            .filter_map(|w| w.upgrade())
            .collect();
        if !live.is_empty() {
            let _ = writeln!(
                out,
                "  {:<18} {:>22} {:>8} {:>8} {:>8} {:>8}",
                "lock", "mode", "commits", "aborts", "serial", "switches"
            );
            for inner in live {
                let d = inner.domain();
                let s = d.window.snapshot();
                let _ = writeln!(
                    out,
                    "  {:<18} {:>22} {:>8} {:>8} {:>8} {:>8}",
                    inner.name(),
                    d.resolved(self.mode()).label(),
                    s.commits,
                    s.aborts(),
                    s.serial,
                    d.switch_count()
                );
            }
        }
        let switches = self.switch_log.lock();
        if !switches.is_empty() {
            let _ = writeln!(out, "  mode switches: {}", switches.len());
            for ev in switches.iter() {
                let _ = writeln!(out, "    {ev}");
            }
        }
        out
    }
}

/// Owner of the background adaptive-controller thread (see
/// [`TmSystem::start_controller`]); stops and joins it on drop.
pub struct ControllerHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ControllerHandle {
    /// Stop the controller thread and wait for it to exit.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// A point-in-time view of every domain's statistics.
///
/// [`DomainStats::report`] renders the measured equivalent of the paper's
/// Figure 4: per-domain commit/abort totals and a per-cause abort breakdown,
/// plus quiescence-drain latency when the STM domain drained.
#[derive(Debug, Clone, Copy)]
pub struct DomainStats {
    /// Algorithm active when the snapshot was taken.
    pub mode: AlgoMode,
    /// TLE-runtime counters (serial commits and fallbacks).
    pub tle: TxStatsSnapshot,
    /// Software-TM domain counters.
    pub stm: TxStatsSnapshot,
    /// Simulated-hardware domain counters.
    pub htm: TxStatsSnapshot,
}

impl DomainStats {
    /// The STM drain-latency distribution (shortcut for plots/tests).
    pub fn quiesce_hist(&self) -> &LatencyHistSnapshot {
        &self.stm.quiesce_hist
    }

    /// Total aborts of `cause` across the STM and HTM domains.
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.stm.cause(cause) + self.htm.cause(cause)
    }

    /// Render a Figure-4-style table: per-domain totals, then one row per
    /// abort cause that actually occurred.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "abort breakdown [{}]", self.mode.label());
        let _ = writeln!(
            out,
            "  {:<18} {:>12} {:>12} {:>8}",
            "domain", "commits", "aborts", "abort%"
        );
        for (name, s) in [
            ("stm", &self.stm),
            ("htm", &self.htm),
            ("serial", &self.tle),
        ] {
            let _ = writeln!(
                out,
                "  {:<18} {:>12} {:>12} {:>7.2}%",
                name,
                s.commits,
                s.aborts,
                s.abort_rate() * 100.0
            );
        }
        let _ = writeln!(out, "  serial fallbacks: {}", self.tle.serial_fallbacks);
        let _ = writeln!(out, "  {:<18} {:>12} {:>12}", "cause", "stm", "htm");
        for c in AbortCause::ALL {
            let (s, h) = (self.stm.cause(c), self.htm.cause(c));
            if s == 0 && h == 0 {
                continue;
            }
            let _ = writeln!(out, "  {:<18} {:>12} {:>12}", c.label(), s, h);
        }
        if self.stm.quiesces > 0 {
            let _ = writeln!(
                out,
                "  quiesce drains: {} skipped: {} wait: {} ({})",
                self.stm.quiesces,
                self.stm.quiesce_skipped,
                fmt_ns(self.stm.quiesce_wait_ns),
                self.stm.quiesce_hist.summary()
            );
        }
        out
    }
}

/// A registered thread's capability to run elided critical sections.
///
/// `Sync` by construction (all interior state is atomic): the async entry
/// points hold `&ThreadHandle` across `.await` points, so the futures they
/// return must be `Send`. Nested-section detection lives in a thread-local
/// inside the runner (see `runner::NestGuard`), not in the handle — it
/// guards *closure re-entry on one OS thread*, which is exactly what a
/// thread-local scoped to the synchronous closure call expresses, and it
/// keeps working when one handle is shared across executor workers.
pub struct ThreadHandle {
    pub(crate) sys: Arc<TmSystem>,
    pub(crate) stm_slot: usize,
    pub(crate) htm_slot: usize,
    /// Consecutive concurrent-attempt aborts, across critical sections;
    /// input to the starvation-escalation ladder
    /// ([`TlePolicy::escalation_bound`]).
    pub(crate) consec_aborts: AtomicU32,
}

impl ThreadHandle {
    /// The system this handle belongs to.
    #[inline]
    pub fn system(&self) -> &Arc<TmSystem> {
        &self.sys
    }

    /// This thread's STM slot index (used as a statistics shard hint).
    #[inline]
    pub fn shard(&self) -> usize {
        self.stm_slot
    }

    /// Current consecutive-abort count (starvation-ladder diagnostics; see
    /// [`TlePolicy::escalation_bound`]).
    #[inline]
    pub fn consecutive_aborts(&self) -> u32 {
        self.consec_aborts.load(Ordering::Relaxed)
    }

    /// Start building a critical-section request on `lock`.
    ///
    /// This is the unified entry point: configure with
    /// [`hints`](TxRequest::hints) / [`deadline_us`](TxRequest::deadline_us),
    /// then finish with one terminal — [`run`](TxRequest::run) (infallible),
    /// [`try_run`](TxRequest::try_run) (deadline/shed surface as `Err`), or
    /// their async twins [`run_async`](TxRequest::run_async) /
    /// [`try_run_async`](TxRequest::try_run_async).
    ///
    /// ```
    /// # use std::sync::Arc;
    /// use tle_core::{AlgoMode, ElidableMutex, TmSystem};
    /// let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    /// let th = sys.register();
    /// let lock = ElidableMutex::new("doc");
    /// let r = th.tx(&lock).run(|_ctx| Ok(42));
    /// assert_eq!(r, 42);
    /// ```
    #[inline]
    pub fn tx<'a>(&'a self, lock: &'a ElidableMutex) -> TxRequest<'a> {
        TxRequest {
            th: self,
            lock,
            hints: TxHints::default(),
        }
    }
}

/// A critical-section request under construction: the lock, the policy
/// hints, and (once a terminal is called) the body. Built by
/// [`ThreadHandle::tx`]; consumed by one of the four terminals.
///
/// Under [`AlgoMode::Baseline`] the terminals acquire the real mutex; under
/// the TM modes they elide the lock and execute the body transactionally,
/// retrying on conflicts and falling back to global serialization per the
/// [`TlePolicy`]. The algorithm is the lock's *resolved* mode: its per-lock
/// override when the adaptive controller (or [`TmSystem::set_lock_mode`])
/// installed one, else the global mode. The body may run many times and
/// must be free of non-transactional side effects (use [`TxCtx::defer`]
/// for I/O-style effects, or [`TxCtx::unsafe_op`] to force irrevocability).
///
/// The body closure is always **synchronous**, even under the async
/// terminals: an atomic block never suspends mid-speculation (that would
/// pin orecs/lines across arbitrary scheduling delays — see `tle-lint`
/// rule R6). The async terminals suspend only *between* attempts: gate
/// entry, condvar waits, quiescence drains, and backoff.
#[must_use = "a TxRequest does nothing until a terminal (`run`, `try_run`, `run_async`, `try_run_async`) consumes it"]
pub struct TxRequest<'a> {
    pub(crate) th: &'a ThreadHandle,
    pub(crate) lock: &'a ElidableMutex,
    pub(crate) hints: TxHints,
}

impl<'a> TxRequest<'a> {
    /// Attach per-section policy hints (anything [`Into<TxHints>`], e.g. a
    /// `TxHints` value or an `(htm_retries, stm_retries)` pair).
    ///
    /// This implements the tuning interface the paper calls for in §VII-A
    /// ("it would be beneficial for programmers to be able to suggest retry
    /// policies on a transaction-by-transaction basis: for queues that are
    /// expected to be un-contended, more retries before serialization might
    /// be appropriate") — a capability the C++ TMTS does not offer.
    #[inline]
    pub fn hints(mut self, hints: impl Into<TxHints>) -> Self {
        let h: TxHints = hints.into();
        // Merge instead of replace so `.deadline_us(..).hints(..)` and the
        // reverse order agree: explicit fields win, unset fields keep what
        // the request already had.
        self.hints = TxHints {
            htm_retries: h.htm_retries.or(self.hints.htm_retries),
            stm_retries: h.stm_retries.or(self.hints.stm_retries),
            deadline: h.deadline.or(self.hints.deadline),
        };
        self
    }

    /// Give the section a time budget of `us` microseconds (shorthand for
    /// `hints(TxHints::new().with_deadline(..))`). Under [`run`] an expired
    /// budget forces the serial path; under [`try_run`] it surfaces as
    /// [`TxError::DeadlineExceeded`]. The budget also clamps transactional
    /// condvar waits.
    ///
    /// ```
    /// # use std::sync::Arc;
    /// use tle_core::{AlgoMode, ElidableMutex, TmSystem};
    /// let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    /// let th = sys.register();
    /// let lock = ElidableMutex::new("doc");
    /// let r = th.tx(&lock).deadline_us(5_000).try_run(|_ctx| Ok(42));
    /// assert_eq!(r.unwrap(), 42);
    /// ```
    ///
    /// [`run`]: TxRequest::run
    /// [`try_run`]: TxRequest::try_run
    #[inline]
    pub fn deadline_us(mut self, us: u64) -> Self {
        self.hints.deadline = Some(Duration::from_micros(us));
        self
    }

    /// Run the section, infallibly: deadline expiry serializes instead of
    /// erroring and an admission shed degrades to serialization, so the
    /// caller always gets the body's `Ok` value.
    #[inline]
    pub fn run<R>(self, body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>) -> R {
        match runner::run(self.th, self.lock, self.hints, body, false) {
            Ok(r) => r,
            // Infallible entry: deadline expiry serializes instead of
            // erroring and shed degrades to serialize, so neither escapes.
            Err(e) => unreachable!("infallible run produced {e:?}"),
        }
    }

    /// Run the section, fallibly: deadline expiry
    /// ([`TxHints::with_deadline`]) surfaces as
    /// [`TxError::DeadlineExceeded`] and an admission-controller shed as
    /// [`TxError::Overloaded`], instead of forcing the serial path. The
    /// body's own `Err` returns (other than [`TxError::Abort`] /
    /// [`TxError::Wait`], which drive retry) are not passed through — this
    /// is about *runner*-raised errors; on success the body's `Ok` value is
    /// returned unchanged.
    ///
    /// Failure is all-or-nothing: a deadline or shed rejection happens at a
    /// retry-ladder decision point, never mid-attempt, so no section
    /// effects have been published when `Err` comes back.
    #[inline]
    pub fn try_run<R>(
        self,
        body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
    ) -> Result<R, TxError> {
        runner::run(self.th, self.lock, self.hints, body, true)
    }

    /// Async twin of [`run`](TxRequest::run): resolves to the body's `Ok`
    /// value. The body stays synchronous (see the type-level docs); waiting
    /// — gate entry, condvar blocks, quiescence drains, backoff — suspends
    /// the task instead of parking the OS thread, so thousands of logical
    /// sessions can share a few executor workers.
    pub async fn run_async<R>(self, body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>) -> R {
        match crate::runner_async::run_async(self.th, self.lock, self.hints, body, false).await {
            Ok(r) => r,
            Err(e) => unreachable!("infallible run_async produced {e:?}"),
        }
    }

    /// Async twin of [`try_run`](TxRequest::try_run): deadline expiry and
    /// admission sheds surface as `Err`. [`deadline_us`] composes — the
    /// budget clamps async condvar waits and quiescence drains too.
    ///
    /// [`deadline_us`]: TxRequest::deadline_us
    pub async fn try_run_async<R>(
        self,
        body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
    ) -> Result<R, TxError> {
        crate::runner_async::run_async(self.th, self.lock, self.hints, body, true).await
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        self.sys.stm.slots.unregister_raw(self.stm_slot);
        self.sys.htm.slots.unregister_raw(self.htm_slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(AlgoMode::Baseline.label(), "pthread");
        assert_eq!(AlgoMode::StmSpin.label(), "STM+Spin");
        assert_eq!(AlgoMode::StmCondvar.label(), "STM+CondVar");
        assert_eq!(
            AlgoMode::StmCondvarNoQuiesce.label(),
            "STM+CondVar+NoQuiesce"
        );
        assert_eq!(AlgoMode::HtmCondvar.label(), "HTM+CondVar");
        assert_eq!(AlgoMode::AdaptiveHtmLazy.label(), "AdaptiveHTM(lazy)");
        assert_eq!(
            AlgoMode::AdaptiveHtmLazyUnsafe.label(),
            "AdaptiveHTM(lazy-unsafe)"
        );
    }

    #[test]
    fn mode_u8_roundtrip() {
        for m in crate::ALL_MODES {
            assert_eq!(AlgoMode::try_from(m as u8), Ok(m));
        }
        assert_eq!(AlgoMode::try_from(5), Ok(AlgoMode::AdaptiveHtm));
        assert_eq!(AlgoMode::try_from(6), Ok(AlgoMode::AdaptiveHtmLazy));
        assert_eq!(AlgoMode::try_from(7), Ok(AlgoMode::AdaptiveHtmLazyUnsafe));
    }

    #[test]
    fn invalid_mode_bytes_are_rejected() {
        for v in [8u8, 100, u8::MAX] {
            assert_eq!(AlgoMode::try_from(v), Err(InvalidAlgoMode(v)));
        }
        let msg = InvalidAlgoMode(9).to_string();
        assert!(msg.contains('9'));
    }

    #[test]
    fn mode_family_helpers_are_consistent() {
        for v in 0..=7u8 {
            let m = AlgoMode::try_from(v).unwrap();
            if m.is_lazy() {
                assert!(m.is_glibc_family(), "{m:?}: lazy implies glibc-family");
            }
            if m.is_lazy_unsafe() {
                assert!(m.is_lazy(), "{m:?}: unsafe implies lazy");
            }
            if m.is_glibc_family() {
                assert!(m.is_transactional());
            }
        }
        assert!(!AlgoMode::AdaptiveHtm.is_lazy());
        assert!(AlgoMode::AdaptiveHtmLazy.is_lazy());
        assert!(!AlgoMode::AdaptiveHtmLazy.is_lazy_unsafe());
        assert!(AlgoMode::AdaptiveHtmLazyUnsafe.is_lazy_unsafe());
    }

    #[test]
    fn mode_from_str_accepts_cli_spellings() {
        for (s, m) in [
            ("baseline", AlgoMode::Baseline),
            ("pthread", AlgoMode::Baseline),
            ("stm-spin", AlgoMode::StmSpin),
            ("stm", AlgoMode::StmCondvar),
            ("stm-condvar", AlgoMode::StmCondvar),
            ("stm-noquiesce", AlgoMode::StmCondvarNoQuiesce),
            ("htm", AlgoMode::HtmCondvar),
            ("htm-condvar", AlgoMode::HtmCondvar),
            ("adaptive-htm", AlgoMode::AdaptiveHtm),
            ("adaptive", AlgoMode::AdaptiveHtm),
            ("adaptive-htm-lazy", AlgoMode::AdaptiveHtmLazy),
            ("lazy", AlgoMode::AdaptiveHtmLazy),
            ("adaptive-htm-lazy-unsafe", AlgoMode::AdaptiveHtmLazyUnsafe),
            ("lazy-unsafe", AlgoMode::AdaptiveHtmLazyUnsafe),
        ] {
            assert_eq!(s.parse::<AlgoMode>(), Ok(m), "{s}");
        }
        let err = "xtm".parse::<AlgoMode>().unwrap_err();
        assert_eq!(err, ParseAlgoModeError("xtm".into()));
        assert!(err.to_string().contains("xtm"));
    }

    #[test]
    fn noquiesce_mode_selects_selective_policy() {
        assert_eq!(
            AlgoMode::StmCondvarNoQuiesce.quiesce_policy(),
            QuiescePolicy::Selective
        );
        assert_eq!(AlgoMode::StmCondvar.quiesce_policy(), QuiescePolicy::Always);
    }

    #[test]
    fn register_claims_and_releases_slots() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        {
            let _a = sys.register();
            let _b = sys.register();
            assert_eq!(sys.stm.slots.claimed_count(), 2);
            assert_eq!(sys.htm.slots.claimed_count(), 2);
        }
        assert_eq!(sys.stm.slots.claimed_count(), 0);
        assert_eq!(sys.htm.slots.claimed_count(), 0);
    }

    #[test]
    fn set_mode_updates_quiesce_policy() {
        let sys = TmSystem::new(AlgoMode::StmCondvar);
        assert_eq!(sys.stm.policy(), QuiescePolicy::Always);
        sys.set_mode(AlgoMode::StmCondvarNoQuiesce);
        assert_eq!(sys.stm.policy(), QuiescePolicy::Selective);
        assert_eq!(sys.mode(), AlgoMode::StmCondvarNoQuiesce);
    }

    #[test]
    fn default_policy_matches_paper_configuration() {
        let p = TlePolicy::default();
        assert_eq!(p.htm_retries, 2, "paper: serialize after two HTM failures");
        assert!(
            p.escalation_bound > p.stm_retries,
            "the starvation ladder must be a backstop, not the primary fallback"
        );
    }

    #[test]
    fn builder_defaults_match_new() {
        let a = TmSystem::builder().build();
        assert_eq!(a.mode(), AlgoMode::HtmCondvar);
        assert!(!a.adaptive_enabled());
        let b = TmSystem::builder().mode(AlgoMode::StmCondvar).build();
        let c = TmSystem::new(AlgoMode::StmCondvar);
        assert_eq!(b.mode(), c.mode());
        assert_eq!(b.policy().htm_retries, c.policy().htm_retries);
        assert_eq!(b.stm.policy(), c.stm.policy());
    }

    #[test]
    fn builder_adaptive_toggle() {
        let sys = TmSystem::builder().adaptive(true).build();
        assert!(sys.adaptive_enabled());
        assert_eq!(sys.adaptive_config().unwrap().min_dwell_steps, 4);
        let off = TmSystem::builder().adaptive(true).adaptive(false).build();
        assert!(!off.adaptive_enabled());
    }

    #[test]
    fn tx_hints_fluent_and_tuple() {
        let h = TxHints::new().with_htm_retries(3).with_stm_retries(9);
        assert_eq!(h.htm_retries, Some(3));
        assert_eq!(h.stm_retries, Some(9));
        let t: TxHints = (4u32, 8u32).into();
        assert_eq!(t, TxHints::new().with_htm_retries(4).with_stm_retries(8));
    }

    #[test]
    fn set_lock_mode_overrides_and_clears() {
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        let lock = ElidableMutex::new("pin");
        assert_eq!(lock.resolved_mode(sys.mode()), AlgoMode::HtmCondvar);
        sys.set_lock_mode(&lock, AlgoMode::Baseline);
        assert_eq!(lock.mode_override(), Some(AlgoMode::Baseline));
        assert_eq!(lock.switches(), 1);
        sys.clear_lock_mode(&lock);
        assert_eq!(lock.mode_override(), None);
        assert_eq!(lock.resolved_mode(sys.mode()), AlgoMode::HtmCondvar);
        let log = sys.mode_switches();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].to, AlgoMode::Baseline);
        assert_eq!(log[0].reason, SwitchReason::Manual);
    }

    #[test]
    fn no_quiesce_opt_in_upgrades_policy() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let lock = ElidableMutex::new("nq");
        assert_eq!(sys.stm.policy(), QuiescePolicy::Always);
        sys.set_lock_no_quiesce(&lock, true);
        assert!(lock.is_no_quiesce());
        assert_eq!(sys.stm.policy(), QuiescePolicy::Selective);
        sys.set_lock_no_quiesce(&lock, false);
        assert!(!lock.is_no_quiesce());
    }

    #[test]
    fn controller_step_without_adaptive_is_inert() {
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        let lock = ElidableMutex::new("inert");
        sys.adopt_lock(&lock); // no-op: adaptation off
        assert_eq!(sys.controller_step(), 0);
        assert!(!lock.domain().adopted());
    }

    #[test]
    fn adopt_is_idempotent_and_prunes_dead_locks() {
        let sys = Arc::new(TmSystem::builder().adaptive(true).build());
        let lock = ElidableMutex::new("adopt");
        sys.adopt_lock(&lock);
        sys.adopt_lock(&lock);
        assert_eq!(sys.locks.lock().len(), 1);
        drop(lock);
        sys.controller_step();
        assert!(sys.locks.lock().is_empty());
    }

    #[test]
    fn controller_demotes_capacity_dominated_htm_lock() {
        let cfg = AdaptiveConfig::default();
        let sys = Arc::new(TmSystem::builder().adaptive(true).build());
        let lock = ElidableMutex::new("cap");
        sys.adopt_lock(&lock);
        // Synthesize a capacity-heavy window, then step past the dwell
        // floor: the controller must demote to STM exactly once.
        for _ in 0..cfg.min_dwell_steps {
            lock.synthesize_window(60, 10, 30, 0);
            sys.controller_step();
        }
        assert_eq!(lock.mode_override(), Some(AlgoMode::StmCondvar));
        let log = sys.mode_switches();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].reason, SwitchReason::Capacity);
        assert_eq!(log[0].from, AlgoMode::HtmCondvar);
        // The flip reset the window: stale capacity evidence is gone.
        assert_eq!(lock.window_snapshot().attempts(), 0);
    }
}
