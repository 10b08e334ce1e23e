//! Per-lock policy domains and the adaptive mode controller's decision
//! logic.
//!
//! The paper's central empirical finding (§VI) is that **no single
//! synchronization algorithm wins across workloads**: HTM wins short
//! critical sections, STM wins capacity-bound ones, and the plain lock wins
//! conflict storms. A [`LockDomain`] therefore attaches the full policy
//! state — mode override, retry budgets, quiescence opt-in, and a sliding
//! [`StatWindow`] of per-cause outcomes — to each
//! [`ElidableMutex`](crate::ElidableMutex) instead of pinning one global
//! [`AlgoMode`] for the whole process.
//!
//! The controller ([`TmSystem::controller_step`](crate::TmSystem::controller_step))
//! samples each adopted lock's window and calls [`decide`], a **pure
//! function** from `(mode, window, dwell, history)` to an optional
//! transition — pure so the hysteresis and determinism properties are unit
//! testable without threads. The decision table (also in DESIGN.md §12):
//!
//! | current mode | window evidence                              | transition  | reason          |
//! |--------------|----------------------------------------------|-------------|-----------------|
//! | HTM          | capacity share of aborts ≥ threshold         | → STM       | `Capacity`      |
//! | HTM / STM    | abort rate or serial-fallback rate ≥ storm   | → Baseline  | `ConflictStorm` |
//! | STM          | commit rate ≥ promote threshold (no capacity history) | → HTM | `Promotion`  |
//! | Baseline     | dwelled ≥ probe period (no window evidence possible under the real lock) | → HTM | `Probe` |
//!
//! Hysteresis comes from three mechanisms working together: a **minimum
//! dwell** after any switch, a **minimum sample count** before the window is
//! trusted, and a **window reset** at each switch so stale evidence from the
//! previous mode cannot immediately bounce the lock back. Capacity demotions
//! additionally latch ([`LockDomain`] remembers the last switch reason):
//! software transactions cannot observe capacity aborts, so promotion back
//! to HTM is suppressed rather than guessed.
//!
//! `*NoQuiesce` is **never** a controller target and never a source: skipping
//! the privatization drain is a correctness contract only the application can
//! assert (paper §IV-B), so it remains strictly per-lock opt-in via
//! [`TmSystem::set_lock_no_quiesce`](crate::TmSystem::set_lock_no_quiesce).

use crate::system::AlgoMode;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use tle_base::{StatWindow, WindowSnapshot};

/// Sentinel in the packed override byte: inherit the system's global mode.
const MODE_INHERIT: u8 = u8::MAX;
/// Sentinel in the packed retry-budget words: inherit [`TlePolicy`]'s value.
///
/// [`TlePolicy`]: crate::TlePolicy
const RETRIES_INHERIT: u32 = u32::MAX;

/// Why the controller (or a manual call) switched a lock's mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SwitchReason {
    /// Capacity aborts dominated an HTM lock's window; retrying in hardware
    /// cannot help, software transactions can (paper §VII-B).
    Capacity = 0,
    /// The abort or serial-fallback rate crossed the storm threshold; the
    /// plain lock serves contended sections with no wasted speculation.
    ConflictStorm = 1,
    /// A software-transactional lock committed nearly everything; hardware
    /// elision is cheaper for the same behaviour.
    Promotion = 2,
    /// A baselined lock dwelled long enough; probe elision again to notice
    /// when the storm has passed.
    Probe = 3,
    /// Explicit [`TmSystem::set_lock_mode`](crate::TmSystem::set_lock_mode)
    /// call, not a controller decision.
    Manual = 4,
}

impl SwitchReason {
    /// Short stable label for reports and repro keys.
    pub fn label(self) -> &'static str {
        match self {
            SwitchReason::Capacity => "capacity",
            SwitchReason::ConflictStorm => "storm",
            SwitchReason::Promotion => "promotion",
            SwitchReason::Probe => "probe",
            SwitchReason::Manual => "manual",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        [
            SwitchReason::Capacity,
            SwitchReason::ConflictStorm,
            SwitchReason::Promotion,
            SwitchReason::Probe,
            SwitchReason::Manual,
        ]
        .get(v as usize)
        .copied()
    }
}

/// One recorded per-lock mode switch (see
/// [`TmSystem::mode_switches`](crate::TmSystem::mode_switches)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeSwitchEvent {
    /// Controller step counter at the time of the switch (0 for switches
    /// made before or outside controller stepping).
    pub step: u64,
    /// The lock's diagnostic name.
    pub lock: String,
    /// Mode the lock was leaving.
    pub from: AlgoMode,
    /// Mode the lock entered.
    pub to: AlgoMode,
    /// What triggered the switch.
    pub reason: SwitchReason,
}

impl std::fmt::Display for ModeSwitchEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {} -> {} ({})",
            self.step,
            self.lock,
            self.from.label(),
            self.to.label(),
            self.reason.label()
        )
    }
}

/// Thresholds for the adaptive controller. All rates are fractions in
/// `[0, 1]`; all step counts are in units of
/// [`controller_step`](crate::TmSystem::controller_step) calls.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Steps a lock must dwell in a mode before any further switch
    /// (hysteresis floor).
    pub min_dwell_steps: u32,
    /// Attempts the window must contain before its rates are trusted;
    /// below this the controller keeps observing.
    pub min_window_samples: u64,
    /// Capacity share of aborts at which an HTM lock demotes to STM.
    pub capacity_demote_share: f64,
    /// Abort rate at which a transactional lock falls back to Baseline.
    pub storm_abort_rate: f64,
    /// Serial-fallback rate at which a transactional lock falls back to
    /// Baseline (fallbacks serialize globally, which is worse than the
    /// original per-lock mutex — paper §IV-A).
    pub storm_fallback_rate: f64,
    /// Commit rate at which an STM lock promotes to HTM.
    pub promote_commit_rate: f64,
    /// Steps a Baseline lock dwells before probing elision again.
    pub baseline_probe_steps: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_dwell_steps: 4,
            min_window_samples: 64,
            capacity_demote_share: 0.30,
            storm_abort_rate: 0.60,
            storm_fallback_rate: 0.25,
            promote_commit_rate: 0.98,
            baseline_probe_steps: 8,
        }
    }
}

/// The adaptive decision function — **pure**, so hysteresis is testable
/// against synthetic windows with no threads involved.
///
/// Inputs: the lock's currently resolved `mode`, the summed stat `window`,
/// the number of controller steps the lock has `dwelled` in this mode, and
/// the reason for the *last* switch (capacity demotions latch: STM cannot
/// observe capacity aborts, so promotion back to HTM is suppressed).
///
/// Returns `Some((target, reason))` when the lock should switch, `None` to
/// stay put. Never returns a `*NoQuiesce` target or any member of the
/// glibc-style elision family (`AdaptiveHtm` and the lazy-subscription
/// modes, which are opt-in only).
pub fn decide(
    mode: AlgoMode,
    window: &WindowSnapshot,
    dwelled: u32,
    last_reason: Option<SwitchReason>,
    cfg: &AdaptiveConfig,
) -> Option<(AlgoMode, SwitchReason)> {
    if dwelled < cfg.min_dwell_steps {
        return None;
    }
    match mode {
        // The real lock generates no abort evidence; probe on a timer.
        AlgoMode::Baseline => {
            if dwelled >= cfg.baseline_probe_steps {
                Some((AlgoMode::HtmCondvar, SwitchReason::Probe))
            } else {
                None
            }
        }
        AlgoMode::HtmCondvar => {
            if window.attempts() < cfg.min_window_samples {
                return None;
            }
            // Capacity first: a capacity-bound section also aborts a lot,
            // but STM — not the lock — is the informed response (§VII-B).
            if window.capacity_share() >= cfg.capacity_demote_share {
                return Some((AlgoMode::StmCondvar, SwitchReason::Capacity));
            }
            if window.abort_rate() >= cfg.storm_abort_rate
                || window.fallback_rate() >= cfg.storm_fallback_rate
            {
                return Some((AlgoMode::Baseline, SwitchReason::ConflictStorm));
            }
            None
        }
        AlgoMode::StmSpin | AlgoMode::StmCondvar => {
            if window.attempts() < cfg.min_window_samples {
                return None;
            }
            if window.abort_rate() >= cfg.storm_abort_rate
                || window.fallback_rate() >= cfg.storm_fallback_rate
            {
                return Some((AlgoMode::Baseline, SwitchReason::ConflictStorm));
            }
            if window.commit_rate() >= cfg.promote_commit_rate
                && last_reason != Some(SwitchReason::Capacity)
            {
                return Some((AlgoMode::HtmCondvar, SwitchReason::Promotion));
            }
            None
        }
        // NoQuiesce is an application correctness contract; the glibc-style
        // elision family (eager and lazy subscription alike) carries its
        // own adaptation, and the lazy modes are opt-in only — the
        // controller never enters or leaves any of them.
        AlgoMode::StmCondvarNoQuiesce | AlgoMode::AdaptiveHtm | AlgoMode::AdaptiveHtmLazy => None,
        #[cfg(any(test, debug_assertions, feature = "unsafe-modes"))]
        AlgoMode::AdaptiveHtmLazyUnsafe => None,
    }
}

/// One step of the admission controller's degradation ladder. Ordered:
/// overload walks the lock down one step at a time
/// (elide → serialize → shed) and recovery walks it back up the same way —
/// [`admission_decide`] never returns a two-step jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AdmissionStep {
    /// Normal operation: sections run under the lock's resolved mode.
    Elide = 0,
    /// Overload suspected: speculation is wasted work, so sections are
    /// routed straight to the serial path (no retry ladder to burn).
    Serialize = 1,
    /// Overload confirmed: fallible sections are refused at dispatch with
    /// [`TxError::Overloaded`](crate::TxError::Overloaded) so the hot lock
    /// fails fast instead of collapsing every caller. Infallible sections
    /// (plain [`run`](crate::TxRequest::run)) cannot observe
    /// errors and are serialized instead.
    Shed = 2,
}

impl AdmissionStep {
    /// Every step, in ladder order.
    pub const ALL: [AdmissionStep; 3] = [
        AdmissionStep::Elide,
        AdmissionStep::Serialize,
        AdmissionStep::Shed,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionStep::Elide => "elide",
            AdmissionStep::Serialize => "serialize",
            AdmissionStep::Shed => "shed",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }
}

/// Thresholds for the admission controller ([`admission_decide`]). Rates
/// are fractions in `[0, 1]`; step counts are in controller-step units;
/// queue depths count sections concurrently dispatched on the lock.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Steps the ladder must dwell on a step before moving again
    /// (hysteresis floor, like [`AdaptiveConfig::min_dwell_steps`]).
    pub min_dwell_steps: u32,
    /// Attempts the window must contain before its rates are trusted for
    /// the elide → serialize decision.
    pub min_window_samples: u64,
    /// Abort rate at which an eliding lock degrades to Serialize.
    /// Deliberately above [`AdaptiveConfig::storm_abort_rate`]: the mode
    /// controller gets first shot at fixing a storm; admission is the
    /// last resort.
    pub serialize_abort_rate: f64,
    /// Serial-fallback rate at which an eliding lock degrades to Serialize.
    pub serialize_fallback_rate: f64,
    /// Queue depth at which a serialized lock degrades to Shed: even with
    /// speculation off, arrivals outpace the serial path.
    pub shed_queue_depth: u64,
    /// Queue depth at or below which a degraded lock recovers one step.
    /// The wide gap to [`shed_queue_depth`](Self::shed_queue_depth) is the
    /// no-flap hysteresis band.
    pub recover_queue_depth: u64,
    /// Steps a Serialize lock dwells (with a shallow queue) before probing
    /// elision again.
    pub recover_probe_steps: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            min_dwell_steps: 4,
            min_window_samples: 64,
            serialize_abort_rate: 0.75,
            serialize_fallback_rate: 0.50,
            shed_queue_depth: 16,
            recover_queue_depth: 2,
            recover_probe_steps: 8,
        }
    }
}

/// The admission decision function — **pure**, like [`decide`], so the
/// ladder's hysteresis is testable against synthetic windows.
///
/// Inputs: the lock's current ladder `step`, its summed stat `window`, the
/// instantaneous `queue_depth` (sections concurrently dispatched on the
/// lock), and the number of controller steps the ladder has `dwelled` on
/// this step.
///
/// Returns `Some(next)` to move exactly one ladder step, `None` to stay
/// put. Degradation is driven by outcome rates and queue depth
/// (elide → serialize) then queue depth alone (serialize → shed); recovery
/// is queue-depth- and timer-driven, one step at a time. The queue signal
/// matters at Elide because overload does not always abort: long
/// write-lock waits serialize a hot lock while every attempt still
/// commits, leaving the outcome rates clean.
pub fn admission_decide(
    step: AdmissionStep,
    window: &WindowSnapshot,
    queue_depth: u64,
    dwelled: u32,
    cfg: &AdmissionConfig,
) -> Option<AdmissionStep> {
    if dwelled < cfg.min_dwell_steps {
        return None;
    }
    match step {
        AdmissionStep::Elide => {
            // The queue signal needs no sample floor: the gauge counts
            // sections dispatched right now, not a windowed estimate.
            if queue_depth >= cfg.shed_queue_depth {
                return Some(AdmissionStep::Serialize);
            }
            if window.attempts() < cfg.min_window_samples {
                return None;
            }
            if window.abort_rate() >= cfg.serialize_abort_rate
                || window.fallback_rate() >= cfg.serialize_fallback_rate
            {
                return Some(AdmissionStep::Serialize);
            }
            None
        }
        AdmissionStep::Serialize => {
            if queue_depth >= cfg.shed_queue_depth {
                return Some(AdmissionStep::Shed);
            }
            if queue_depth <= cfg.recover_queue_depth && dwelled >= cfg.recover_probe_steps {
                return Some(AdmissionStep::Elide);
            }
            None
        }
        AdmissionStep::Shed => {
            if queue_depth <= cfg.recover_queue_depth {
                return Some(AdmissionStep::Serialize);
            }
            None
        }
    }
}

/// Per-lock policy state. One lives inside every
/// [`ElidableMutex`](crate::ElidableMutex); the runner consults it on every
/// dispatch, the controller mutates it under the mode-flip exclusion
/// protocol (see `TmSystem::flip_lock`).
pub(crate) struct LockDomain {
    /// Packed mode override ([`MODE_INHERIT`] = follow the system mode).
    mode_override: AtomicU8,
    /// Flip epoch: bumped inside total exclusion on every resolved-mode
    /// change. Runners capture it at dispatch and re-check after taking
    /// their exclusion foothold; a mismatch forces a re-dispatch.
    epoch: AtomicU64,
    /// Per-lock hardware retry budget ([`RETRIES_INHERIT`] = policy value).
    htm_retries: AtomicU32,
    /// Per-lock software retry budget ([`RETRIES_INHERIT`] = policy value).
    stm_retries: AtomicU32,
    /// Per-lock `TM_NoQuiesce` opt-in: when set, every software transaction
    /// under this lock asserts it does not privatize.
    no_quiesce: AtomicBool,
    /// Whether the lock was adopted into a system's adaptive controller.
    adopted: AtomicBool,
    /// Sliding window of recent section outcomes.
    pub(crate) window: StatWindow,
    /// Controller steps since the last switch.
    dwell: AtomicU32,
    /// Last switch reason + 1 (0 = never switched).
    last_reason: AtomicU8,
    /// Lifetime switch count (diagnostics).
    switches: AtomicU64,
    /// Current admission-ladder step ([`AdmissionStep`] discriminant).
    admission: AtomicU8,
    /// Controller steps since the ladder last moved.
    adm_dwell: AtomicU32,
    /// Sections currently dispatched on this lock (inc at dispatch, dec at
    /// completion) — the admission controller's queue-depth signal.
    queue: AtomicU64,
    /// Deepest `queue` seen since the controller last looked. A controller
    /// tick sampling the instantaneous gauge would miss overload whose
    /// sections drain between ticks; the peak cannot be gamed by timing.
    queue_peak: AtomicU64,
    /// Highest admission step the ladder ever reached (diagnostics; the
    /// ladder may have recovered long before anyone asks).
    adm_high: AtomicU8,
}

impl LockDomain {
    pub(crate) fn new() -> Self {
        LockDomain {
            mode_override: AtomicU8::new(MODE_INHERIT),
            epoch: AtomicU64::new(0),
            htm_retries: AtomicU32::new(RETRIES_INHERIT),
            stm_retries: AtomicU32::new(RETRIES_INHERIT),
            no_quiesce: AtomicBool::new(false),
            adopted: AtomicBool::new(false),
            window: StatWindow::new(),
            dwell: AtomicU32::new(0),
            last_reason: AtomicU8::new(0),
            switches: AtomicU64::new(0),
            admission: AtomicU8::new(AdmissionStep::Elide as u8),
            adm_dwell: AtomicU32::new(0),
            queue: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            adm_high: AtomicU8::new(AdmissionStep::Elide as u8),
        }
    }

    /// The per-lock override, if any.
    pub(crate) fn override_mode(&self) -> Option<AlgoMode> {
        let v = self.mode_override.load(Ordering::SeqCst);
        if v == MODE_INHERIT {
            None
        } else {
            Some(AlgoMode::try_from(v).expect("corrupt mode override byte"))
        }
    }

    /// The mode this lock actually runs under, given the system mode.
    pub(crate) fn resolved(&self, global: AlgoMode) -> AlgoMode {
        self.override_mode().unwrap_or(global)
    }

    /// Install an override (`None` = back to inherit). Only call under the
    /// flip exclusion protocol.
    pub(crate) fn set_override(&self, mode: Option<AlgoMode>) {
        let v = mode.map(|m| m as u8).unwrap_or(MODE_INHERIT);
        self.mode_override.store(v, Ordering::SeqCst);
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn htm_retries(&self, inherit: u32) -> u32 {
        match self.htm_retries.load(Ordering::Relaxed) {
            RETRIES_INHERIT => inherit,
            n => n,
        }
    }

    pub(crate) fn stm_retries(&self, inherit: u32) -> u32 {
        match self.stm_retries.load(Ordering::Relaxed) {
            RETRIES_INHERIT => inherit,
            n => n,
        }
    }

    pub(crate) fn set_retry_budgets(&self, htm: Option<u32>, stm: Option<u32>) {
        self.htm_retries.store(
            htm.map(|n| n.min(RETRIES_INHERIT - 1))
                .unwrap_or(RETRIES_INHERIT),
            Ordering::Relaxed,
        );
        self.stm_retries.store(
            stm.map(|n| n.min(RETRIES_INHERIT - 1))
                .unwrap_or(RETRIES_INHERIT),
            Ordering::Relaxed,
        );
    }

    pub(crate) fn no_quiesce(&self) -> bool {
        self.no_quiesce.load(Ordering::Relaxed)
    }

    pub(crate) fn set_no_quiesce(&self, on: bool) {
        self.no_quiesce.store(on, Ordering::Relaxed);
    }

    pub(crate) fn adopted(&self) -> bool {
        self.adopted.load(Ordering::Relaxed)
    }

    pub(crate) fn set_adopted(&self) {
        self.adopted.store(true, Ordering::Relaxed);
    }

    /// One controller step elapsed; returns the new dwell count.
    pub(crate) fn bump_dwell(&self) -> u32 {
        self.dwell.fetch_add(1, Ordering::Relaxed).saturating_add(1)
    }

    pub(crate) fn reset_dwell(&self) {
        self.dwell.store(0, Ordering::Relaxed);
    }

    pub(crate) fn last_reason(&self) -> Option<SwitchReason> {
        match self.last_reason.load(Ordering::Relaxed) {
            0 => None,
            v => SwitchReason::from_u8(v - 1),
        }
    }

    pub(crate) fn set_last_reason(&self, reason: SwitchReason) {
        self.last_reason.store(reason as u8 + 1, Ordering::Relaxed);
    }

    pub(crate) fn note_switch(&self) {
        self.switches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn switch_count(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// The lock's current admission-ladder step.
    pub(crate) fn admission_step(&self) -> AdmissionStep {
        AdmissionStep::from_u8(self.admission.load(Ordering::Relaxed))
            .expect("corrupt admission byte")
    }

    /// Move the ladder (controller only); resets the ladder dwell.
    pub(crate) fn set_admission_step(&self, step: AdmissionStep) {
        self.admission.store(step as u8, Ordering::Relaxed);
        self.adm_high.fetch_max(step as u8, Ordering::Relaxed);
        self.adm_dwell.store(0, Ordering::Relaxed);
    }

    /// Highest step the ladder ever reached on this lock.
    pub(crate) fn admission_high_water(&self) -> AdmissionStep {
        AdmissionStep::from_u8(self.adm_high.load(Ordering::Relaxed))
            .expect("corrupt admission high-water byte")
    }

    /// One controller step elapsed on the ladder; returns the new dwell.
    pub(crate) fn bump_adm_dwell(&self) -> u32 {
        self.adm_dwell
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1)
    }

    /// A section was dispatched on this lock; returns the new depth.
    #[inline]
    pub(crate) fn enter_queue(&self) -> u64 {
        let depth = self.queue.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
        depth
    }

    /// A dispatched section completed (committed, shed, or expired).
    #[inline]
    pub(crate) fn exit_queue(&self) {
        self.queue.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sections currently dispatched on this lock.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue.load(Ordering::Relaxed)
    }

    /// Deepest queue since the previous call (controller only): the peak
    /// drains into the current depth so each tick sees a fresh window.
    pub(crate) fn take_queue_peak(&self) -> u64 {
        let now = self.queue.load(Ordering::Relaxed);
        self.queue_peak.swap(now, Ordering::Relaxed).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig::default()
    }

    fn snap(commits: u64, conflict: u64, capacity: u64, serial: u64) -> WindowSnapshot {
        WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: 0,
            serial,
            quiesce_ns: 0,
        }
    }

    #[test]
    fn capacity_dominated_htm_demotes_to_stm() {
        let w = snap(60, 10, 30, 0);
        assert_eq!(
            decide(AlgoMode::HtmCondvar, &w, 10, None, &cfg()),
            Some((AlgoMode::StmCondvar, SwitchReason::Capacity))
        );
    }

    #[test]
    fn conflict_storm_falls_back_to_baseline() {
        // 70% aborts, all conflicts: both HTM and STM give the lock back.
        let w = snap(30, 70, 0, 0);
        for mode in [
            AlgoMode::HtmCondvar,
            AlgoMode::StmCondvar,
            AlgoMode::StmSpin,
        ] {
            assert_eq!(
                decide(mode, &w, 10, None, &cfg()),
                Some((AlgoMode::Baseline, SwitchReason::ConflictStorm)),
                "under {mode:?}"
            );
        }
    }

    #[test]
    fn serial_fallback_rate_alone_triggers_storm() {
        // Low abort *rate* but a third of completions went through the
        // global serial gate — worse than the original per-lock mutex.
        let w = snap(70, 5, 0, 30);
        assert_eq!(
            decide(AlgoMode::StmCondvar, &w, 10, None, &cfg()),
            Some((AlgoMode::Baseline, SwitchReason::ConflictStorm))
        );
    }

    #[test]
    fn read_mostly_stm_promotes_to_htm() {
        let w = snap(99, 1, 0, 0);
        assert_eq!(
            decide(AlgoMode::StmCondvar, &w, 10, None, &cfg()),
            Some((AlgoMode::HtmCondvar, SwitchReason::Promotion))
        );
    }

    #[test]
    fn capacity_history_latches_out_promotion() {
        // After a capacity demotion STM commits beautifully — but the
        // capacity problem is invisible from STM, so no bounce back.
        let w = snap(100, 0, 0, 0);
        assert_eq!(
            decide(
                AlgoMode::StmCondvar,
                &w,
                100,
                Some(SwitchReason::Capacity),
                &cfg()
            ),
            None
        );
    }

    #[test]
    fn dwell_floor_blocks_every_transition() {
        let storm = snap(0, 100, 0, 0);
        let c = cfg();
        assert_eq!(
            decide(
                AlgoMode::HtmCondvar,
                &storm,
                c.min_dwell_steps - 1,
                None,
                &c
            ),
            None,
            "hysteresis: must dwell before switching again"
        );
    }

    #[test]
    fn thin_window_is_not_trusted() {
        let c = cfg();
        // Storm-shaped but fewer samples than min_window_samples.
        let w = snap(3, 20, 0, 0);
        assert!(w.attempts() < c.min_window_samples);
        assert_eq!(decide(AlgoMode::HtmCondvar, &w, 10, None, &c), None);
    }

    #[test]
    fn baseline_probes_after_dwelling() {
        let w = snap(0, 0, 0, 500);
        let c = cfg();
        assert_eq!(
            decide(AlgoMode::Baseline, &w, c.baseline_probe_steps - 1, None, &c),
            None
        );
        assert_eq!(
            decide(AlgoMode::Baseline, &w, c.baseline_probe_steps, None, &c),
            Some((AlgoMode::HtmCondvar, SwitchReason::Probe))
        );
    }

    #[test]
    fn noquiesce_and_adaptive_htm_are_hands_off() {
        let storm = snap(0, 1000, 0, 0);
        assert_eq!(
            decide(AlgoMode::StmCondvarNoQuiesce, &storm, 100, None, &cfg()),
            None,
            "NoQuiesce is an app contract, the controller must not leave it"
        );
        assert_eq!(
            decide(AlgoMode::AdaptiveHtm, &storm, 100, None, &cfg()),
            None,
            "glibc-style elision carries its own adaptation"
        );
        assert_eq!(
            decide(AlgoMode::AdaptiveHtmLazy, &storm, 100, None, &cfg()),
            None,
            "lazy subscription is opt-in only; the controller must not leave it"
        );
        assert_eq!(
            decide(AlgoMode::AdaptiveHtmLazyUnsafe, &storm, 100, None, &cfg()),
            None,
            "the unsafe strawman is opt-in only; the controller must not leave it"
        );
    }

    #[test]
    fn controller_never_targets_noquiesce_or_adaptive() {
        // Sweep a grid of synthetic windows; whatever the evidence, the
        // target set is {Baseline, StmCondvar, HtmCondvar}.
        let c = cfg();
        for commits in [0u64, 50, 100, 1000] {
            for conflict in [0u64, 50, 1000] {
                for capacity in [0u64, 50, 1000] {
                    for serial in [0u64, 50, 1000] {
                        let w = snap(commits, conflict, capacity, serial);
                        for mode in [
                            AlgoMode::Baseline,
                            AlgoMode::StmSpin,
                            AlgoMode::StmCondvar,
                            AlgoMode::HtmCondvar,
                            AlgoMode::AdaptiveHtm,
                            AlgoMode::AdaptiveHtmLazy,
                            AlgoMode::AdaptiveHtmLazyUnsafe,
                        ] {
                            if let Some((to, _)) = decide(mode, &w, 100, None, &c) {
                                assert!(
                                    matches!(
                                        to,
                                        AlgoMode::Baseline
                                            | AlgoMode::StmCondvar
                                            | AlgoMode::HtmCondvar
                                    ),
                                    "illegal target {to:?} from {mode:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oscillating_window_does_not_flap() {
        // Simulate the controller loop against a window that alternates
        // between capacity-heavy and clean every step. The dwell floor,
        // window reset at switch (modelled by restarting dwell), and the
        // capacity latch must keep the lock from ping-ponging.
        let c = cfg();
        let mut mode = AlgoMode::HtmCondvar;
        let mut dwell = 0u32;
        let mut last = None;
        let mut switches = 0u32;
        for step in 0..1000u32 {
            dwell += 1;
            let w = if step % 2 == 0 {
                snap(60, 10, 30, 0) // capacity-heavy
            } else {
                snap(100, 0, 0, 0) // spotless
            };
            if let Some((to, reason)) = decide(mode, &w, dwell, last, &c) {
                mode = to;
                last = Some(reason);
                dwell = 0;
                switches += 1;
            }
        }
        // Exactly one switch: HTM -> STM on the first trusted capacity
        // window; the capacity latch then pins promotion off forever.
        assert_eq!(switches, 1, "controller flapped");
        assert_eq!(mode, AlgoMode::StmCondvar);
    }

    #[test]
    fn domain_defaults_inherit_everything() {
        let d = LockDomain::new();
        assert_eq!(d.override_mode(), None);
        assert_eq!(d.resolved(AlgoMode::StmSpin), AlgoMode::StmSpin);
        assert_eq!(d.htm_retries(2), 2);
        assert_eq!(d.stm_retries(64), 64);
        assert!(!d.no_quiesce());
        assert!(!d.adopted());
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.switch_count(), 0);
    }

    #[test]
    fn domain_override_and_budget_roundtrip() {
        let d = LockDomain::new();
        d.set_override(Some(AlgoMode::Baseline));
        assert_eq!(d.resolved(AlgoMode::HtmCondvar), AlgoMode::Baseline);
        d.set_override(None);
        assert_eq!(d.resolved(AlgoMode::HtmCondvar), AlgoMode::HtmCondvar);
        d.set_retry_budgets(Some(7), Some(9));
        assert_eq!(d.htm_retries(2), 7);
        assert_eq!(d.stm_retries(64), 9);
        d.set_retry_budgets(None, None);
        assert_eq!(d.htm_retries(2), 2);
        assert_eq!(d.stm_retries(64), 64);
    }
}
