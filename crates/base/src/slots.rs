//! Per-thread publication slots.
//!
//! Both TM flavours need a bounded registry of participating threads:
//!
//! - the STM uses a slot per thread to **publish the start timestamp** of its
//!   running transaction, which is what the post-commit *quiescence* drain
//!   (paper §IV) polls;
//! - the HTM simulator uses slot indices as hardware-transaction identities
//!   inside its per-cache-line reader bitmaps (hence the 64-slot ceiling).
//!
//! Slots are claimed with a CAS and released on drop, so short-lived worker
//! threads (the apps spawn pools per run) recycle them safely.

use crate::Padded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Maximum number of simultaneously registered threads.
pub const MAX_SLOTS: usize = 64;

/// Published value meaning "no transaction in flight".
pub const INACTIVE: u64 = u64::MAX;

/// The slot registry. See the module docs.
pub struct SlotRegistry {
    claimed: [AtomicBool; MAX_SLOTS],
    values: [Padded<AtomicU64>; MAX_SLOTS],
    /// One past the highest slot index ever claimed; scans stop here.
    high_water: AtomicUsize,
}

impl SlotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SlotRegistry {
            claimed: std::array::from_fn(|_| AtomicBool::new(false)),
            values: std::array::from_fn(|_| Padded(AtomicU64::new(INACTIVE))),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Claim a free slot. Panics if all [`MAX_SLOTS`] slots are in use —
    /// registering more than 64 concurrent TM threads is outside the
    /// simulator envelope.
    pub fn register(&self) -> Slot<'_> {
        let idx = self.register_raw().unwrap_or_else(|| {
            panic!("SlotRegistry exhausted: more than {MAX_SLOTS} concurrent TM threads")
        });
        Slot { reg: self, idx }
    }

    /// Claim a free slot by index, without RAII. Callers that hold the
    /// registry behind an `Arc` (the `tle-core` thread handles) use this and
    /// pair it with [`SlotRegistry::unregister_raw`].
    pub fn register_raw(&self) -> Option<usize> {
        for idx in 0..MAX_SLOTS {
            if !self.claimed[idx].load(Ordering::Relaxed)
                && self.claimed[idx]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.values[idx].store(INACTIVE, Ordering::Release);
                // `SeqCst`, pairing with [`SlotRegistry::high_water`]: a
                // serial sweep that misses this slot ordered its gate CAS
                // before anything the slot's owner publishes from here on.
                self.high_water.fetch_max(idx + 1, Ordering::SeqCst);
                return Some(idx);
            }
        }
        None
    }

    /// Release a slot claimed with [`SlotRegistry::register_raw`].
    pub fn unregister_raw(&self, idx: usize) {
        self.values[idx].store(INACTIVE, Ordering::Release);
        self.claimed[idx].store(false, Ordering::Release);
    }

    /// Publish a value into slot `idx` (raw-index flavour of
    /// [`Slot::publish`]). `SeqCst` so that the quiescence drain and slot
    /// publication interleave in a single total order.
    #[inline]
    pub fn publish_raw(&self, idx: usize, v: u64) {
        self.values[idx].store(v, Ordering::SeqCst);
    }

    /// Read the published value of slot `idx`.
    #[inline]
    pub fn value(&self, idx: usize) -> u64 {
        self.values[idx].load(Ordering::Acquire)
    }

    /// Advance slot `idx`'s value by one (wrapping, so the first call after
    /// a claim takes [`INACTIVE`] to 0) and return it. *Owned*, like the
    /// stat rows' `bump_owned`: the caller holds the claim on `idx` and no
    /// other thread reads the word — a relaxed load and store, nothing
    /// published. For a registry that uses the word as a private per-claim
    /// counter (the HTM's begin count), never one whose values are scanned.
    #[inline]
    pub fn advance_owned(&self, idx: usize) -> u64 {
        let v = self.values[idx].load(Ordering::Relaxed).wrapping_add(1);
        self.values[idx].store(v, Ordering::Relaxed);
        v
    }

    /// Iterate over `(idx, value)` of every ever-claimed slot. Unclaimed or
    /// released slots read as [`INACTIVE`], so callers can treat the scan as
    /// "all possibly active transactions".
    pub fn scan(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let hw = self.high_water.load(Ordering::Acquire);
        (0..hw).map(move |i| (i, self.value(i)))
    }

    /// One past the highest slot index ever claimed, in the `SeqCst` order
    /// of slot publications and the serial gate (a serial sweep's bound).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::SeqCst)
    }

    /// The serial side's presence sweep over a registry whose values are
    /// published start times: whether every ever-claimed slot reads
    /// [`INACTIVE`], with `SeqCst` loads — the load half of the serial
    /// handshake whose store half is [`SlotRegistry::publish_raw`].
    pub fn all_inactive(&self) -> bool {
        (0..self.high_water()).all(|i| self.values[i].load(Ordering::SeqCst) == INACTIVE)
    }

    /// Number of currently claimed slots (diagnostics only).
    pub fn claimed_count(&self) -> usize {
        self.claimed
            .iter()
            .filter(|c| c.load(Ordering::Relaxed))
            .count()
    }
}

impl Default for SlotRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// A claimed slot; releases itself (and resets the published value) on drop.
pub struct Slot<'r> {
    reg: &'r SlotRegistry,
    idx: usize,
}

impl Slot<'_> {
    /// This slot's index (the transaction/thread identity).
    #[inline]
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// Publish a value (for STM: the running transaction's start timestamp).
    #[inline]
    pub fn publish(&self, v: u64) {
        self.reg.values[self.idx].store(v, Ordering::SeqCst);
    }

    /// Publish [`INACTIVE`].
    #[inline]
    pub fn deactivate(&self) {
        self.publish(INACTIVE);
    }

    /// Read back this slot's published value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.reg.value(self.idx)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.reg.values[self.idx].store(INACTIVE, Ordering::Release);
        self.reg.claimed[self.idx].store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_claims_distinct_slots() {
        let r = SlotRegistry::new();
        let a = r.register();
        let b = r.register();
        let c = r.register();
        assert_ne!(a.idx(), b.idx());
        assert_ne!(b.idx(), c.idx());
    }

    #[test]
    fn dropped_slots_are_recycled_and_read_inactive() {
        let r = SlotRegistry::new();
        let idx = {
            let s = r.register();
            s.publish(17);
            assert_eq!(r.value(s.idx()), 17);
            s.idx()
        };
        assert_eq!(r.value(idx), INACTIVE, "drop must reset the value");
        let s2 = r.register();
        assert_eq!(s2.idx(), idx, "lowest free slot is reused");
    }

    #[test]
    fn advance_owned_counts_from_zero_after_every_claim() {
        let r = SlotRegistry::new();
        for _ in 0..2 {
            let idx = r.register_raw().unwrap();
            assert_eq!(r.value(idx), INACTIVE);
            assert_eq!(
                [r.advance_owned(idx), r.advance_owned(idx), r.value(idx)],
                [0, 1, 1]
            );
            r.unregister_raw(idx);
        }
    }

    #[test]
    fn scan_covers_high_water_mark() {
        let r = SlotRegistry::new();
        let a = r.register();
        let b = r.register();
        a.publish(5);
        b.publish(9);
        let seen: Vec<(usize, u64)> = r.scan().collect();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[a.idx()].1, 5);
        assert_eq!(seen[b.idx()].1, 9);
    }

    #[test]
    fn all_inactive_sees_every_claimed_slot() {
        let r = SlotRegistry::new();
        assert!(r.all_inactive(), "an empty registry is idle");
        let (a, b) = (r.register(), r.register());
        assert!(r.all_inactive());
        b.publish(3);
        assert!(!r.all_inactive());
        b.deactivate();
        a.publish(0);
        assert!(!r.all_inactive());
        drop(a);
        assert!(r.all_inactive(), "a released slot reads inactive");
        assert_eq!(r.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn registry_panics_when_full() {
        let r = SlotRegistry::new();
        let mut slots = Vec::new();
        for _ in 0..MAX_SLOTS {
            slots.push(r.register());
        }
        let _overflow = r.register();
    }

    #[test]
    fn concurrent_registration_is_unique() {
        let r = std::sync::Arc::new(SlotRegistry::new());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(16));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                let b = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let s = r.register();
                    // No slot is given back before all 16 are held.
                    b.wait();
                    s.idx()
                })
            })
            .collect();
        let mut ids: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16, "slot ids must be unique while held");
    }
}
