//! The Enclave Page Cache (EPC).
//!
//! The EPC is the scarce resource the whole paper revolves around: 92 MB
//! of protected frames shared by every enclave on the platform. When an
//! enclave's working set exceeds it, the SGX driver transparently evicts
//! pages (EWB: encrypt + MAC) to untrusted memory and loads them back on
//! demand (ELDU: decrypt + verify), in batches of 16 victims per fault
//! (paper §2.2, Appendix A).
//!
//! This module models residency, eviction policy (clock / second chance)
//! and the event stream; cycle charging lives in
//! [`crate::machine::SgxMachine`].

use crate::enclave::EnclaveId;
use mem_sim::pagemap::{PageMap, PageSet};

/// Identity of one enclave page: which enclave, which virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning enclave.
    pub enclave: EnclaveId,
    /// Virtual page number within the address space.
    pub page: u64,
}

/// How [`Epc::ensure_resident`] satisfied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpcFaultKind {
    /// The page was already in the EPC; no fault.
    Resident,
    /// First use of the page: a free (or freed-by-eviction) frame was
    /// allocated (`sgx_alloc_page`).
    Alloc,
    /// The page had been evicted earlier and was loaded back (ELDU).
    LoadBack,
}

/// Outcome of one residency request: the fault kind plus every page that
/// was evicted (EWB) to make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpcEvent {
    /// How the requested page was obtained.
    pub kind: EpcFaultKind,
    /// Pages written back by EWB during this request (empty when no
    /// eviction was necessary).
    pub evicted: Vec<PageKey>,
}

#[derive(Debug, Clone)]
struct FrameMeta {
    key: PageKey,
    referenced: bool,
    /// Transient mark used by [`Epc::evict_batch`] so a clock sweep can
    /// skip already-selected victims in O(1) instead of scanning the
    /// victim list. Always false outside `evict_batch` (victims are
    /// removed before it returns).
    victim: bool,
}

/// Per-enclave EPC attribution counters, maintained incrementally on the
/// residency and eviction paths so a co-tenant host can attribute
/// shared-pool behaviour to individual tenants without sweeping the frame
/// vector. Cumulative fields survive [`Epc::remove_enclave`] (teardown
/// ends residency, not history); only `resident_frames` is zeroed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpcEnclaveStats {
    /// Frames of this enclave currently resident.
    pub resident_frames: u64,
    /// First-touch frame allocations (`sgx_alloc_page`) for this enclave.
    pub allocs: u64,
    /// Pages of this enclave loaded back after eviction (ELDU).
    pub loadbacks: u64,
    /// Frames of this enclave chosen as clock-hand victims (EWB),
    /// regardless of which tenant's fault forced the sweep — the
    /// "noisy neighbour" signal.
    pub victimizations: u64,
}

/// The EPC frame pool with a clock (second-chance) replacement policy.
///
/// ```
/// use sgx_sim::epc::{Epc, PageKey, EpcFaultKind};
/// use sgx_sim::enclave::EnclaveId;
///
/// let mut epc = Epc::new(2, 1); // 2 frames, 1-page eviction batches
/// let e = EnclaveId(0);
/// let k = |p| PageKey { enclave: e, page: p };
/// assert_eq!(epc.ensure_resident(k(0)).kind, EpcFaultKind::Alloc);
/// assert_eq!(epc.ensure_resident(k(1)).kind, EpcFaultKind::Alloc);
/// let ev = epc.ensure_resident(k(2)); // evicts one of the others
/// assert_eq!(ev.kind, EpcFaultKind::Alloc);
/// assert_eq!(ev.evicted.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Epc {
    capacity: usize,
    /// Frames withdrawn from use by an injected EPC pressure spike (as if
    /// a co-tenant enclave pinned them). Always < `capacity`.
    reserved: usize,
    batch: usize,
    frames: Vec<FrameMeta>,
    /// Map from page to its index in `frames`, one dense run per enclave
    /// ([`mem_sim::pagemap`]), not a hash map: [`Epc::touch`] is the
    /// hottest probe in the simulator and must not pay a hash per access.
    resident: PageMap<u32>,
    /// Pages currently swapped out to untrusted memory (encrypted).
    evicted_set: PageSet,
    clock_hand: usize,
    /// Lookups into the residency map, for asserting probe budgets in
    /// tests (the resident fast path must cost exactly one).
    probes: u64,
    /// Per-enclave attribution counters, indexed by [`EnclaveId`] (dense
    /// from zero per machine). Grows once per enclave, never per access.
    stats: Vec<EpcEnclaveStats>,
}

impl Epc {
    /// Creates an EPC with `capacity` frames, evicting `batch` pages per
    /// replacement (the driver uses 16).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch` is zero, or if `capacity` does
    /// not fit the `u32` frame indices of the residency map (real
    /// EPCs are tens of thousands of frames).
    pub fn new(capacity: usize, batch: usize) -> Self {
        assert!(capacity > 0, "EPC needs at least one frame");
        assert!(batch > 0, "eviction batch must be positive");
        assert!(
            capacity < u32::MAX as usize,
            "EPC capacity must fit u32 frame indices"
        );
        Epc {
            capacity,
            reserved: 0,
            batch,
            frames: Vec::with_capacity(capacity),
            resident: PageMap::default(),
            evicted_set: PageSet::default(),
            clock_hand: 0,
            probes: 0,
            stats: Vec::new(),
        }
    }

    /// Per-enclave attribution counters for `enclave` (zeros when the
    /// enclave never touched the EPC).
    pub fn enclave_stats(&self, enclave: EnclaveId) -> EpcEnclaveStats {
        self.stats.get(enclave.0).copied().unwrap_or_default()
    }

    /// Mutable attribution slot for `enclave`, growing the dense index on
    /// first sight. The growth is O(max enclave id), once per enclave —
    /// an enclave-lifecycle cost, not a per-access one.
    fn stat_mut(&mut self, enclave: EnclaveId) -> &mut EpcEnclaveStats {
        if enclave.0 >= self.stats.len() {
            self.stats.resize(enclave.0 + 1, EpcEnclaveStats::default());
        }
        &mut self.stats[enclave.0]
    }

    /// EPC size in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently withdrawn by [`Epc::set_reserved`].
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Frames actually usable right now (`capacity - reserved`).
    pub fn effective_capacity(&self) -> usize {
        self.capacity - self.reserved
    }

    /// Reserves `frames` frames for a simulated co-tenant (an injected
    /// EPC pressure spike), evicting resident pages if the pool no longer
    /// fits, and returns the victims in eviction order so the caller can
    /// charge their EWBs. Clamped so at least one usable frame remains;
    /// `set_reserved(0)` releases the pressure.
    pub fn set_reserved(&mut self, frames: usize) -> Vec<PageKey> {
        self.reserved = frames.min(self.capacity - 1);
        let mut victims = Vec::new();
        while self.frames.len() > self.effective_capacity() {
            victims.extend(self.evict_batch());
        }
        self.audit();
        victims
    }

    /// Number of frames currently holding pages.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Number of pages currently swapped out.
    pub fn evicted_count(&self) -> usize {
        self.evicted_set.len()
    }

    /// Whether `key` is resident (diagnostic query; not probe-counted).
    pub fn is_resident(&self, key: PageKey) -> bool {
        self.resident.get(key.enclave.0, key.page).is_some()
    }

    /// Single-probe resident fast path: if `key` is resident, refreshes
    /// its clock reference bit and returns true; otherwise returns false
    /// without changing any state. Exactly one residency-map lookup
    /// either way — the common-case replacement for the
    /// `is_resident` + `ensure_resident` double probe.
    pub fn touch(&mut self, key: PageKey) -> bool {
        self.probes += 1;
        if let Some(idx) = self.resident.get(key.enclave.0, key.page) {
            self.frames[idx as usize].referenced = true;
            true
        } else {
            false
        }
    }

    /// Cumulative residency-map lookups (see [`Epc::touch`]); a test
    /// hook, never reset.
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Whether `key` has been evicted (encrypted in untrusted DRAM).
    pub fn is_evicted(&self, key: PageKey) -> bool {
        self.evicted_set.contains(key.enclave.0, key.page)
    }

    /// Iterates the keys of every resident page, in frame order.
    /// Diagnostic view used by the cross-structure audit in
    /// [`crate::SgxMachine`] and by property tests.
    pub fn resident_keys(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.frames.iter().map(|f| f.key)
    }

    /// Verifies the EPC's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// * **capacity** — never more frames than the EPC currently makes
    ///   usable (total capacity minus any reserved frames),
    /// * **bijection** — the residency map and the frame vector index
    ///   each other exactly (every frame's key maps back to its index),
    /// * **disjointness** — no page is both resident and evicted,
    /// * **victim hygiene** — the transient eviction mark never leaks
    ///   out of `Epc::evict_batch`,
    /// * **clock-hand conservation** — the hand always points at a live
    ///   frame (or zero when the EPC is empty).
    ///
    /// Always compiled; the `audit` cargo feature additionally calls it
    /// after every mutation and panics on violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.frames.len() > self.effective_capacity() {
            return Err(format!(
                "{} frames exceed effective capacity {} ({} reserved of {})",
                self.frames.len(),
                self.effective_capacity(),
                self.reserved,
                self.capacity
            ));
        }
        if self.resident.len() != self.frames.len() {
            return Err(format!(
                "residency map has {} entries for {} frames",
                self.resident.len(),
                self.frames.len()
            ));
        }
        for (i, f) in self.frames.iter().enumerate() {
            match self.resident.get(f.key.enclave.0, f.key.page) {
                Some(idx) if idx as usize == i => {}
                Some(idx) => {
                    return Err(format!(
                        "frame {i} holds {:?} but the map points at frame {idx}",
                        f.key
                    ))
                }
                None => return Err(format!("frame {i} holds unmapped page {:?}", f.key)),
            }
            if f.victim {
                return Err(format!("victim mark leaked on resident frame {i}"));
            }
            if self.evicted_set.contains(f.key.enclave.0, f.key.page) {
                return Err(format!("page {:?} is both resident and evicted", f.key));
            }
        }
        if self.frames.is_empty() {
            if self.clock_hand != 0 {
                return Err(format!("clock hand {} on empty EPC", self.clock_hand));
            }
        } else if self.clock_hand >= self.frames.len() {
            return Err(format!(
                "clock hand {} out of range for {} frames",
                self.clock_hand,
                self.frames.len()
            ));
        }
        // Attribution consistency: the incremental per-enclave live-frame
        // counters must agree with a sweep of the frame vector.
        let mut owned = vec![0u64; self.stats.len()];
        for f in &self.frames {
            if f.key.enclave.0 >= owned.len() {
                return Err(format!(
                    "frame owner {:?} has no attribution slot",
                    f.key.enclave
                ));
            }
            owned[f.key.enclave.0] += 1;
        }
        for (id, (stat, actual)) in self.stats.iter().zip(owned.iter()).enumerate() {
            if stat.resident_frames != *actual {
                return Err(format!(
                    "enclave {id} attribution says {} resident frames, found {actual}",
                    stat.resident_frames
                ));
            }
        }
        Ok(())
    }

    /// Panics on the first violated invariant (audit builds only).
    #[cfg(feature = "audit")]
    #[expect(
        clippy::panic,
        reason = "audit builds stop at the first broken invariant"
    )]
    fn audit(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("EPC audit: {e}");
        }
    }

    /// No-op twin of the audit hook in non-audit builds.
    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit(&self) {}

    /// Makes `key` resident, evicting a batch if the EPC is full, and
    /// reports what happened. Touching a resident page refreshes its
    /// clock reference bit.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "frame indices fit u32: Epc::new rejects larger capacities"
    )]
    pub fn ensure_resident(&mut self, key: PageKey) -> EpcEvent {
        self.probes += 1;
        if let Some(idx) = self.resident.get(key.enclave.0, key.page) {
            self.frames[idx as usize].referenced = true;
            return EpcEvent {
                kind: EpcFaultKind::Resident,
                evicted: Vec::new(),
            };
        }
        let mut evicted = Vec::new();
        if self.frames.len() >= self.effective_capacity() {
            #[cfg(feature = "audit")]
            let expected = self.batch.min(self.frames.len());
            evicted = self.evict_batch();
            // The driver always writes back a full batch (16 victims per
            // fault, Appendix A); a short batch would skew Fig 7's EWB
            // sample counts and the eviction totals of Fig 6/9.
            #[cfg(feature = "audit")]
            assert_eq!(
                evicted.len(),
                expected,
                "EWB batch must be exactly min(batch, frames)"
            );
        }
        let kind = if self.evicted_set.remove(key.enclave.0, key.page) {
            EpcFaultKind::LoadBack
        } else {
            EpcFaultKind::Alloc
        };
        let stat = self.stat_mut(key.enclave);
        stat.resident_frames += 1;
        match kind {
            EpcFaultKind::LoadBack => stat.loadbacks += 1,
            _ => stat.allocs += 1,
        }
        let meta = FrameMeta {
            key,
            referenced: true,
            victim: false,
        };
        // Reuse a hole left by eviction if one exists, else push.
        if self.frames.len() < self.effective_capacity() {
            self.frames.push(meta);
            self.resident
                .insert(key.enclave.0, key.page, (self.frames.len() - 1) as u32);
        } else {
            #[expect(
                clippy::unreachable,
                reason = "contract: evict_batch just freed a full batch of frames"
            )]
            {
                unreachable!("evict_batch guarantees free space")
            }
        }
        self.audit();
        EpcEvent { kind, evicted }
    }

    /// Marks a non-resident page as having an encrypted swapped-out copy,
    /// so its next touch is a [`EpcFaultKind::LoadBack`] (ELDU). Used by
    /// the enclave loader for measured content pages whose EWB'd image
    /// survives the post-measurement EPC release.
    pub fn mark_evicted(&mut self, key: PageKey) {
        if self.resident.get(key.enclave.0, key.page).is_none() {
            self.evicted_set.insert(key.enclave.0, key.page);
        }
        self.audit();
    }

    /// Removes every page owned by `enclave` (EREMOVE at teardown),
    /// returning how many frames were freed.
    ///
    /// Frames of *other* enclaves are untouched: when `enclave` owns no
    /// frames this is a no-op, and otherwise the clock hand keeps its
    /// position relative to the surviving frames, so tearing one enclave
    /// down does not perturb the replacement order of its neighbours.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "frame indices fit u32: Epc::new rejects larger capacities"
    )]
    pub fn remove_enclave(&mut self, enclave: EnclaveId) -> usize {
        self.evicted_set.remove_space(enclave.0);
        // Teardown ends residency, not history: cumulative attribution
        // counters survive so a co-tenant report can still name the
        // departed tenant's evictions; only the live-frame count resets.
        if let Some(stat) = self.stats.get_mut(enclave.0) {
            stat.resident_frames = 0;
        }
        if !self.frames.iter().any(|f| f.key.enclave == enclave) {
            self.audit();
            return 0;
        }
        // The hand should next sweep the same surviving frame it would
        // have swept before: count survivors strictly before it.
        let hand = self.clock_hand % self.frames.len();
        let new_hand = self.frames[..hand]
            .iter()
            .filter(|f| f.key.enclave != enclave)
            .count();
        let before = self.frames.len();
        self.frames.retain(|f| f.key.enclave != enclave);
        self.resident.remove_space(enclave.0);
        for (i, f) in self.frames.iter().enumerate() {
            self.resident.insert(f.key.enclave.0, f.key.page, i as u32);
        }
        self.clock_hand = if self.frames.is_empty() {
            0
        } else {
            new_hand % self.frames.len()
        };
        self.audit();
        before - self.frames.len()
    }

    /// Evicts up to `batch` victims chosen by the clock hand and returns
    /// them. Referenced frames get a second chance.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "frame indices fit u32: Epc::new rejects larger capacities"
    )]
    fn evict_batch(&mut self) -> Vec<PageKey> {
        let n = self.batch.min(self.frames.len());
        let mut victims = Vec::with_capacity(n);
        let mut victim_idxs = Vec::with_capacity(n);
        let len = self.frames.len();
        let mut scanned = 0;
        while victims.len() < n && scanned < 3 * len {
            let idx = self.clock_hand % len;
            self.clock_hand = (self.clock_hand + 1) % len;
            scanned += 1;
            let frame = &mut self.frames[idx];
            if frame.victim {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
            } else {
                frame.victim = true;
                victims.push(frame.key);
                victim_idxs.push(idx);
            }
        }
        // Degenerate case: everything referenced for 3 sweeps; take the
        // frames under the hand anyway.
        let mut fallback = self.clock_hand;
        while victims.len() < n {
            let idx = fallback % len;
            fallback += 1;
            let frame = &mut self.frames[idx];
            if !frame.victim {
                frame.victim = true;
                victims.push(frame.key);
                victim_idxs.push(idx);
            }
        }
        // Remove victims (highest index first to keep indices valid).
        victim_idxs.sort_unstable_by(|a, b| b.cmp(a));
        for idx in victim_idxs {
            let meta = self.frames.swap_remove(idx);
            self.resident.remove(meta.key.enclave.0, meta.key.page);
            self.evicted_set.insert(meta.key.enclave.0, meta.key.page);
            let stat = self.stat_mut(meta.key.enclave);
            stat.resident_frames = stat.resident_frames.saturating_sub(1);
            stat.victimizations += 1;
            // swap_remove moved the tail frame into `idx`.
            if idx < self.frames.len() {
                let moved = self.frames[idx].key;
                self.resident
                    .insert(moved.enclave.0, moved.page, idx as u32);
            }
        }
        if !self.frames.is_empty() {
            self.clock_hand %= self.frames.len();
        } else {
            self.clock_hand = 0;
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(p: u64) -> PageKey {
        PageKey {
            enclave: EnclaveId(0),
            page: p,
        }
    }

    #[test]
    fn alloc_until_full_no_eviction() {
        let mut epc = Epc::new(4, 2);
        for p in 0..4 {
            let ev = epc.ensure_resident(k(p));
            assert_eq!(ev.kind, EpcFaultKind::Alloc);
            assert!(ev.evicted.is_empty());
        }
        assert_eq!(epc.resident_count(), 4);
    }

    #[test]
    fn full_epc_evicts_batch() {
        let mut epc = Epc::new(4, 2);
        for p in 0..4 {
            epc.ensure_resident(k(p));
        }
        let ev = epc.ensure_resident(k(4));
        assert_eq!(ev.kind, EpcFaultKind::Alloc);
        assert_eq!(ev.evicted.len(), 2);
        assert_eq!(epc.resident_count(), 3); // 4 - 2 evicted + 1 new
        assert_eq!(epc.evicted_count(), 2);
    }

    #[test]
    fn evicted_page_loads_back() {
        let mut epc = Epc::new(2, 2);
        epc.ensure_resident(k(0));
        epc.ensure_resident(k(1));
        let ev = epc.ensure_resident(k(2)); // evicts both (batch 2)
        assert_eq!(ev.evicted.len(), 2);
        let victim = ev.evicted[0];
        let back = epc.ensure_resident(victim);
        assert_eq!(back.kind, EpcFaultKind::LoadBack);
        assert!(epc.is_resident(victim));
        assert!(!epc.is_evicted(victim));
    }

    #[test]
    fn resident_touch_is_free() {
        let mut epc = Epc::new(2, 1);
        epc.ensure_resident(k(0));
        let ev = epc.ensure_resident(k(0));
        assert_eq!(ev.kind, EpcFaultKind::Resident);
        assert!(ev.evicted.is_empty());
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut epc = Epc::new(3, 1);
        epc.ensure_resident(k(0));
        epc.ensure_resident(k(1));
        epc.ensure_resident(k(2));
        // First eviction sweep clears every reference bit and evicts one
        // page under the hand.
        let first = epc.ensure_resident(k(3));
        assert_eq!(first.evicted.len(), 1);
        // Re-reference page 1: it must survive the next sweep, which
        // evicts some *other*, unreferenced page instead.
        epc.ensure_resident(k(1));
        let second = epc.ensure_resident(k(4));
        assert_eq!(second.evicted.len(), 1);
        assert_ne!(second.evicted[0], k(1));
        assert!(epc.is_resident(k(1)));
    }

    #[test]
    fn thrash_pattern_evicts_every_round() {
        // Working set of 8 pages through a 4-frame EPC: sequential sweep
        // faults on every access after warm-up.
        let mut epc = Epc::new(4, 2);
        let mut loadbacks = 0;
        for round in 0..4 {
            for p in 0..8 {
                let ev = epc.ensure_resident(k(p));
                if round > 0 && ev.kind == EpcFaultKind::LoadBack {
                    loadbacks += 1;
                }
            }
        }
        assert!(
            loadbacks > 0,
            "sweeping a 2x working set must load back pages"
        );
    }

    #[test]
    fn residency_and_eviction_disjoint() {
        let mut epc = Epc::new(4, 2);
        for p in 0..32 {
            epc.ensure_resident(k(p));
            for q in 0..=p {
                assert!(
                    !(epc.is_resident(k(q)) && epc.is_evicted(k(q))),
                    "page {q} both resident and evicted"
                );
            }
        }
        assert!(epc.resident_count() <= 4);
    }

    #[test]
    fn remove_enclave_frees_frames() {
        let mut epc = Epc::new(4, 2);
        epc.ensure_resident(k(0));
        epc.ensure_resident(PageKey {
            enclave: EnclaveId(1),
            page: 0,
        });
        let freed = epc.remove_enclave(EnclaveId(0));
        assert_eq!(freed, 1);
        assert!(!epc.is_resident(k(0)));
        assert!(epc.is_resident(PageKey {
            enclave: EnclaveId(1),
            page: 0
        }));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Epc::new(0, 1);
    }

    #[test]
    fn touch_is_single_probe_and_refreshes_reference_bit() {
        let mut epc = Epc::new(3, 1);
        epc.ensure_resident(k(0));
        epc.ensure_resident(k(1));
        epc.ensure_resident(k(2));
        epc.ensure_resident(k(3)); // clears all ref bits, evicts page 0
        assert!(epc.is_resident(k(1)));
        let before = epc.probe_count();
        assert!(epc.touch(k(1)));
        assert_eq!(epc.probe_count(), before + 1, "touch costs one probe");
        assert!(!epc.touch(k(0)), "evicted page is a miss");
        assert_eq!(epc.probe_count(), before + 2);
        // The touch refreshed page 1's reference bit: the next eviction
        // must give it a second chance and take unreferenced page 2.
        epc.ensure_resident(k(4));
        assert!(epc.is_resident(k(1)), "touched page survives the sweep");
        assert!(!epc.is_resident(k(2)));
    }

    #[test]
    fn reserving_frames_shrinks_and_restores_the_pool() {
        let mut epc = Epc::new(4, 1);
        for p in 0..4 {
            epc.ensure_resident(k(p));
        }
        let victims = epc.set_reserved(2);
        assert_eq!(victims.len(), 2, "shrinking to 2 frames evicts 2 pages");
        assert_eq!(epc.effective_capacity(), 2);
        assert_eq!(epc.resident_count(), 2);
        for v in &victims {
            assert!(epc.is_evicted(*v));
        }
        // Under pressure the pool churns within the reduced capacity.
        epc.ensure_resident(k(5));
        assert!(epc.resident_count() <= 2);
        assert!(epc.check_invariants().is_ok());
        // Release: full capacity is usable again — the two free frames
        // absorb new pages without any eviction.
        assert!(epc.set_reserved(0).is_empty());
        assert_eq!(epc.effective_capacity(), 4);
        let free = epc.effective_capacity() - epc.resident_count();
        assert_eq!(free, 2);
        for p in 0..free as u64 {
            assert!(epc.ensure_resident(k(10 + p)).evicted.is_empty());
        }
    }

    #[test]
    fn reservation_is_clamped_to_leave_one_frame() {
        let mut epc = Epc::new(3, 1);
        for p in 0..3 {
            epc.ensure_resident(k(p));
        }
        epc.set_reserved(1000);
        assert_eq!(epc.effective_capacity(), 1);
        assert_eq!(epc.resident_count(), 1);
        assert!(epc.check_invariants().is_ok());
    }

    #[test]
    fn remove_enclave_without_frames_is_noop() {
        let mut epc = Epc::new(4, 1);
        for p in 0..5 {
            epc.ensure_resident(k(p)); // last insert moves the clock hand
        }
        let control = epc.clone();
        assert_eq!(epc.remove_enclave(EnclaveId(9)), 0);
        // Replacement decisions must be unchanged by the no-op removal.
        let mut epc2 = control;
        for p in 5..12 {
            let a = epc.ensure_resident(k(p));
            let b = epc2.ensure_resident(k(p));
            assert_eq!(a.evicted, b.evicted, "page {p}");
        }
    }

    #[test]
    fn remove_enclave_preserves_clock_hand_position() {
        let e1 = EnclaveId(1);
        let mut epc = Epc::new(4, 1);
        epc.ensure_resident(k(0));
        epc.ensure_resident(k(1));
        epc.ensure_resident(PageKey {
            enclave: e1,
            page: 0,
        });
        epc.ensure_resident(k(2));
        // Evicts page 0 and leaves the hand one past it.
        epc.ensure_resident(k(3));
        // Refresh the survivors so every frame is referenced again.
        epc.ensure_resident(k(2));
        epc.ensure_resident(k(1));
        assert_eq!(epc.remove_enclave(e1), 1);
        epc.ensure_resident(k(4)); // refills the freed frame, no eviction
                                   // All frames referenced: the sweep clears bits starting at the
                                   // preserved hand, so the victim is the frame *under* the hand —
                                   // page 1, not page 2 (which a hand reset to 0 would have taken).
        let ev = epc.ensure_resident(k(5));
        assert_eq!(ev.evicted, vec![k(1)]);
        assert!(epc.is_resident(k(2)));
    }

    /// Multi-tenant extension of the hand-preservation guarantee: three
    /// tenants interleaved in the frame vector, one torn down while the
    /// clock hand is mid-rotation (pointing at one of its frames). The
    /// hand must advance to the same surviving frame it would have swept
    /// next, and the departed tenant's swapped-out pages must leave the
    /// evicted set.
    #[test]
    fn remove_enclave_preserves_hand_with_interleaved_tenants() {
        let key = |e: usize, p: u64| PageKey {
            enclave: EnclaveId(e),
            page: p,
        };
        let mut epc = Epc::new(6, 1);
        // Interleave three tenants: [e0p0, e1p0, e2p0, e0p1, e1p1, e2p1].
        for p in 0..2 {
            for e in 0..3 {
                assert_eq!(epc.ensure_resident(key(e, p)).kind, EpcFaultKind::Alloc);
            }
        }
        // Force one eviction so the hand is mid-rotation. All frames are
        // referenced, so the sweep clears every bit and takes the frame
        // under the hand (e0p0); the hand lands on e1p0.
        let ev = epc.ensure_resident(key(0, 2));
        assert_eq!(ev.evicted, vec![key(0, 0)]);
        // Give the departed tenant a swapped-out page too.
        epc.mark_evicted(key(1, 9));
        assert!(epc.is_evicted(key(1, 9)));
        // Tear down tenant 1 mid-rotation (the hand points at e1p0).
        assert_eq!(epc.remove_enclave(EnclaveId(1)), 2);
        assert!(epc.check_invariants().is_ok());
        assert!(!epc.is_evicted(key(1, 9)), "evicted set must be purged");
        assert_eq!(epc.enclave_stats(EnclaveId(1)).resident_frames, 0);
        // Refill the freed frames without evicting, then overflow: the
        // next victim must be the surviving frame the hand was about to
        // consider after the torn-down tenant's (e2p0), not the frame a
        // reset-to-zero hand would have taken.
        assert!(epc.ensure_resident(key(0, 3)).evicted.is_empty());
        assert!(epc.ensure_resident(key(0, 4)).evicted.is_empty());
        let ev = epc.ensure_resident(key(0, 5));
        assert_eq!(ev.evicted, vec![key(2, 0)]);
        assert!(epc.check_invariants().is_ok());
    }

    /// Per-enclave attribution: allocations, load-backs and clock-hand
    /// victimizations land on the owning tenant, survive teardown as
    /// history, and only the live-frame count resets.
    #[test]
    fn enclave_stats_attribute_allocs_loadbacks_and_victims() {
        let ka = |p| PageKey {
            enclave: EnclaveId(0),
            page: p,
        };
        let kb = |p| PageKey {
            enclave: EnclaveId(1),
            page: p,
        };
        let mut epc = Epc::new(4, 2);
        epc.ensure_resident(ka(0));
        epc.ensure_resident(ka(1));
        epc.ensure_resident(kb(0));
        epc.ensure_resident(kb(1));
        let sa = epc.enclave_stats(EnclaveId(0));
        assert_eq!(sa.resident_frames, 2);
        assert_eq!(sa.allocs, 2);
        assert_eq!(sa.victimizations, 0);
        // The antagonist overflows the pool; the sweep starts at tenant
        // 0's frames, so both victims are charged to tenant 0 even though
        // tenant 1 caused the fault — the noisy-neighbour signal.
        let ev = epc.ensure_resident(kb(2));
        assert_eq!(ev.evicted, vec![ka(0), ka(1)]);
        let sa = epc.enclave_stats(EnclaveId(0));
        assert_eq!(sa.resident_frames, 0);
        assert_eq!(sa.victimizations, 2);
        // The victim tenant pulls one page back in: an ELDU on its ledger.
        let back = epc.ensure_resident(ka(0));
        assert_eq!(back.kind, EpcFaultKind::LoadBack);
        let sa = epc.enclave_stats(EnclaveId(0));
        assert_eq!(sa.resident_frames, 1);
        assert_eq!(sa.loadbacks, 1);
        let sb = epc.enclave_stats(EnclaveId(1));
        assert_eq!(sb.resident_frames, 3);
        assert_eq!(sb.allocs, 3);
        assert_eq!(sb.loadbacks, 0);
        assert!(epc.check_invariants().is_ok());
        // Teardown zeroes residency but keeps the cumulative history.
        epc.remove_enclave(EnclaveId(0));
        let sa = epc.enclave_stats(EnclaveId(0));
        assert_eq!(sa.resident_frames, 0);
        assert_eq!(sa.allocs, 2);
        assert_eq!(sa.loadbacks, 1);
        assert_eq!(sa.victimizations, 2);
        // An enclave that never touched the EPC reads as all zeros.
        assert_eq!(epc.enclave_stats(EnclaveId(7)), EpcEnclaveStats::default());
    }
}
