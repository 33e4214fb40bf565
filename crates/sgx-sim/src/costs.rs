//! Canonical cycle-cost constants of the SGX model.
//!
//! Every cycle cost the paper cites lives **here and only here**; the
//! root test `tests/cost_literals.rs` fails when one of these values
//! appears as an integer literal anywhere else in the workspace. Duplicated cost constants are how
//! enclave benchmark suites silently drift (Stress-SGX, Vaucher et al.):
//! a harness hard-codes "12 000 cycles per EWB", the simulator is later
//! recalibrated, and every figure derived from the stale copy is wrong
//! without a single test failing.
//!
//! The simulators read these constants directly; no config struct
//! carries a copy. The platform *sizes* an experiment may vary (EPC
//! bytes, eviction batch, TCS slots, switchless workers) live in
//! [`crate::SgxConfig`].

/// Cycles to evict one page — MAC + encrypt + write back (EWB).
///
/// Paper §2.2: "evicting a page costs ≈12,000 cycles"; Fig 7 plots the
/// measured driver latency distribution around this mean.
pub const EWB_CYCLES: u64 = 12_000;

/// Cycles to load one evicted page back — decrypt + verify (ELDU).
///
/// Appendix A: EWB is "16 % more than loading back", so ELDU is
/// [`EWB_CYCLES`] / 1.16 rounded to the paper's quoted figure.
pub const ELDU_CYCLES: u64 = 10_345;

/// Cycles for `sgx_alloc_page` to hand out a free EPC frame
/// (Appendix A, instrumented-driver measurement).
pub const ALLOC_PAGE_CYCLES: u64 = 5_300;

/// Fixed driver overhead of `sgx_do_fault` on top of the paging
/// operations it dispatches (Appendix A).
pub const FAULT_BASE_CYCLES: u64 = 2_800;

/// Cycles for one full ECALL round trip — EENTER + EEXIT.
///
/// Paper §2.3, citing Weisse et al.: "an enclave transition costs
/// ≈17,000 cycles".
pub const ECALL_ROUND_TRIP_CYCLES: u64 = 17_000;

/// Cycles for EENTER (half of the [`ECALL_ROUND_TRIP_CYCLES`]).
pub const EENTER_CYCLES: u64 = ECALL_ROUND_TRIP_CYCLES / 2;

/// Cycles for EEXIT (the other half of the round trip).
pub const EEXIT_CYCLES: u64 = ECALL_ROUND_TRIP_CYCLES / 2;

/// Cycles for an asynchronous exit (AEX) on an EPC fault (§2.3 —
/// cheaper than a synchronous transition: no argument marshalling).
pub const AEX_CYCLES: u64 = 7_000;

/// Cycles for ERESUME after a handled fault (§2.3).
pub const ERESUME_CYCLES: u64 = 3_200;

/// Cycles to EADD + EEXTEND (measure) one page at enclave build time
/// (§3.2.1, Appendix D start-up anatomy).
pub const EADD_CYCLES: u64 = 1_400;

/// Extra cycles for the in-enclave EACCEPT of an EAUGed page under
/// SGX2/EDMM (Appendix D, SGX v1 vs v2 heap discussion).
pub const EACCEPT_CYCLES: u64 = 1_900;

/// Shared-memory channel overhead per switchless OCALL (§5.6 — the
/// proxy-thread handoff that replaces the 17 k-cycle transition).
pub const SWITCHLESS_CHANNEL_CYCLES: u64 = 600;

/// Cycles of a host syscall issued outside any enclave (Table 3
/// platform; the baseline an OCALL's untrusted work is charged at).
pub const HOST_SYSCALL_CYCLES: u64 = 1_800;

/// Copy through a host I/O staging buffer outside any LibOS, cycles
/// per KiB: a plain kernel `read`/`write` copy on the Table 3 platform.
pub const HOST_COPY_CYCLES_PER_KIB: u64 = 70;

/// In-enclave cycles for the LibOS shim to decode and dispatch one
/// intercepted syscall (§4.4: Graphene handles every syscall inside the
/// enclave). Calibration: just below [`HOST_SYSCALL_CYCLES`], so a
/// syscall the shim serves in-enclave costs about what a native one does.
pub const SHIM_DISPATCH_CYCLES: u64 = 1_500;

/// Untrusted-side work per OCALL the shim forwards: the host syscall
/// plus Graphene's marshalling around it. Calibration: about twice
/// [`HOST_SYSCALL_CYCLES`].
pub const SHIM_OCALL_WORK_CYCLES: u64 = 3_500;

/// Copy through the shim's untrusted staging buffer, cycles per KiB.
/// Data crosses the boundary twice (enclave buffer → staging → host),
/// so this is steeper than [`HOST_COPY_CYCLES_PER_KIB`].
pub const SHIM_COPY_CYCLES_PER_KIB: u64 = 250;

/// In-enclave protected-files crypto, cycles per KiB: AES-NI-class GCM
/// at ~0.4 cycles/byte plus the per-block MAC (Appendix E, Fig 10).
pub const PF_CRYPTO_CYCLES_PER_KIB: u64 = 450;

/// Pages evicted per EWB batch — the SGX driver always writes back 16
/// victims per fault (Appendix A).
pub const EVICT_BATCH_PAGES: usize = 16;

/// Base simulated-cycle delay before the first retry of a cell that
/// failed transiently; doubles per attempt. Sized to a couple of ECALL
/// round trips so a retried cell's accounted backoff is visible next to
/// the transition costs it models, yet never dominates a run.
pub const RETRY_BACKOFF_BASE_CYCLES: u64 = 25_000;

// The derived transition halves must reassemble the cited round trip
// exactly; a drifted edit here would corrupt Fig 7 and Table 4 at once.
const _: () = assert!(EENTER_CYCLES + EEXIT_CYCLES == ECALL_ROUND_TRIP_CYCLES);
// ELDU must stay "16 % cheaper" than EWB within integer rounding of the
// paper's quoted values (12_000 / 1.16 = 10_344.8…): the ratio in
// rounded per-mille must be 1160.
const _: () = assert!((EWB_CYCLES * 1000 + ELDU_CYCLES / 2) / ELDU_CYCLES == 1160);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewb_is_16_percent_costlier_than_eldu() {
        let ratio = EWB_CYCLES as f64 / ELDU_CYCLES as f64;
        assert!((ratio - 1.16).abs() < 0.001, "ratio {ratio}");
    }

    #[test]
    fn transition_halves_sum_to_round_trip() {
        assert_eq!(EENTER_CYCLES + EEXIT_CYCLES, ECALL_ROUND_TRIP_CYCLES);
    }
}
