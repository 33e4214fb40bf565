//! Local attestation (EREPORT / report verification).
//!
//! Before an enclave trusts another — e.g. before Graphene hands secrets
//! to an application enclave, or before a quoting enclave signs for a
//! remote verifier — it checks an EREPORT: a structure carrying the
//! reporting enclave's measurement and 64 bytes of user data, MACed with
//! a key only the *target* enclave (and the hardware) can derive
//! (EGETKEY). This module models that flow faithfully: real HMAC-SHA-256
//! over the report body under a platform-bound report key, plus the
//! cycle costs of the two instructions.

use crate::enclave::EnclaveId;
use crate::machine::{SgxError, SgxMachine};
use mem_sim::ThreadId;
use sgx_crypto::hmac::{hmac_sha256, verify_tag};

/// Cycles for executing EREPORT.
const EREPORT_CYCLES: u64 = 3_800;

/// Cycles for EGETKEY + MAC verification inside the target.
const VERIFY_CYCLES: u64 = 4_600;

/// The platform's fused attestation secret (simulated).
const PLATFORM_ATTESTATION_SECRET: &[u8] = b"sgxgauge-simulated-platform-attestation-fuse";

/// An EREPORT structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Measurement (MRENCLAVE) of the reporting enclave.
    pub measurement: [u8; 32],
    /// User-supplied report data (e.g. a public key hash).
    pub report_data: [u8; 64],
    /// Measurement of the target enclave the report is addressed to.
    pub target: [u8; 32],
    /// MAC over the above, under the target's report key.
    pub mac: [u8; 32],
}

fn report_key(target_measurement: &[u8; 32]) -> [u8; 32] {
    hmac_sha256(PLATFORM_ATTESTATION_SECRET, target_measurement)
}

fn report_mac(
    key: &[u8; 32],
    measurement: &[u8; 32],
    report_data: &[u8; 64],
    target: &[u8; 32],
) -> [u8; 32] {
    let mut body = Vec::with_capacity(128);
    body.extend_from_slice(measurement);
    body.extend_from_slice(report_data);
    body.extend_from_slice(target);
    hmac_sha256(key, &body)
}

/// Executes EREPORT on `machine`: the thread must currently run inside
/// `reporting`; the produced report is addressed to (verifiable only by)
/// `target`.
///
/// # Errors
///
/// [`SgxError::NotInEnclave`] when `tid` is not inside `reporting`.
pub fn ereport(
    machine: &mut SgxMachine,
    tid: ThreadId,
    reporting: EnclaveId,
    target: EnclaveId,
    report_data: [u8; 64],
) -> Result<Report, SgxError> {
    if machine.current_enclave(tid) != Some(reporting) {
        return Err(SgxError::NotInEnclave);
    }
    machine.compute(tid, EREPORT_CYCLES);
    let measurement = machine.enclave(reporting).measurement();
    let target_m = machine.enclave(target).measurement();
    let key = report_key(&target_m);
    let mac = report_mac(&key, &measurement, &report_data, &target_m);
    Ok(Report {
        measurement,
        report_data,
        target: target_m,
        mac,
    })
}

/// Verifies a report inside its target enclave (EGETKEY + MAC check).
/// Returns `true` when the report is genuine and addressed to the
/// calling enclave.
///
/// # Errors
///
/// [`SgxError::NotInEnclave`] when `tid` is not inside `verifier`.
pub fn verify_report(
    machine: &mut SgxMachine,
    tid: ThreadId,
    verifier: EnclaveId,
    report: &Report,
) -> Result<bool, SgxError> {
    if machine.current_enclave(tid) != Some(verifier) {
        return Err(SgxError::NotInEnclave);
    }
    machine.compute(tid, VERIFY_CYCLES);
    let my_measurement = machine.enclave(verifier).measurement();
    if my_measurement != report.target {
        return Ok(false); // addressed to someone else: wrong report key
    }
    let key = report_key(&my_measurement);
    let expect = report_mac(
        &key,
        &report.measurement,
        &report.report_data,
        &report.target,
    );
    Ok(verify_tag(&expect, &report.mac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SgxConfig;
    use crate::Host;
    use mem_sim::PAGE_SIZE;

    fn platform() -> (SgxMachine, ThreadId, EnclaveId, EnclaveId) {
        let mut m = Host::builder()
            .sgx(SgxConfig::with_tiny_epc(1024, 16))
            .build_machine();
        let t = m.add_thread();
        let a = m.create_enclave(64 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        let b = m.create_enclave(64 * PAGE_SIZE, 16 * PAGE_SIZE).unwrap();
        (m, t, a, b)
    }

    #[test]
    fn report_roundtrip() {
        let (mut m, t, a, b) = platform();
        let mut data = [0u8; 64];
        data[..5].copy_from_slice(b"hello");
        m.ecall_enter(t, a).unwrap();
        let report = ereport(&mut m, t, a, b, data).unwrap();
        m.ecall_exit(t, a).unwrap();

        m.ecall_enter(t, b).unwrap();
        assert!(verify_report(&mut m, t, b, &report).unwrap());
        m.ecall_exit(t, b).unwrap();
        assert_eq!(report.measurement, m.enclave(a).measurement());
    }

    #[test]
    fn tampered_report_rejected() {
        let (mut m, t, a, b) = platform();
        m.ecall_enter(t, a).unwrap();
        let mut report = ereport(&mut m, t, a, b, [7u8; 64]).unwrap();
        m.ecall_exit(t, a).unwrap();
        report.report_data[0] ^= 1;
        m.ecall_enter(t, b).unwrap();
        assert!(!verify_report(&mut m, t, b, &report).unwrap());
    }

    #[test]
    fn report_for_other_target_rejected() {
        let (mut m, t, a, b) = platform();
        // Report addressed to `a` cannot be verified by `b`.
        m.ecall_enter(t, a).unwrap();
        let report = ereport(&mut m, t, a, a, [0u8; 64]).unwrap();
        m.ecall_exit(t, a).unwrap();
        m.ecall_enter(t, b).unwrap();
        assert!(!verify_report(&mut m, t, b, &report).unwrap());
    }

    #[test]
    fn ereport_requires_being_inside() {
        let (mut m, t, a, b) = platform();
        assert_eq!(
            ereport(&mut m, t, a, b, [0u8; 64]),
            Err(SgxError::NotInEnclave)
        );
        m.ecall_enter(t, b).unwrap();
        // Inside b, cannot report as a.
        assert_eq!(
            ereport(&mut m, t, a, b, [0u8; 64]),
            Err(SgxError::NotInEnclave)
        );
    }

    #[test]
    fn forged_measurement_fails_mac() {
        let (mut m, t, a, b) = platform();
        m.ecall_enter(t, a).unwrap();
        let mut report = ereport(&mut m, t, a, b, [0u8; 64]).unwrap();
        m.ecall_exit(t, a).unwrap();
        // Claim to be some other enclave.
        report.measurement = [0xAA; 32];
        m.ecall_enter(t, b).unwrap();
        assert!(!verify_report(&mut m, t, b, &report).unwrap());
    }
}
