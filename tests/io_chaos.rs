//! Integration: the crash-safe artifact plane. Every injected host-I/O
//! fault class must end in one of exactly two states — a byte-identical
//! completed artifact (after retries/recovery) or a typed error — and
//! never a panic or a torn published artifact.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use proptest::prelude::*;
use sgxgauge::core::io as aio;
use sgxgauge::core::{
    ArtifactError, ChaosFs, ExecMode, InputSetting, IoErrorKind, RealFs, RunnerConfig, SuiteRunner,
    SweepError, Workload,
};
use sgxgauge::faults::IoFaultPlan;
use sgxgauge::workloads::HashJoin;
use std::path::{Path, PathBuf};

/// The divisor of the workload and the platform.
const D: u64 = 1024;

fn suite() -> SuiteRunner {
    let mut cfg = RunnerConfig::scaled(D);
    cfg.repetitions = 2;
    SuiteRunner::new(cfg)
        .modes(&[ExecMode::Native])
        .settings(&[InputSetting::Low, InputSetting::Medium])
        .threads(1)
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sgxgauge-iochaos-{}-{name}.json",
        std::process::id()
    ));
    p
}

fn quarantine_sibling(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.tmp.quarantine", path.display()))
}

fn cleanup(path: &Path) {
    for p in [
        path.to_path_buf(),
        aio::tmp_sibling(path),
        aio::corrupt_sibling(path),
        quarantine_sibling(path),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

/// Runs the reference sweep through the real backend and returns its
/// fingerprint plus the sealed checkpoint bytes.
fn baseline(name: &str) -> (u64, String) {
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let path = scratch(name);
    cleanup(&path);
    let sweep = suite()
        .run_with_checkpoint_io(&refs, &path, false, &RealFs)
        .expect("fault-free run");
    let bytes = std::fs::read_to_string(&path).expect("checkpoint written");
    cleanup(&path);
    (sweep.fingerprint(), bytes)
}

/// The chaos matrix: for every fault class the sweep either completes
/// with a byte-identical, integrity-sealed checkpoint, or surfaces a
/// typed artifact error — and the published file is never torn.
#[test]
fn chaos_matrix_completes_identically_or_fails_typed() {
    let (base_fp, base_bytes) = baseline("matrix-base");
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let specs = [
        "seed=11,enospc=200",
        "seed=7,eio=300",
        "seed=5,torn=300",
        "seed=3,enospc=80,eio=120,torn=120",
    ];
    for (i, spec) in specs.iter().enumerate() {
        let path = scratch(&format!("matrix-{i}"));
        cleanup(&path);
        let plan = IoFaultPlan::parse(spec).expect("valid spec");
        let chaos = ChaosFs::over_real(plan);
        match suite().run_with_checkpoint_io(&refs, &path, false, &chaos) {
            Ok(sweep) => {
                assert_eq!(sweep.fingerprint(), base_fp, "{spec}: survived faults");
                let bytes = std::fs::read_to_string(&path).expect("published");
                assert_eq!(bytes, base_bytes, "{spec}: byte-identical artifact");
            }
            Err(SweepError::Artifact(e)) => {
                let typed = matches!(
                    &e,
                    ArtifactError::Io {
                        kind: IoErrorKind::NoSpace | IoErrorKind::Transient | IoErrorKind::Torn,
                        ..
                    }
                );
                assert!(typed, "{spec}: untyped failure {e:?}");
                // Whatever was published before the failure must still
                // unseal cleanly: torn data never reaches the artifact.
                if path.exists() {
                    let text = std::fs::read_to_string(&path).expect("readable");
                    aio::unseal(&path, &text).expect("published prefix is sealed");
                }
            }
            Err(other) => panic!("{spec}: unexpected error class: {other}"),
        }
        cleanup(&path);
    }
}

/// A chaos backend with an all-zero fault plan is indistinguishable from
/// the real filesystem, byte for byte.
#[test]
fn fault_free_chaos_backend_matches_real_fs_exactly() {
    let (base_fp, base_bytes) = baseline("noop-base");
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let path = scratch("noop-chaos");
    cleanup(&path);
    let chaos = ChaosFs::over_real(IoFaultPlan::parse("seed=9").expect("valid"));
    let sweep = suite()
        .run_with_checkpoint_io(&refs, &path, false, &chaos)
        .expect("no faults configured");
    assert_eq!(sweep.fingerprint(), base_fp);
    assert_eq!(
        std::fs::read_to_string(&path).expect("published"),
        base_bytes
    );
    cleanup(&path);
}

/// Crash at every rename point of the sweep in turn, then resume on the
/// real filesystem: the crashed publish's temp is quarantined, the
/// checkpoint still holds the previous publish, and the resumed sweep
/// recomputes the lost cells and converges on the uninterrupted bytes.
#[test]
fn crash_at_rename_recovers_and_resumes_to_identical_bytes() {
    let (base_fp, base_bytes) = baseline("crash-base");
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let path = scratch("crash-run");
    let mut k = 1;
    loop {
        cleanup(&path);
        let plan = IoFaultPlan::parse(&format!("seed=2,crash_rename={k}")).expect("valid");
        let chaos = ChaosFs::over_real(plan);
        let run = suite().run_with_checkpoint_io(&refs, &path, false, &chaos);
        if !chaos.crashed() {
            // Past the sweep's last rename: the run completes untouched.
            assert_eq!(run.expect("no crash fired").fingerprint(), base_fp);
            break;
        }
        match run {
            Err(SweepError::Artifact(ArtifactError::Io { kind, .. })) => {
                assert_eq!(kind, IoErrorKind::CrashRename, "k={k}")
            }
            Err(other) => panic!("k={k}: unexpected error class: {other}"),
            Ok(_) => panic!("k={k}: the crash must fail the run"),
        }
        // The crash left the verified temp of the lost publish behind.
        assert!(aio::tmp_sibling(&path).exists(), "k={k}");
        let resumed = suite()
            .run_with_checkpoint_io(&refs, &path, true, &RealFs)
            .expect("resumed run");
        assert_eq!(resumed.fingerprint(), base_fp, "k={k}");
        assert_eq!(
            std::fs::read_to_string(&path).expect("rewritten"),
            base_bytes,
            "k={k}"
        );
        assert!(
            quarantine_sibling(&path).exists(),
            "k={k}: temp quarantined"
        );
        k += 1;
    }
    // The header and every cell publish each had their crash point.
    assert!(k > 2, "the sweep renames more than once");
    cleanup(&path);
}

/// A checkpoint whose body no longer matches its CRC32 footer is refused
/// with a typed error and preserved as `<path>.corrupt` for inspection.
#[test]
fn corrupt_checkpoint_is_refused_and_preserved() {
    let (_, base_bytes) = baseline("corrupt-base");
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let path = scratch("corrupt-run");
    cleanup(&path);
    std::fs::write(&path, base_bytes.replacen("\"index\":0", "\"index\":7", 1))
        .expect("seed tampered checkpoint");
    let err = suite()
        .run_with_checkpoint_io(&refs, &path, true, &RealFs)
        .expect_err("checksum mismatch must refuse the resume");
    match err {
        SweepError::Artifact(ArtifactError::Corrupt {
            expected, found, ..
        }) => assert_ne!(expected, found),
        other => panic!("unexpected error class: {other}"),
    }
    assert!(!path.exists(), "corrupt file is moved aside");
    assert!(
        aio::corrupt_sibling(&path).exists(),
        "tampered bytes are preserved for inspection"
    );
    cleanup(&path);
}

/// A checkpoint without its integrity footer is refused with a typed
/// `Format` error, even when its body is a valid checkpoint: every
/// checkpoint the harness writes is sealed.
#[test]
fn footerless_checkpoint_is_a_format_error() {
    let (_, base_bytes) = baseline("footerless-base");
    let wl = HashJoin::scaled(D);
    let refs: Vec<&dyn Workload> = vec![&wl];
    let path = scratch("footerless-run");
    cleanup(&path);
    let body: String = base_bytes
        .lines()
        .filter(|l| !l.starts_with(aio::INTEGRITY_PREFIX))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, body).expect("seed footerless checkpoint");
    let err = suite()
        .run_with_checkpoint_io(&refs, &path, true, &RealFs)
        .expect_err("an unsealed checkpoint must refuse the resume");
    match err {
        SweepError::Artifact(ArtifactError::Format { message, .. }) => {
            assert!(message.contains("integrity footer"), "{message}");
        }
        other => panic!("unexpected error class: {other}"),
    }
    cleanup(&path);
}

/// The IEEE CRC32 check values the footer format is defined against.
#[test]
fn crc32_known_vectors() {
    assert_eq!(aio::crc32(b""), 0);
    assert_eq!(aio::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        aio::crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

proptest! {
    /// seal/unseal round-trips any printable body, and unseal returns
    /// the body's CRC from the footer.
    #[test]
    fn seal_unseal_roundtrip(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let body: String = raw.iter().map(|b| char::from(32 + b % 95)).collect();
        let sealed = aio::seal(&body);
        let (crc, unsealed) =
            aio::unseal(Path::new("prop.json"), &sealed).expect("own footer verifies");
        let mut expected = body.clone();
        if !expected.ends_with('\n') {
            expected.push('\n');
        }
        prop_assert_eq!(crc, aio::crc32(expected.as_bytes()));
        prop_assert_eq!(unsealed, expected);
    }

    /// Any body byte change under an intact footer is caught as
    /// `Corrupt`. (Destroying the footer itself is a `Format` error,
    /// which `unseal_detects_corruption_and_rejects_a_missing_footer`
    /// covers, so only body flips apply.)
    #[test]
    fn seal_detects_any_body_byte_change(raw in prop::collection::vec(any::<u8>(), 1..256),
                                         idx_seed in any::<u64>(), bit in 0usize..7) {
        // Printable ASCII body: one byte per char, so `idx` indexes the
        // body region of the sealed document directly.
        let body: String = raw.iter().map(|b| char::from(32 + b % 95)).collect();
        let sealed = aio::seal(&body);
        let mut bytes = sealed.clone().into_bytes();
        let idx = (idx_seed as usize) % body.len();
        let flipped = bytes[idx] ^ (1 << bit);
        // Keep the flip printable so it is a content change, not UTF-8
        // or line-structure breakage.
        bytes[idx] = if flipped.is_ascii_graphic() { flipped } else { b'~' };
        let text = String::from_utf8(bytes).expect("still ascii");
        if text != sealed {
            let err = aio::unseal(Path::new("prop.json"), &text).expect_err("flip caught");
            let corrupt = matches!(err, ArtifactError::Corrupt { .. });
            prop_assert!(corrupt);
        }
    }

    /// A crash at *every* rename point is survived without a journal:
    /// publish a sequence of versions through a backend that dies at
    /// rename `k`. The previous sealed version stays readable, `recover`
    /// quarantines the crashed publish's temp exactly once (a second
    /// call finds nothing), and publishing again converges.
    #[test]
    fn crash_at_every_rename_keeps_the_previous_version(k in 1u64..5, seed in any::<u64>()) {
        let path = scratch("prop-crash");
        cleanup(&path);
        let versions: Vec<String> = (0..4u64)
            .map(|i| format!("{{\"version\":{i},\"seed\":{seed}}}\n"))
            .collect();
        // Each publish performs exactly one rename, so `crash_rename=k`
        // dies mid-publish of version k-1 (0-based), after its verified
        // temp landed but before the rename.
        let chaos = ChaosFs::over_real(
            IoFaultPlan::parse(&format!("crash_rename={k}")).expect("valid plan"),
        );
        let mut crashed_at = None;
        for (i, version) in versions.iter().enumerate() {
            match aio::publish_sealed(&chaos, &path, version) {
                Ok(()) => {}
                Err(ArtifactError::Io { kind: IoErrorKind::CrashRename, .. }) => {
                    crashed_at = Some(i);
                    break;
                }
                Err(other) => return Err(TestCaseError::Fail(format!("unexpected: {other}"))),
            }
        }
        let crashed_at = crashed_at.expect("k <= version count, so the crash fires");
        prop_assert_eq!(crashed_at as u64, k - 1);

        // The target is the last completed publish, or absent when the
        // very first publish crashed.
        let previous = std::fs::read_to_string(&path).ok();
        match crashed_at.checked_sub(1) {
            Some(done) => {
                let text = previous.clone().expect("previous version readable");
                let (_, body) = aio::unseal(&path, &text).expect("footer verifies");
                prop_assert_eq!(body, versions[done].as_str());
            }
            None => prop_assert!(previous.is_none()),
        }

        let quarantined = aio::recover(&RealFs, &path).expect("first recover");
        prop_assert_eq!(quarantined, Some(quarantine_sibling(&path)));
        prop_assert!(!aio::tmp_sibling(&path).exists(), "the temp is moved aside");
        let second = aio::recover(&RealFs, &path).expect("second recover");
        prop_assert_eq!(second, None);
        prop_assert_eq!(std::fs::read_to_string(&path).ok(), previous);

        // Publishing the lost version again converges.
        aio::publish_sealed(&RealFs, &path, &versions[crashed_at]).expect("republish");
        let text = std::fs::read_to_string(&path).expect("published");
        let (_, body) = aio::unseal(&path, &text).expect("footer verifies");
        prop_assert_eq!(body, versions[crashed_at].as_str());
        cleanup(&path);
    }
}
