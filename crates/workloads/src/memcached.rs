//! Memcached workload (§4.2.7) — in-memory key-value store driven by
//! YCSB.
//!
//! The store (hash index + slab-style value arena) lives in protected
//! memory; a YCSB client on an untrusted driver thread populates it with
//! the Table 2 record counts and then issues 800 K zipfian-skewed
//! operations (workload-A style 50/50 read/update mix). Every request
//! crosses the trust boundary twice (receive + respond), which is what
//! makes the workload Data/ECALL-intensive under a LibOS.

use crate::util::{fold, scale_down};
use crate::ycsb::{OpKind, Operations};
use sgxgauge_core::env::{Placement, Region, SimThread};
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Value bytes per record (sized so the Table 2 record counts straddle
/// the EPC: 50 K ≈ 45 MB, 100 K ≈ 90 MB, 200 K ≈ 180 MB).
const VALUE_BYTES: u64 = 896;

/// Request/response wire sizes.
const REQ_BYTES: u64 = 64;
const RESP_BYTES: u64 = 128;

/// One-way network-stack delay between client and server, cycles.
const NET_DELAY: u64 = 2_000;

/// The Memcached workload. See the module docs.
#[derive(Debug, Clone)]
pub struct Memcached {
    divisor: u64,
}

impl Memcached {
    /// Paper-scale instance (50 K/100 K/200 K records, 800 K ops,
    /// YCSB workload A).
    pub fn new() -> Self {
        Memcached { divisor: 1 }
    }

    /// Instance with sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        Memcached {
            divisor: divisor.max(1),
        }
    }

    /// Records for `setting` (Table 2).
    pub fn records(&self, setting: InputSetting) -> u64 {
        let n: u64 = match setting {
            InputSetting::Low => 50_000,
            InputSetting::Medium => 100_000,
            InputSetting::High => 200_000,
        };
        scale_down(n, self.divisor, 128)
    }

    /// Operations in the run phase (Table 2: 800 K for every setting).
    pub fn operations(&self) -> u64 {
        scale_down(800_000, self.divisor, 512)
    }

    fn slots(&self, setting: InputSetting) -> u64 {
        (self.records(setting) * 2).next_power_of_two()
    }
}

impl Default for Memcached {
    fn default() -> Self {
        Memcached::new()
    }
}

#[inline]
fn hash_key(k: u64) -> u64 {
    let mut x = k.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x ^ (x >> 31)
}

/// The in-enclave store: index region + value arena, manipulated through
/// the environment on the *server* thread.
struct Store {
    index: Region,
    arena: Region,
    slots: u64,
    records: u64,
}

impl Store {
    /// Inserts or updates `key`; returns the value offset.
    fn upsert(&self, env: &mut Env, key: u64, stamp: u64) -> u64 {
        let mask = self.slots - 1;
        let mut s = hash_key(key) & mask;
        loop {
            let existing = env.read_u64(self.index, s * 16);
            if existing == 0 || existing == key {
                // Slab allocation: keys are dense, so the value slab slot
                // is derived from the key (memcached's slab classes keep
                // same-sized values packed the same way).
                let voff = ((key - 1) % self.records) * VALUE_BYTES;
                if existing == 0 {
                    env.write_u64(self.index, s * 16, key);
                    env.write_u64(self.index, s * 16 + 8, voff);
                }
                env.write_u64(self.arena, voff, stamp);
                env.touch(self.arena, voff + 8, VALUE_BYTES - 8, true);
                env.compute(60); // memcached command parsing + slab logic
                return voff;
            }
            s = (s + 1) & mask;
        }
    }

    /// Reads `key`, returning the value stamp if present.
    fn get(&self, env: &mut Env, key: u64) -> Option<u64> {
        let mask = self.slots - 1;
        let mut s = hash_key(key) & mask;
        loop {
            let existing = env.read_u64(self.index, s * 16);
            if existing == 0 {
                return None;
            }
            if existing == key {
                let voff = env.read_u64(self.index, s * 16 + 8);
                let stamp = env.read_u64(self.arena, voff);
                env.touch(self.arena, voff + 8, VALUE_BYTES - 8, false);
                env.compute(60);
                return Some(stamp);
            }
            s = (s + 1) & mask;
        }
    }
}

/// Executes one client→server request round trip; returns the latency in
/// cycles observed by the client.
fn request_roundtrip(
    env: &mut Env,
    server: SimThread,
    client: SimThread,
    server_work: impl FnOnce(&mut Env),
) -> Result<u64, WorkloadError> {
    // Client sends.
    let issue = env.with_thread(client, |env| {
        env.io_transfer(REQ_BYTES, true)?;
        Ok::<u64, WorkloadError>(env.now())
    })?;
    // Server picks the request up when both it and the request are ready.
    let start = issue + NET_DELAY;
    env.sync_to(server, start);
    let done = env.with_thread(server, |env| {
        env.io_transfer(REQ_BYTES, false)?; // recv
        server_work(env);
        env.io_transfer(RESP_BYTES, true)?; // respond
        Ok::<u64, WorkloadError>(env.now())
    })?;
    // Client observes the response.
    let ready = done + NET_DELAY;
    env.sync_to(client, ready);
    Ok(ready - issue)
}

impl Workload for Memcached {
    fn name(&self) -> &'static str {
        "Memcached"
    }

    fn property(&self) -> &'static str {
        "Data/ECALL-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let bytes = self.records(setting) * VALUE_BYTES + self.slots(setting) * 16;
        WorkloadSpec::new(
            bytes,
            format!(
                "Records: {} Operations: {}",
                self.records(setting),
                self.operations()
            ),
        )
    }

    fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let records = self.records(setting);
        let ops = self.operations();
        let slots = self.slots(setting);
        let index = env.alloc(slots * 16, Placement::Protected)?;
        let arena = env.alloc(records * VALUE_BYTES, Placement::Protected)?;
        let store = Store {
            index,
            arena,
            slots,
            records,
        };

        let server = env.main_thread();
        let client = env.spawn_driver_thread();

        // Load phase: YCSB inserts every record.
        for key in 0..records {
            request_roundtrip(env, server, client, |env| {
                store.upsert(env, key + 1, key.wrapping_mul(0x5851_f42d));
            })?;
        }

        // Run phase: YCSB core workload A over a zipfian key distribution,
        // as the paper implies with "a specified set of (read or write)
        // operations".
        let mut checksum = 0u64;
        let mut hits = 0u64;
        let mut latency_sum = 0u64;
        let stream = Operations::new(records, 0x5ca1e).take(ops as usize);
        for (i, (kind, key)) in stream.enumerate() {
            let lat = request_roundtrip(env, server, client, |env| match kind {
                OpKind::Read => {
                    if let Some(stamp) = store.get(env, (key % records) + 1) {
                        hits += 1;
                        checksum = fold(checksum, stamp);
                    }
                }
                OpKind::Update => {
                    store.upsert(env, (key % records) + 1, i as u64);
                }
            })?;
            latency_sum += lat;
        }

        if hits == 0 {
            return Err(WorkloadError::Validation("no YCSB read ever hit".into()));
        }
        Ok(WorkloadOutput {
            ops: records + ops,
            checksum,
            metrics: vec![
                ("read_hits".into(), hits as f64),
                (
                    "mean_latency_cycles".into(),
                    latency_sum as f64 / ops as f64,
                ),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn store_get_after_upsert() {
        let mut env = Env::new(sgxgauge_core::EnvConfig::quick_test(ExecMode::Vanilla)).unwrap();
        let index = env.alloc(1024 * 16, Placement::Untrusted).unwrap();
        let arena = env.alloc(512 * VALUE_BYTES, Placement::Untrusted).unwrap();
        let store = Store {
            index,
            arena,
            slots: 1024,
            records: 512,
        };
        store.upsert(&mut env, 42, 7);
        store.upsert(&mut env, 43, 8);
        assert_eq!(store.get(&mut env, 42), Some(7));
        assert_eq!(store.get(&mut env, 43), Some(8));
        assert_eq!(store.get(&mut env, 44), None);
        store.upsert(&mut env, 42, 9);
        assert_eq!(store.get(&mut env, 42), Some(9));
    }

    #[test]
    fn runs_in_vanilla_and_libos() {
        let wl = Memcached::scaled(512);
        let runner = Runner::new(RunnerConfig::quick_test());
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert!(v.output.metric("read_hits").unwrap() > 0.0);
        assert_eq!(v.output.checksum, l.output.checksum);
        // LibOS: every request is shim syscalls => OCALLs.
        assert!(
            l.sgx.ocalls > 2 * (v.output.ops / 2),
            "ocalls {}",
            l.sgx.ocalls
        );
    }

    #[test]
    fn native_mode_unsupported() {
        let wl = Memcached::new();
        assert!(!wl.supports(ExecMode::Native));
        let runner = Runner::new(RunnerConfig::quick_test());
        assert!(runner
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .is_err());
    }

    #[test]
    fn latency_higher_under_libos() {
        let wl = Memcached::scaled(512);
        let runner = Runner::new(RunnerConfig::quick_test());
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert!(
            l.output.metric("mean_latency_cycles").unwrap()
                > v.output.metric("mean_latency_cycles").unwrap()
        );
    }

    #[test]
    fn record_counts_follow_table2() {
        let wl = Memcached::new();
        assert_eq!(wl.records(InputSetting::Low), 50_000);
        assert_eq!(wl.records(InputSetting::High), 200_000);
        assert_eq!(wl.operations(), 800_000);
    }
}
