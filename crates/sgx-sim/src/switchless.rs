//! Switchless (exit-less) OCALLs (paper §5.6).
//!
//! Instead of an EEXIT/EENTER round trip — which flushes the TLB — the
//! enclave writes the call parameters to an untrusted shared-memory
//! channel and a *proxy thread* on another core executes the call. The
//! enclave spins/waits for the response. We model the proxy pool as a set
//! of worker timelines: a request is served by the earliest-free worker,
//! so contention appears naturally when callers outnumber proxies.

/// A pool of proxy threads serving switchless OCALLs.
///
/// ```
/// use sgx_sim::SwitchlessPool;
/// let mut pool = SwitchlessPool::new(2, 600);
/// // Two concurrent requests at t=0 run in parallel; a third waits.
/// let f1 = pool.submit(0, 1_000);
/// let f2 = pool.submit(0, 1_000);
/// let f3 = pool.submit(0, 1_000);
/// assert_eq!(f1, f2);
/// assert!(f3 > f2);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchlessPool {
    /// Completion time of each worker's last request.
    busy_until: Vec<u64>,
    /// Fixed shared-memory channel overhead per call (request write +
    /// response read + wake-up), in cycles.
    channel_cycles: u64,
    /// Number of calls served.
    served: u64,
}

impl SwitchlessPool {
    /// Creates a pool of `workers` proxy threads with the given per-call
    /// channel overhead.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, channel_cycles: u64) -> Self {
        assert!(
            workers > 0,
            "switchless pool needs at least one proxy thread"
        );
        SwitchlessPool {
            busy_until: vec![0; workers],
            channel_cycles,
            served: 0,
        }
    }

    /// Number of proxy threads.
    pub fn workers(&self) -> usize {
        self.busy_until.len()
    }

    /// Total calls served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Submits a request issued at time `now` whose untrusted work takes
    /// `work_cycles`; returns the completion time at which the enclave
    /// thread observes the response.
    pub fn submit(&mut self, now: u64, work_cycles: u64) -> u64 {
        self.served += 1;
        // Earliest-free worker.
        #[expect(
            clippy::expect_used,
            reason = "SwitchlessPool::new asserts a non-empty worker set, so the scan always finds one"
        )]
        let (idx, &free_at) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pool is non-empty");
        let start = now.saturating_add(self.channel_cycles / 2).max(free_at);
        let done = start + work_cycles;
        self.busy_until[idx] = done;
        done + self.channel_cycles / 2
    }

    /// Resets all worker timelines (e.g. between measurement runs).
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
        self.served = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_until_saturated() {
        let mut p = SwitchlessPool::new(2, 0);
        let a = p.submit(0, 100);
        let b = p.submit(0, 100);
        let c = p.submit(0, 100);
        assert_eq!(a, 100);
        assert_eq!(b, 100);
        assert_eq!(c, 200); // queued behind a worker
    }

    #[test]
    fn channel_overhead_charged_both_ways() {
        let mut p = SwitchlessPool::new(1, 600);
        let done = p.submit(1_000, 100);
        assert_eq!(done, 1_000 + 300 + 100 + 300);
    }

    #[test]
    fn later_requests_start_later() {
        let mut p = SwitchlessPool::new(1, 0);
        let a = p.submit(0, 50);
        let b = p.submit(1_000, 50);
        assert_eq!(a, 50);
        assert_eq!(b, 1_050); // worker idle, starts at now
    }

    #[test]
    fn served_counts() {
        let mut p = SwitchlessPool::new(4, 10);
        for i in 0..10 {
            p.submit(i, 5);
        }
        assert_eq!(p.served(), 10);
        p.reset();
        assert_eq!(p.served(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = SwitchlessPool::new(0, 0);
    }
}
