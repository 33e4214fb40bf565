//! Declarative **network** fault plans for the cross-enclave relay.
//!
//! Where [`crate::FaultPlan`] injects faults *inside* one enclave's
//! execution (AEX storms, EPC spikes, syscall failures), a
//! [`NetFaultPlan`] injects faults *between* enclaves: message drops,
//! delivery delays, duplication, reordering jitter, link partitions and
//! whole-party kills. The compiled [`NetFaultHook`] is stateless: every
//! probabilistic decision is a pure hash of (seed, salt, message
//! sequence number, purpose), so outcomes are independent of delivery
//! order, polling cadence and `--jobs`, and byte-identical run-to-run.

use crate::plan::{parse_permille, parse_u32, parse_u64, split_spec};
use crate::prng::splitmix64;

/// A scheduled bidirectional link cut between two parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPartition {
    /// One endpoint of the cut link.
    pub from: u32,
    /// The other endpoint of the cut link.
    pub to: u32,
    /// Simulated cycle at which the partition begins.
    pub at_cycles: u64,
    /// Simulated cycles the partition lasts.
    pub duration_cycles: u64,
}

/// A scheduled window during which one party is dead: it neither sends
/// nor receives, and its silence drives the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartyKill {
    /// The party taken down.
    pub party: u32,
    /// Simulated cycle at which the kill begins.
    pub at_cycles: u64,
    /// Simulated cycles the party stays dead.
    pub duration_cycles: u64,
}

/// Probabilistic extra delivery latency: each message independently
/// gains `cycles` with probability `permille`/1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDelay {
    /// Extra simulated cycles added to an affected delivery.
    pub cycles: u64,
    /// Probability in permille that a message is affected.
    pub permille: u32,
}

/// A seeded, declarative network fault plan.
///
/// Parsed from a comma-separated spec string sharing the strict item
/// grammar (positioned errors, no duplicate keys, no trailing commas)
/// of [`crate::FaultPlan`]:
///
/// ```text
/// seed=<u64>                       PRNG seed (default 1)
/// drop=<permille>                  each message is lost with p/1000
/// delay=<cycles>@<permille>        extra latency on p/1000 of messages
/// dup=<permille>                   each message is duplicated with p/1000
/// reorder=<permille>               p/1000 of messages gain hashed jitter
/// partition=<from>-<to>@<cycle>:<dur>   cut one link for a window
/// partykill=<id>@<cycle>:<dur>     kill one party for a window
/// ```
///
/// Each key may appear once per spec; richer schedules (several
/// partitions or kills) are composed programmatically by pushing onto
/// [`NetFaultPlan::partitions`] / [`NetFaultPlan::partykills`].
///
/// ```
/// use faults::NetFaultPlan;
/// let p = NetFaultPlan::parse("drop=50,partykill=2@100000:500000").unwrap();
/// assert_eq!(p.drop_permille, 50);
/// assert_eq!(p.partykills[0].party, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Base PRNG seed; every compiled hook mixes it with its salt.
    pub seed: u64,
    /// Per-message loss probability in permille (0–1000).
    pub drop_permille: u32,
    /// Probabilistic extra delivery latency, if any.
    pub delay: Option<NetDelay>,
    /// Per-message duplication probability in permille (0–1000).
    pub dup_permille: u32,
    /// Per-message reordering-jitter probability in permille (0–1000).
    pub reorder_permille: u32,
    /// Scheduled link partitions (bidirectional cuts).
    pub partitions: Vec<LinkPartition>,
    /// Scheduled party kill windows.
    pub partykills: Vec<PartyKill>,
}

impl NetFaultPlan {
    /// Parses the spec grammar documented on the type.
    ///
    /// # Errors
    ///
    /// Returns a positioned (`line 1, column C`) message naming the
    /// offending item, with the same strictness as
    /// [`crate::FaultPlan::parse`].
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut plan = NetFaultPlan {
            seed: 1,
            ..NetFaultPlan::default()
        };
        for item in split_spec(spec)? {
            let (key, val, col) = (item.key, item.val, item.col);
            match key {
                "seed" => plan.seed = parse_u64("seed", val)?,
                "drop" => plan.drop_permille = parse_permille("drop", val)?,
                "dup" => plan.dup_permille = parse_permille("dup", val)?,
                "reorder" => plan.reorder_permille = parse_permille("reorder", val)?,
                "delay" => {
                    let (cycles, permille) = val
                        .split_once('@')
                        .ok_or_else(|| format!("delay=`{val}` is not <cycles>@<permille>"))?;
                    let delay = NetDelay {
                        cycles: parse_u64("delay cycles", cycles)?,
                        permille: parse_permille("delay", permille)?,
                    };
                    if delay.cycles == 0 || delay.permille == 0 {
                        return Err("delay needs non-zero cycles and permille".into());
                    }
                    plan.delay = Some(delay);
                }
                "partition" => {
                    let (ends, window) = val.split_once('@').ok_or_else(|| {
                        format!("partition=`{val}` is not <from>-<to>@<cycle>:<dur>")
                    })?;
                    let (from, to) = ends.split_once('-').ok_or_else(|| {
                        format!("partition=`{val}` is not <from>-<to>@<cycle>:<dur>")
                    })?;
                    let (at, dur) = window.split_once(':').ok_or_else(|| {
                        format!("partition=`{val}` is not <from>-<to>@<cycle>:<dur>")
                    })?;
                    let cut = LinkPartition {
                        from: parse_u32("partition from", from)?,
                        to: parse_u32("partition to", to)?,
                        at_cycles: parse_u64("partition cycle", at)?,
                        duration_cycles: parse_u64("partition duration", dur)?,
                    };
                    if cut.from == cut.to {
                        return Err("partition endpoints must differ".into());
                    }
                    if cut.duration_cycles == 0 {
                        return Err("partition needs a non-zero duration".into());
                    }
                    plan.partitions.push(cut);
                }
                "partykill" => {
                    let (id, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("partykill=`{val}` is not <id>@<cycle>:<dur>"))?;
                    let (at, dur) = window
                        .split_once(':')
                        .ok_or_else(|| format!("partykill=`{val}` is not <id>@<cycle>:<dur>"))?;
                    let kill = PartyKill {
                        party: parse_u32("partykill id", id)?,
                        at_cycles: parse_u64("partykill cycle", at)?,
                        duration_cycles: parse_u64("partykill duration", dur)?,
                    };
                    if kill.duration_cycles == 0 {
                        return Err("partykill needs a non-zero duration".into());
                    }
                    plan.partykills.push(kill);
                }
                other => {
                    return Err(format!(
                        "line 1, column {col}: unknown network fault item `{other}`"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.drop_permille == 0
            && self.delay.is_none()
            && self.dup_permille == 0
            && self.reorder_permille == 0
            && self.partitions.is_empty()
            && self.partykills.is_empty()
    }

    /// The same plan with its seed deterministically re-derived from
    /// `salt`, mirroring [`crate::FaultPlan::salted`] so campaign
    /// stages decorrelate their network weather per stage ordinal.
    #[must_use]
    pub fn salted(&self, salt: u64) -> NetFaultPlan {
        let mut plan = self.clone();
        plan.seed = splitmix64(self.seed ^ salt.rotate_left(32));
        plan
    }

    /// Compiles the plan into a per-run hook. `salt` distinguishes runs
    /// that must see *different* network weather (the sweep executor
    /// derives it per cell and attempt); schedule windows (partitions,
    /// kills) are calendar facts and are **not** salted.
    pub fn compile(&self, salt: u64) -> NetFaultHook {
        NetFaultHook::new(self, salt)
    }

    /// An order-sensitive FNV-1a digest of the plan, used to guard
    /// checkpoints exactly like [`crate::FaultPlan::digest`].
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.seed);
        mix(u64::from(self.drop_permille));
        match self.delay {
            Some(d) => {
                mix(1);
                mix(d.cycles);
                mix(u64::from(d.permille));
            }
            None => mix(0),
        }
        mix(u64::from(self.dup_permille));
        mix(u64::from(self.reorder_permille));
        mix(self.partitions.len() as u64);
        for p in &self.partitions {
            mix(u64::from(p.from));
            mix(u64::from(p.to));
            mix(p.at_cycles);
            mix(p.duration_cycles);
        }
        mix(self.partykills.len() as u64);
        for k in &self.partykills {
            mix(u64::from(k.party));
            mix(k.at_cycles);
            mix(k.duration_cycles);
        }
        h
    }
}

/// Purpose tags decorrelating the per-message hash draws: the drop
/// decision for message 7 must not predict its delay or duplication.
mod tag {
    pub const DROP: u64 = 0x6472;
    pub const DELAY: u64 = 0x646c;
    pub const DUP: u64 = 0x6475;
    pub const REORDER: u64 = 0x726f;
}

/// Compiled, stateless network fault oracle.
///
/// All probabilistic draws are pure functions of the compiled key and
/// the message sequence number, so two relays replaying the same
/// message sequence reach identical verdicts regardless of the order in
/// which they ask — the property that makes relay runs byte-identical
/// across `--jobs`. Schedule queries (`link_cut`, `party_dead`) are
/// pure functions of the plan's windows and the queried cycle.
#[derive(Debug, Clone)]
pub struct NetFaultHook {
    key: u64,
    drop_permille: u32,
    delay: Option<NetDelay>,
    dup_permille: u32,
    reorder_permille: u32,
    partitions: Vec<LinkPartition>,
    partykills: Vec<PartyKill>,
}

impl NetFaultHook {
    /// Compiles `plan` under `salt`; prefer [`NetFaultPlan::compile`].
    pub fn new(plan: &NetFaultPlan, salt: u64) -> NetFaultHook {
        NetFaultHook {
            key: splitmix64(plan.seed ^ splitmix64(salt)),
            drop_permille: plan.drop_permille,
            delay: plan.delay,
            dup_permille: plan.dup_permille,
            reorder_permille: plan.reorder_permille,
            partitions: plan.partitions.clone(),
            partykills: plan.partykills.clone(),
        }
    }

    fn draw(&self, seq: u64, tag: u64) -> u64 {
        splitmix64(self.key ^ splitmix64(seq.wrapping_mul(0x9e37_79b9_7f4a_7c55) ^ tag))
    }

    fn chance(&self, seq: u64, tag: u64, permille: u32) -> bool {
        permille > 0 && self.draw(seq, tag) % 1000 < u64::from(permille)
    }

    /// Whether message `seq` is lost in transit.
    pub fn drops(&self, seq: u64) -> bool {
        self.chance(seq, tag::DROP, self.drop_permille)
    }

    /// Extra delivery latency for message `seq` (0 when unaffected).
    pub fn delay_cycles(&self, seq: u64) -> u64 {
        match self.delay {
            Some(d) if self.chance(seq, tag::DELAY, d.permille) => d.cycles,
            _ => 0,
        }
    }

    /// Whether message `seq` arrives twice.
    pub fn duplicates(&self, seq: u64) -> bool {
        self.chance(seq, tag::DUP, self.dup_permille)
    }

    /// Reordering jitter for message `seq`: a hashed extra latency in
    /// `1..=span` cycles when affected, 0 otherwise. The caller picks
    /// `span` (typically a small multiple of the link latency) so the
    /// faults crate stays free of cost-model constants.
    pub fn reorder_jitter(&self, seq: u64, span: u64) -> u64 {
        if span == 0 || !self.chance(seq, tag::REORDER, self.reorder_permille) {
            return 0;
        }
        1 + self.draw(seq, tag::REORDER ^ 0xff) % span
    }

    /// Whether the `from`↔`to` link is cut at cycle `now`, either by a
    /// scheduled partition covering the pair (in either orientation) or
    /// because an endpoint is dead.
    pub fn link_cut(&self, from: u32, to: u32, now: u64) -> bool {
        if self.party_dead(from, now) || self.party_dead(to, now) {
            return true;
        }
        self.partitions.iter().any(|p| {
            let pair = (p.from == from && p.to == to) || (p.from == to && p.to == from);
            pair && in_window(now, p.at_cycles, p.duration_cycles)
        })
    }

    /// Whether `party` is inside a scheduled kill window at cycle `now`.
    pub fn party_dead(&self, party: u32, now: u64) -> bool {
        self.partykills
            .iter()
            .any(|k| k.party == party && in_window(now, k.at_cycles, k.duration_cycles))
    }

    /// The earliest cycle strictly after `now` at which any schedule
    /// window opens or closes — lets an idle driver jump straight to
    /// the next state change instead of polling.
    pub fn next_schedule_edge(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |edge: u64| {
            if edge > now && next.is_none_or(|n| edge < n) {
                next = Some(edge);
            }
        };
        for p in &self.partitions {
            consider(p.at_cycles);
            consider(p.at_cycles.saturating_add(p.duration_cycles));
        }
        for k in &self.partykills {
            consider(k.at_cycles);
            consider(k.at_cycles.saturating_add(k.duration_cycles));
        }
        next
    }
}

fn in_window(now: u64, at: u64, dur: u64) -> bool {
    now >= at && now < at.saturating_add(dur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = NetFaultPlan::parse(
            "seed=9,drop=50,delay=4_000@100,dup=25,reorder=80,\
             partition=0-3@10000:5000,partykill=2@100000:500000",
        )
        .unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.drop_permille, 50);
        assert_eq!(
            p.delay,
            Some(NetDelay {
                cycles: 4_000,
                permille: 100
            })
        );
        assert_eq!(p.dup_permille, 25);
        assert_eq!(p.reorder_permille, 80);
        assert_eq!(
            p.partitions,
            vec![LinkPartition {
                from: 0,
                to: 3,
                at_cycles: 10_000,
                duration_cycles: 5_000
            }]
        );
        assert_eq!(
            p.partykills,
            vec![PartyKill {
                party: 2,
                at_cycles: 100_000,
                duration_cycles: 500_000
            }]
        );
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_spec_defaults_to_seed_one_and_no_faults() {
        let p = NetFaultPlan::parse("").unwrap();
        assert_eq!(p.seed, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn rejects_malformed_items() {
        assert!(NetFaultPlan::parse("drop=1001").is_err());
        assert!(NetFaultPlan::parse("delay=4000").is_err());
        assert!(NetFaultPlan::parse("delay=0@100").is_err());
        assert!(NetFaultPlan::parse("partition=1@100:50").is_err());
        assert!(NetFaultPlan::parse("partition=1-1@100:50").is_err());
        assert!(NetFaultPlan::parse("partition=1-2@100:0").is_err());
        assert!(NetFaultPlan::parse("partykill=2@100").is_err());
        assert!(NetFaultPlan::parse("partykill=2@100:0").is_err());
        assert!(NetFaultPlan::parse("blizzard=7").is_err());
    }

    #[test]
    fn rejects_duplicates_and_trailing_commas_with_position() {
        let err = NetFaultPlan::parse("drop=10,drop=20").unwrap_err();
        assert!(err.contains("line 1, column 9"), "got: {err}");
        assert!(err.contains("duplicate fault item `drop`"), "got: {err}");
        let err = NetFaultPlan::parse("drop=10,").unwrap_err();
        assert!(err.contains("empty fault item"), "got: {err}");
    }

    #[test]
    fn rejects_party_ids_beyond_u32_instead_of_truncating() {
        // Truncation would aim a fault at party 0 or 1 instead.
        let err = NetFaultPlan::parse("partition=4294967296-1@100:50").unwrap_err();
        assert!(
            err.contains("partition from: 4294967296 exceeds"),
            "got: {err}"
        );
        let err = NetFaultPlan::parse("partition=0-4294967297@100:50").unwrap_err();
        assert!(
            err.contains("partition to: 4294967297 exceeds"),
            "got: {err}"
        );
        let err = NetFaultPlan::parse("partykill=4294967298@100:50").unwrap_err();
        assert!(
            err.contains("partykill id: 4294967298 exceeds"),
            "got: {err}"
        );
        let p = NetFaultPlan::parse("partykill=4294967295@100:50").unwrap();
        assert_eq!(p.partykills[0].party, u32::MAX);
    }

    #[test]
    fn draws_are_stateless_and_order_independent() {
        let hook = NetFaultPlan::parse("seed=3,drop=200,dup=100,reorder=300")
            .unwrap()
            .compile(7);
        let forward: Vec<bool> = (0..64).map(|s| hook.drops(s)).collect();
        let backward: Vec<bool> = (0..64).rev().map(|s| hook.drops(s)).collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
        // Roughly 200/1000 of messages drop — sanity, not exactness.
        let hits = forward.iter().filter(|d| **d).count();
        assert!(hits > 0 && hits < 32, "drop rate implausible: {hits}/64");
    }

    #[test]
    fn draw_purposes_are_decorrelated() {
        let hook = NetFaultPlan::parse("seed=3,drop=500,dup=500,reorder=500")
            .unwrap()
            .compile(0);
        let drops: Vec<bool> = (0..256).map(|s| hook.drops(s)).collect();
        let dups: Vec<bool> = (0..256).map(|s| hook.duplicates(s)).collect();
        assert_ne!(drops, dups);
    }

    #[test]
    fn salt_changes_draws_but_not_schedule() {
        let plan = NetFaultPlan::parse("seed=3,drop=500,partykill=1@1000:2000").unwrap();
        let a = plan.compile(1);
        let b = plan.compile(2);
        let draws_a: Vec<bool> = (0..128).map(|s| a.drops(s)).collect();
        let draws_b: Vec<bool> = (0..128).map(|s| b.drops(s)).collect();
        assert_ne!(draws_a, draws_b);
        for now in [0, 999, 1000, 2999, 3000] {
            assert_eq!(a.party_dead(1, now), b.party_dead(1, now));
        }
    }

    #[test]
    fn schedule_windows_are_half_open() {
        let hook = NetFaultPlan::parse("partykill=2@100:50,partition=0-1@300:10")
            .unwrap()
            .compile(0);
        assert!(!hook.party_dead(2, 99));
        assert!(hook.party_dead(2, 100));
        assert!(hook.party_dead(2, 149));
        assert!(!hook.party_dead(2, 150));
        assert!(!hook.link_cut(0, 1, 299));
        assert!(hook.link_cut(0, 1, 300));
        assert!(hook.link_cut(1, 0, 305));
        assert!(!hook.link_cut(0, 1, 310));
        // A dead endpoint cuts every adjacent link.
        assert!(hook.link_cut(2, 3, 120));
        assert!(hook.link_cut(3, 2, 120));
    }

    #[test]
    fn next_schedule_edge_walks_all_window_boundaries() {
        let hook = NetFaultPlan::parse("partykill=2@100:50,partition=0-1@300:10")
            .unwrap()
            .compile(0);
        assert_eq!(hook.next_schedule_edge(0), Some(100));
        assert_eq!(hook.next_schedule_edge(100), Some(150));
        assert_eq!(hook.next_schedule_edge(150), Some(300));
        assert_eq!(hook.next_schedule_edge(300), Some(310));
        assert_eq!(hook.next_schedule_edge(310), None);
    }

    #[test]
    fn digest_distinguishes_plans() {
        let a = NetFaultPlan::parse("seed=1,drop=50").unwrap();
        let b = NetFaultPlan::parse("seed=2,drop=50").unwrap();
        let c = NetFaultPlan::parse("seed=1,drop=51").unwrap();
        let d = NetFaultPlan::parse("seed=1,drop=50,partykill=2@1:1").unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
        assert_eq!(
            a.digest(),
            NetFaultPlan::parse("seed=1,drop=50").unwrap().digest()
        );
    }

    #[test]
    fn salted_rederives_seed_like_fault_plan() {
        let plan = NetFaultPlan::parse("seed=5,drop=10").unwrap();
        let s1 = plan.salted(9);
        let s2 = plan.salted(9);
        assert_eq!(s1, s2);
        assert_ne!(s1.seed, plan.seed);
        assert_eq!(s1.drop_permille, 10);
    }
}
