//! `Machine::try_new` rejects every TLB and LLC geometry the packed
//! recency word cannot model with a typed error, not a panic.

use mem_sim::{ConfigError, Machine, MachineConfig};

fn rejected(cfg: MachineConfig) -> ConfigError {
    Machine::try_new(cfg).expect_err("geometry must be rejected")
}

#[test]
fn ways_outside_recency_word_rejected() {
    let cfg = MachineConfig {
        l1_tlb_ways: 0,
        ..Default::default()
    };
    assert_eq!(rejected(cfg), ConfigError::Ways("L1 dTLB", 0));
    let cfg = MachineConfig {
        llc_ways: 17,
        ..Default::default()
    };
    assert_eq!(rejected(cfg), ConfigError::Ways("LLC", 17));
}

#[test]
fn tlb_entries_not_a_multiple_of_ways_rejected() {
    let cfg = MachineConfig {
        stlb_entries: 1537,
        ..Default::default()
    };
    let err = rejected(cfg);
    assert_eq!(err, ConfigError::TlbEntries("STLB", 1537));
    assert!(err.to_string().contains("multiple of its ways"), "{err}");
}

#[test]
fn llc_smaller_than_one_set_rejected() {
    let cfg = MachineConfig {
        llc_bytes: 15 * 64,
        ..Default::default()
    };
    assert_eq!(rejected(cfg), ConfigError::LlcTooSmall(960));
}
