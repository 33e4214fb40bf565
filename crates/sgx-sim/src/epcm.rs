//! The Enclave Page Cache Map (EPCM).
//!
//! SGX keeps one EPCM entry per EPC frame recording the owning enclave,
//! the virtual address the frame was allocated for, and its permissions.
//! The hardware consults the entry whenever a TLB entry for an EPC page is
//! installed (paper §2.3, Fig 1); a mismatch aborts the access. We model
//! the structure functionally — the cycle cost of the check is charged by
//! the machine as part of the page walk.
//!
//! The table is dense: one permission byte per enclave page, held in the
//! same per-enclave page runs as the EPC residency map
//! ([`mem_sim::pagemap`]). An enclave build records every page of its
//! ELRANGE, so a launched 4 GB LibOS enclave leaves ~1 M entries behind,
//! and a runner clones them into every LibOS cell: at one byte each that
//! is 1 MiB.

use crate::enclave::EnclaveId;
use crate::epc::PageKey;
use mem_sim::pagemap::PageMap;

/// Page permissions recorded in an EPCM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub execute: bool,
}

impl PagePerms {
    /// Read-write data page (the common case for heap pages).
    pub const RW: PagePerms = PagePerms {
        read: true,
        write: true,
        execute: false,
    };
    /// Read-execute code page.
    pub const RX: PagePerms = PagePerms {
        read: true,
        write: false,
        execute: true,
    };
}

/// One EPCM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcmEntry {
    /// Enclave the frame belongs to.
    pub owner: EnclaveId,
    /// Virtual page the frame was EADDed for.
    pub vpage: u64,
    /// Access permissions.
    pub perms: PagePerms,
}

/// Result of an EPCM verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpcmCheck {
    /// Entry matches the access.
    Ok,
    /// No entry exists for the page (not an EPC page of this enclave).
    NoEntry,
    /// The page belongs to a different enclave.
    WrongOwner,
    /// Permissions deny the access.
    Denied,
}

/// The EPCM table.
///
/// ```
/// use sgx_sim::epcm::{Epcm, PagePerms, EpcmCheck};
/// use sgx_sim::enclave::EnclaveId;
///
/// let mut epcm = Epcm::new();
/// let e = EnclaveId(3);
/// epcm.record(e, 100, PagePerms::RW);
/// assert_eq!(epcm.verify(e, 100, false), EpcmCheck::Ok);
/// assert_eq!(epcm.verify(EnclaveId(4), 100, false), EpcmCheck::WrongOwner);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Epcm {
    /// Per enclave page: [`PRESENT`] plus the permission bits.
    slots: PageMap<u8>,
}

/// Set in every recorded slot, so a slot of 0 means "no entry".
const PRESENT: u8 = 1 << 7;
const READ: u8 = 1;
const WRITE: u8 = 1 << 1;
const EXECUTE: u8 = 1 << 2;

impl PagePerms {
    fn to_slot(self) -> u8 {
        let bit = |on: bool, b: u8| if on { b } else { 0 };
        PRESENT | bit(self.read, READ) | bit(self.write, WRITE) | bit(self.execute, EXECUTE)
    }

    fn from_slot(slot: u8) -> PagePerms {
        PagePerms {
            read: slot & READ != 0,
            write: slot & WRITE != 0,
            execute: slot & EXECUTE != 0,
        }
    }
}

impl Epcm {
    /// Creates an empty EPCM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or updates) `owner`'s entry for virtual page `vpage`.
    ///
    /// ELRANGEs are disjoint ([`crate::SgxMachine::create_enclave`] puts
    /// a guard gap between them), so a page is only ever recorded for
    /// one enclave; callers driving the table directly must keep their
    /// enclaves' page ranges disjoint too.
    pub fn record(&mut self, owner: EnclaveId, vpage: u64, perms: PagePerms) {
        self.slots.insert(owner.0, vpage, perms.to_slot());
    }

    /// Removes the entry for `vpage` (EREMOVE).
    pub fn remove(&mut self, vpage: u64) -> Option<EpcmEntry> {
        let entry = self.entry(vpage)?;
        self.slots.remove(entry.owner.0, vpage);
        Some(entry)
    }

    /// Removes every entry owned by `enclave`; returns the count.
    pub fn remove_enclave(&mut self, enclave: EnclaveId) -> usize {
        self.slots.remove_space(enclave.0)
    }

    /// Verifies that `enclave` may access `vpage` (`write` selects the
    /// store path). This is the check the hardware performs while filling
    /// a TLB entry for an EPC page.
    pub fn verify(&self, enclave: EnclaveId, vpage: u64, write: bool) -> EpcmCheck {
        match self.entry(vpage) {
            None => EpcmCheck::NoEntry,
            Some(e) if e.owner != enclave => EpcmCheck::WrongOwner,
            Some(e) => {
                let allowed = if write { e.perms.write } else { e.perms.read };
                if allowed {
                    EpcmCheck::Ok
                } else {
                    EpcmCheck::Denied
                }
            }
        }
    }

    /// Looks up the entry for `vpage`.
    pub fn entry(&self, vpage: u64) -> Option<EpcmEntry> {
        self.slots.find_page(vpage).map(|(owner, slot)| EpcmEntry {
            owner: EnclaveId(owner),
            vpage,
            perms: PagePerms::from_slot(slot),
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience: records an entry from a [`PageKey`].
    pub fn record_key(&mut self, key: PageKey, perms: PagePerms) {
        self.record(key.enclave, key.page, perms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_matches_owner_and_perms() {
        let mut epcm = Epcm::new();
        epcm.record(EnclaveId(1), 7, PagePerms::RW);
        assert_eq!(epcm.verify(EnclaveId(1), 7, true), EpcmCheck::Ok);
        assert_eq!(epcm.verify(EnclaveId(1), 7, false), EpcmCheck::Ok);
        assert_eq!(epcm.verify(EnclaveId(2), 7, false), EpcmCheck::WrongOwner);
        assert_eq!(epcm.verify(EnclaveId(1), 8, false), EpcmCheck::NoEntry);
    }

    #[test]
    fn execute_only_page_denies_write() {
        let mut epcm = Epcm::new();
        epcm.record(EnclaveId(1), 9, PagePerms::RX);
        assert_eq!(epcm.verify(EnclaveId(1), 9, true), EpcmCheck::Denied);
        assert_eq!(epcm.verify(EnclaveId(1), 9, false), EpcmCheck::Ok);
    }

    #[test]
    fn remove_enclave_clears_only_its_pages() {
        let mut epcm = Epcm::new();
        epcm.record(EnclaveId(1), 1, PagePerms::RW);
        epcm.record(EnclaveId(1), 2, PagePerms::RW);
        epcm.record(EnclaveId(2), 3, PagePerms::RW);
        assert_eq!(epcm.remove_enclave(EnclaveId(1)), 2);
        assert_eq!(epcm.len(), 1);
        assert_eq!(epcm.verify(EnclaveId(2), 3, false), EpcmCheck::Ok);
    }

    #[test]
    fn remove_single_entry() {
        let mut epcm = Epcm::new();
        epcm.record(EnclaveId(1), 4, PagePerms::RW);
        assert!(epcm.remove(4).is_some());
        assert!(epcm.remove(4).is_none());
        assert!(epcm.is_empty());
    }

    #[test]
    fn rerecording_a_page_updates_its_single_entry() {
        let mut epcm = Epcm::new();
        epcm.record(EnclaveId(1), 5, PagePerms::RW);
        epcm.record(EnclaveId(1), 5, PagePerms::RX);
        assert_eq!(epcm.len(), 1, "an update is not a second entry");
        assert_eq!(
            epcm.entry(5),
            Some(EpcmEntry {
                owner: EnclaveId(1),
                vpage: 5,
                perms: PagePerms::RX,
            })
        );
        assert_eq!(epcm.verify(EnclaveId(1), 5, true), EpcmCheck::Denied);
    }
}
