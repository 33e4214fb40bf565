//! Enclave objects: identity, address range, heap.
//!
//! An enclave occupies a contiguous virtual range (the ELRANGE). Before
//! EINIT the loader EADDs each page and extends the measurement
//! (EEXTEND; paper §2.1). The enclave-size property — not the content
//! size — determines how many pages stream through the EPC at build time,
//! which is what makes GrapheneSGX's 4 GB enclaves cost ≈1 M evictions at
//! startup (Appendix D). [`crate::SgxMachine::create_enclave`] charges
//! that pass from [`crate::costs`]; nothing reads a measurement value,
//! so none is computed.

use mem_sim::{PAGE_SHIFT, PAGE_SIZE};

/// Identifier of an enclave, dense from zero per [`crate::SgxMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub usize);

/// Lifecycle state of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveState {
    /// Created (ECREATE) but not yet initialized.
    Building,
    /// Measurement complete and EINIT executed; ECALLs are allowed.
    Initialized,
    /// Torn down; its EPC pages have been EREMOVEd.
    Destroyed,
}

/// A loaded enclave.
#[derive(Debug, Clone)]
pub struct Enclave {
    id: EnclaveId,
    base: u64,
    size: u64,
    content_bytes: u64,
    state: EnclaveState,
    heap_next: u64,
}

impl Enclave {
    /// Creates the enclave object (ECREATE). `base` and `size` define the
    /// ELRANGE; `content_bytes` is the measured binary image (code +
    /// initial data), the rest of the range is heap/stack.
    ///
    /// # Panics
    ///
    /// Panics if `content_bytes > size` or the range is not page-aligned.
    pub fn create(id: EnclaveId, base: u64, size: u64, content_bytes: u64) -> Self {
        assert!(
            base.is_multiple_of(PAGE_SIZE) && size.is_multiple_of(PAGE_SIZE),
            "ELRANGE must be page aligned"
        );
        assert!(
            content_bytes <= size,
            "content cannot exceed the enclave size"
        );
        Enclave {
            id,
            base,
            size,
            content_bytes,
            state: EnclaveState::Building,
            heap_next: base + content_bytes.next_multiple_of(PAGE_SIZE),
        }
    }

    /// The enclave id.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// Base virtual address of the ELRANGE.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes of measured content (binary image).
    pub fn content_bytes(&self) -> u64 {
        self.content_bytes
    }

    /// Total pages in the ELRANGE.
    pub fn total_pages(&self) -> u64 {
        self.size >> PAGE_SHIFT
    }

    /// First virtual page number of the ELRANGE.
    pub fn first_page(&self) -> u64 {
        self.base >> PAGE_SHIFT
    }

    /// Whether `vaddr` falls inside the ELRANGE.
    pub fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.base && vaddr < self.base + self.size
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EnclaveState {
        self.state
    }

    /// Start of the heap region (just after the measured content).
    pub fn heap_base(&self) -> u64 {
        self.base + self.content_bytes.next_multiple_of(PAGE_SIZE)
    }

    /// Bump-allocates `bytes` of enclave heap, page-aligned, returning the
    /// base address.
    ///
    /// # Errors
    ///
    /// Returns `None` when the ELRANGE has no room left — the situation
    /// SGX v1 forbade and that forces Graphene to pick 4 GB enclaves.
    pub fn alloc_heap(&mut self, bytes: u64) -> Option<u64> {
        let aligned = bytes.next_multiple_of(PAGE_SIZE);
        if self.heap_next + aligned > self.base + self.size {
            return None;
        }
        let addr = self.heap_next;
        self.heap_next += aligned;
        Some(addr)
    }

    /// Marks the enclave initialized (EINIT).
    ///
    /// # Panics
    ///
    /// Panics if the enclave is not in the building state.
    pub(crate) fn initialize(&mut self) {
        assert_eq!(
            self.state,
            EnclaveState::Building,
            "EINIT on non-building enclave"
        );
        self.state = EnclaveState::Initialized;
    }

    /// Marks the enclave destroyed.
    pub(crate) fn destroy(&mut self) {
        self.state = EnclaveState::Destroyed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let e = Enclave::create(EnclaveId(0), 0x1000_0000, 64 * PAGE_SIZE, 16 * PAGE_SIZE);
        assert_eq!(e.total_pages(), 64);
        assert_eq!(e.first_page(), 0x1000_0000 >> PAGE_SHIFT);
        assert!(e.contains(0x1000_0000));
        assert!(e.contains(0x1000_0000 + 64 * PAGE_SIZE - 1));
        assert!(!e.contains(0x1000_0000 + 64 * PAGE_SIZE));
        assert_eq!(e.heap_base(), 0x1000_0000 + 16 * PAGE_SIZE);
    }

    #[test]
    fn heap_allocation_bumps_and_exhausts() {
        let mut e = Enclave::create(EnclaveId(0), 0, 8 * PAGE_SIZE, 2 * PAGE_SIZE);
        let a = e.alloc_heap(PAGE_SIZE).unwrap();
        let b = e.alloc_heap(1).unwrap(); // rounds to a page
        assert_eq!(a, 2 * PAGE_SIZE);
        assert_eq!(b, 3 * PAGE_SIZE);
        assert!(e.alloc_heap(5 * PAGE_SIZE).is_none());
        assert!(e.alloc_heap(4 * PAGE_SIZE).is_some());
        assert!(e.alloc_heap(1).is_none());
    }

    #[test]
    #[should_panic]
    fn misaligned_base_rejected() {
        let _ = Enclave::create(EnclaveId(0), 123, PAGE_SIZE, 0);
    }

    #[test]
    #[should_panic]
    fn oversized_content_rejected() {
        let _ = Enclave::create(EnclaveId(0), 0, PAGE_SIZE, 2 * PAGE_SIZE);
    }
}
