//! Wrapped persistent objects.
//!
//! The paper's transactional experiments run on the PMEM.IO library, which
//! "creates some wrapping structure for each data item on NVM with some
//! metadata (e.g., type info) about that data item recorded", such that
//! "each data item, including the metadata, is 128-byte large" for the
//! 32-byte payloads used in Section 6.3.
//!
//! [`ObjHeader`] is that wrapping structure, cut to what the store still
//! reads: a 16-byte header carrying a validity magic, a type number and
//! the payload size ([`crate::ObjectStore::free`] checks the first and
//! needs the last). Which blocks are live is the region allocator's
//! record alone. The header is followed immediately by the payload; a
//! 56-byte structure node (32-byte payload) and its header round to the
//! allocator's 96-byte class, against PMEM.IO's 128 bytes.

/// Size of the object header preceding every wrapped payload.
pub const OBJ_HEADER_SIZE: usize = 16;

/// Magic stamped into every live object header.
pub const OBJ_MAGIC: u32 = 0x504f_424a; // "POBJ"

/// Metadata wrapper preceding every object payload in a store.
#[repr(C)]
#[derive(Debug)]
pub struct ObjHeader {
    /// Validity marker ([`OBJ_MAGIC`] while the object is live).
    pub magic: u32,
    /// Application-assigned type number (PMEM.IO `type_num`).
    pub type_num: u32,
    /// Payload size in bytes (excluding this header).
    pub size: u64,
}

const _: () = assert!(std::mem::size_of::<ObjHeader>() == OBJ_HEADER_SIZE);

impl ObjHeader {
    /// Initializes a freshly allocated header.
    pub fn init(&mut self, type_num: u32, size: u64) {
        self.magic = OBJ_MAGIC;
        self.type_num = type_num;
        self.size = size;
    }

    /// Marks the header dead (object freed).
    pub fn clear(&mut self) {
        self.magic = 0;
        self.type_num = 0;
        self.size = 0;
    }

    /// Whether the header describes a live object.
    pub fn is_live(&self) -> bool {
        self.magic == OBJ_MAGIC
    }

    /// Total allocation footprint for a payload of `size` bytes (header
    /// included, before allocator rounding).
    pub fn footprint(size: usize) -> usize {
        OBJ_HEADER_SIZE + size
    }
}

/// Offset of the payload given the header's offset.
pub fn payload_off(header_off: u64) -> u64 {
    header_off + OBJ_HEADER_SIZE as u64
}

/// Offset of the header given the payload's offset.
pub fn header_off(payload_off: u64) -> u64 {
    payload_off - OBJ_HEADER_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::alloc::AllocHeader;

    #[test]
    fn header_is_exactly_16_bytes() {
        assert_eq!(std::mem::size_of::<ObjHeader>(), 16);
    }

    #[test]
    fn paper_footprint_for_32_byte_payload() {
        // A bare 32-byte payload and its header fill a 48-byte block; the
        // hashset/BST node that carries one (56 bytes) fills a 96-byte
        // block where PMEM.IO's item is 128 bytes.
        assert_eq!(ObjHeader::footprint(32), 48);
        assert_eq!(AllocHeader::rounded_size(ObjHeader::footprint(32)), 48);
        assert_eq!(AllocHeader::rounded_size(ObjHeader::footprint(56)), 96);
    }

    #[test]
    fn init_clear_roundtrip() {
        let mut h = ObjHeader {
            magic: 0,
            type_num: 0,
            size: 0,
        };
        h.init(7, 32);
        assert!(h.is_live());
        assert_eq!(h.type_num, 7);
        assert_eq!(h.size, 32);
        h.clear();
        assert!(!h.is_live());
    }

    #[test]
    fn offset_helpers_are_inverses() {
        assert_eq!(header_off(payload_off(4096)), 4096);
        assert_eq!(payload_off(0), 16);
    }
}
