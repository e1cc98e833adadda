//! Low-level virtual-memory plumbing.
//!
//! This module is the only place in the crate that talks to the OS about
//! address space. Everything else manipulates addresses handed out here.
//!
//! The simulated NVM needs three capabilities that `std` does not expose:
//!
//! 1. *Reserving* a large contiguous range of virtual addresses without
//!    committing memory (`mmap` with `PROT_NONE` + `MAP_NORESERVE`);
//! 2. *Committing* sub-ranges of the reservation, either anonymous or backed
//!    by a file, at a **fixed** address inside the reservation (`MAP_FIXED`);
//! 3. *Decommitting* sub-ranges back to the reserved state.
//!
//! The fixed-address control is what lets region base addresses stay aligned
//! to the segment size so that `getBase(addr)` is a single mask — the heart
//! of the paper's RIV conversion functions.

use crate::error::{NvError, Result};
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

/// A reserved — but not committed — contiguous range of virtual addresses.
///
/// Dropping the reservation unmaps the whole range, including any committed
/// sub-ranges still inside it.
#[derive(Debug)]
pub struct Reservation {
    base: usize,
    len: usize,
}

// SAFETY: the reservation is plain address space; moving the handle
// between threads is safe. Interior memory is managed by the owners of
// committed sub-ranges.
unsafe impl Send for Reservation {}
// SAFETY: as for `Send`; `&Reservation` only reads `base` and `len`.
unsafe impl Sync for Reservation {}

/// `mmap` of `len` bytes with `prot`/`flags` over `fd` at `offset` (-1:
/// anonymous): at `addr` with `MAP_FIXED`, else wherever the kernel puts
/// it. Returns the mapping's address.
fn map(addr: usize, len: usize, prot: i32, flags: i32, fd: i32, offset: u64) -> Result<usize> {
    // SAFETY: a fixed mapping replaces pages of a reservation the caller
    // owns and range-checked (`Reservation::check_range`); any other takes
    // fresh address space the kernel picks.
    let p = unsafe {
        libc::mmap(
            addr as *mut libc::c_void,
            len,
            prot,
            flags,
            fd,
            offset as libc::off_t,
        )
    };
    if p == libc::MAP_FAILED {
        return Err(NvError::Io(io::Error::last_os_error()));
    }
    Ok(p as usize)
}

/// Flags of a private, lazily backed anonymous mapping.
const ANON: i32 = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE;

impl Reservation {
    /// Reserves `len` bytes of virtual address space.
    ///
    /// The memory is `PROT_NONE`: touching it faults until a sub-range is
    /// committed with [`Reservation::commit_anon`] or
    /// [`Reservation::commit_file`].
    ///
    /// # Errors
    ///
    /// Returns [`NvError::Io`] if the kernel refuses the mapping.
    pub fn new(len: usize) -> Result<Reservation> {
        let base = map(0, len, libc::PROT_NONE, ANON, -1, 0)?;
        Ok(Reservation { base, len })
    }

    /// Base address of the reservation.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Length of the reservation in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reservation is empty (it never is in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `[addr, addr+len)` lies fully inside the reservation.
    pub fn contains(&self, addr: usize, len: usize) -> bool {
        addr >= self.base
            && addr
                .checked_add(len)
                .is_some_and(|e| e <= self.base + self.len)
    }

    fn check_range(&self, addr: usize, len: usize) -> Result<()> {
        if !self.contains(addr, len) {
            return Err(NvError::AddressOutOfRange { addr });
        }
        Ok(())
    }

    /// Commits `[addr, addr+len)` as zero-filled read/write anonymous memory.
    ///
    /// The range is lazily backed and not charged against the overcommit
    /// limit (`MAP_NORESERVE`): a page takes physical memory when it is
    /// first written, and reads of a never-written page are served by the
    /// kernel's shared zero page. The NV space maps its lookup tables whole
    /// on the strength of this.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if the range leaves the reservation,
    /// [`NvError::Io`] on kernel failure.
    pub fn commit_anon(&self, addr: usize, len: usize) -> Result<()> {
        self.check_range(addr, len)?;
        let rw = libc::PROT_READ | libc::PROT_WRITE;
        map(addr, len, rw, ANON | libc::MAP_FIXED, -1, 0)?;
        // Pin page-size behaviour: opportunistic transparent-huge-page
        // grants would make otherwise-identical region instances perform
        // bimodally (a THP-backed instance pays far fewer TLB misses), so
        // benchmarks comparing instances need every region on the same
        // footing. Advisory only; failure is fine.
        // SAFETY: advice on the range just mapped changes no contents.
        unsafe { libc::madvise(addr as *mut libc::c_void, len, libc::MADV_NOHUGEPAGE) };
        Ok(())
    }

    /// Commits `[addr, addr+len)` backed by `file` starting at `offset`.
    ///
    /// With `shared = true` stores write through to the file (`MAP_SHARED`),
    /// which is how durable regions are simulated; `shared = false` gives a
    /// copy-on-write session (`MAP_PRIVATE`).
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if the range leaves the reservation,
    /// [`NvError::Io`] on kernel failure.
    pub fn commit_file(
        &self,
        addr: usize,
        len: usize,
        file: &File,
        offset: u64,
        shared: bool,
    ) -> Result<()> {
        self.check_range(addr, len)?;
        let flags = if shared {
            libc::MAP_SHARED
        } else {
            libc::MAP_PRIVATE
        } | libc::MAP_FIXED;
        let rw = libc::PROT_READ | libc::PROT_WRITE;
        map(addr, len, rw, flags, file.as_raw_fd(), offset).map(drop)
    }

    /// Returns `[addr, addr+len)` to the reserved (inaccessible) state,
    /// discarding its contents.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if the range leaves the reservation,
    /// [`NvError::Io`] on kernel failure.
    pub fn decommit(&self, addr: usize, len: usize) -> Result<()> {
        self.check_range(addr, len)?;
        map(addr, len, libc::PROT_NONE, ANON | libc::MAP_FIXED, -1, 0).map(drop)
    }

    /// Flushes a file-backed committed range to its backing file.
    ///
    /// This is the substrate's analogue of a persistence barrier to real
    /// NVM: after `sync` returns, the bytes are in the file image.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if the range leaves the reservation,
    /// [`NvError::Io`] on kernel failure.
    pub fn sync(&self, addr: usize, len: usize) -> Result<()> {
        self.check_range(addr, len)?;
        // SAFETY: `msync` only writes back the checked range's pages.
        let rc = unsafe { libc::msync(addr as *mut libc::c_void, len, libc::MS_SYNC) };
        if rc != 0 {
            return Err(NvError::Io(io::Error::last_os_error()));
        }
        Ok(())
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // Failure here is unreportable; the address space dies with the
        // process anyway.
        // SAFETY: the reservation is this handle's; nothing maps into it
        // once the handle drops.
        unsafe { libc::munmap(self.base as *mut libc::c_void, self.len) };
    }
}

/// The system page size in bytes.
pub fn page_size() -> usize {
    // SAFETY: sysconf is always callable; _SC_PAGESIZE is a valid name.
    unsafe { libc::sysconf(libc::_SC_PAGESIZE) as usize }
}

/// Rounds `n` up to the next multiple of `align` (a power of two).
pub fn align_up(n: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ptr;

    #[test]
    fn reserve_commit_write_decommit() {
        let r = Reservation::new(1 << 22).unwrap();
        assert!(r.base() != 0);
        assert_eq!(r.len(), 1 << 22);
        let seg = r.base() + (1 << 20);
        r.commit_anon(seg, 1 << 20).unwrap();
        unsafe {
            ptr::write_bytes(seg as *mut u8, 0xAB, 4096);
            assert_eq!(*(seg as *const u8), 0xAB);
        }
        r.decommit(seg, 1 << 20).unwrap();
        // Committing again yields zeroed memory.
        r.commit_anon(seg, 1 << 20).unwrap();
        unsafe {
            assert_eq!(*(seg as *const u8), 0);
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let r = Reservation::new(1 << 20).unwrap();
        assert!(r.contains(r.base(), 1));
        assert!(r.contains(r.base() + (1 << 20) - 1, 1));
        assert!(!r.contains(r.base() + (1 << 20), 1));
        assert!(!r.contains(r.base().wrapping_sub(1), 1));
        assert!(!r.contains(usize::MAX, 2), "overflow must not wrap");
    }

    #[test]
    fn commit_outside_reservation_fails() {
        let r = Reservation::new(1 << 20).unwrap();
        let err = r.commit_anon(r.base() + (1 << 20), 4096).unwrap_err();
        assert!(matches!(err, NvError::AddressOutOfRange { .. }));
    }

    #[test]
    fn file_backed_commit_roundtrips_through_file() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let dir = std::env::temp_dir().join(format!("nvmsim-mem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img");
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        f.set_len(1 << 16).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(b"hello-nvm").unwrap();
        f.sync_all().unwrap();

        let r = Reservation::new(1 << 20).unwrap();
        let addr = r.base();
        r.commit_file(addr, 1 << 16, &f, 0, true).unwrap();
        let got = unsafe { std::slice::from_raw_parts(addr as *const u8, 9) };
        assert_eq!(got, b"hello-nvm");

        // Writes go back to the file through MAP_SHARED + msync.
        unsafe { ptr::copy_nonoverlapping(b"HELLO".as_ptr(), addr as *mut u8, 5) };
        r.sync(addr, 1 << 16).unwrap();
        let mut back = vec![0u8; 9];
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"HELLO-nvm");
        drop(r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 16), 32);
        assert_eq!(align_up(4095, 4096), 4096);
    }

    #[test]
    fn page_size_is_sane() {
        let p = page_size();
        assert!(p.is_power_of_two());
        assert!(p >= 4096);
    }
}
