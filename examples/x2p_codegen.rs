//! The RIV pointer chase whose machine code `scripts/check_x2p_codegen.sh`
//! inspects: `riv_chase` is one `x2p` per hop and nothing else, so its
//! body shows what a dereference costs once everything has inlined — bit
//! transforms, one bounds branch, one base-table load, one add.
//!
//! ```text
//! cargo run --release --example x2p_codegen
//! scripts/check_x2p_codegen.sh
//! ```

use nvm_pi::{PtrRepr, Region, Riv};

/// Follows `hops` RIV links starting at `head`; returns the last address.
///
/// # Safety
///
/// `head` and every cell reached within `hops` links must be a readable
/// `Riv` holding a link to another such cell in an open region.
#[inline(never)]
#[no_mangle]
pub unsafe extern "C" fn riv_chase(head: *const Riv, hops: usize) -> usize {
    let mut at = head;
    for _ in 0..hops {
        // SAFETY: the caller vouches for every cell on the path.
        at = unsafe { (*at).load() } as *const Riv;
    }
    at as usize
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CELLS: usize = 1024;
    let region = Region::create(1 << 20)?;
    let ring = region.alloc(CELLS * 8, 8)?.as_ptr() as *mut Riv;
    for i in 0..CELLS {
        // SAFETY: both cells lie inside the allocation made just above.
        unsafe { (*ring.add(i)).store(ring.add((i + 7) % CELLS) as usize) };
    }
    let hops = 1_000_003;
    // SAFETY: every cell of the ring links to another cell of the ring.
    let end = unsafe { riv_chase(ring, hops) };
    assert_eq!(end, ring as usize + (hops * 7 % CELLS) * 8);
    println!("riv_chase: {hops} hops over a {CELLS}-cell ring ended where expected");
    region.close()?;
    Ok(())
}
