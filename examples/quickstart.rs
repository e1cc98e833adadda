//! Quickstart: build a persistent data structure, close it, reopen it at a
//! different virtual address, and keep using it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nvm_pi::{NodeArena, NvSpace, PList, Region, Riv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("nvm-pi-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("quickstart.nvr");

    // --- First "run": create a durable region and build a list in it. ---
    let first_base;
    {
        let region = Region::create_file(&path, 4 << 20)?;
        first_base = region.base();
        println!("created region {} at {:#x}", region.rid(), first_base);

        let mut list: PList<Riv, 32> =
            PList::create_rooted(NodeArena::raw(region.clone()), "numbers")?;
        list.extend((0..1000).map(|i| i * i))?;
        println!(
            "stored {} square numbers, checksum {:#x}",
            list.len(),
            list.traverse()
        );

        region.close()?; // clean close flushes the image
    }

    // --- Second "run": reopen. A random free segment is chosen, so the
    // region almost surely lands at a different base address — exactly the
    // situation that breaks absolute pointers (paper, Figure 1). ---
    let region = Region::open_file(&path)?;
    println!(
        "reopened at {:#x} ({})",
        region.base(),
        if region.base() == first_base {
            "same address, rare!"
        } else {
            "different address"
        }
    );

    let list: PList<Riv, 32> = PList::attach(NodeArena::raw(region.clone()), "numbers")?;
    assert_eq!(list.len(), 1000);
    assert!(list.contains(999 * 999));
    list.check_invariants()?;
    println!(
        "list intact: {} nodes, checksum {:#x}",
        list.len(),
        list.traverse()
    );

    // The RIV conversion functions are ordinary library calls:
    let space = NvSpace::global();
    let head = region.root("numbers").unwrap();
    println!(
        "Addr2ID({head:#x}) = {}, ID2Addr({}) = {:#x}",
        space.rid_of_addr(head),
        region.rid(),
        space.base_of_rid(region.rid()),
    );

    region.close()?;
    std::fs::remove_dir_all(&dir).ok();
    println!("done");
    Ok(())
}
