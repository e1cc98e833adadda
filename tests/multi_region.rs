//! Cross-region behaviour: structures spanning several NVRegions, region
//! identity surviving arbitrary reopen orders, and the NVSet notion of
//! Section 2.2 (data reachable from one root across regions).

use nvm_pi::pi_core::{PtrRepr, Riv};
use nvm_pi::{NodeArena, NvSpace, PBst, PList, Region};

mod util;

// `M.cell(..)` is the scratch directory of the file-backed tests.
static M: util::Matrix = util::Matrix::new("multi_region", 0x5EED);

#[test]
fn riv_list_spans_regions_and_survives_reopen_in_shuffled_order() {
    let scratch = M.cell("shuffle");
    let path = |i: usize| scratch.path(&format!("region_{i}.nvr"));
    let (rids, checksum) = {
        let regions: Vec<Region> = (0..3)
            .map(|i| Region::create_file(path(i), 4 << 20).unwrap())
            .collect();
        let rids: Vec<u32> = regions.iter().map(Region::rid).collect();
        let mut list: PList<Riv, 32> =
            PList::create_rooted(NodeArena::raw_round_robin(regions.clone()), "l").unwrap();
        list.extend(0..900).unwrap();
        let c = list.traverse();
        for r in regions {
            r.close().unwrap();
        }
        (rids, c)
    };
    // Reopen in a *different* order: RIV values name regions by ID, so the
    // mapping order (and the fresh random addresses) must not matter.
    let reopened: Vec<Region> = [2, 0, 1]
        .iter()
        .map(|&i| Region::open_file(path(i)).unwrap())
        .collect();
    // The arena must present the home region (the one holding the header,
    // `rids[0]`) first; the image at `path(i)` keeps the rid it was
    // created with.
    let mut arena_regions = reopened.clone();
    arena_regions.sort_by_key(|r| rids.iter().position(|&rid| rid == r.rid()));
    let list: PList<Riv, 32> =
        PList::attach(NodeArena::raw_round_robin(arena_regions), "l").unwrap();
    assert_eq!(list.len(), 900);
    assert_eq!(list.traverse(), checksum);
    list.check_invariants().unwrap();
    for r in reopened {
        r.close().unwrap();
    }
}

#[test]
fn nodes_really_are_spread_across_regions() {
    let regions: Vec<Region> = (0..4).map(|_| Region::create(2 << 20).unwrap()).collect();
    let mut list: PList<Riv, 32> = PList::new(NodeArena::raw_round_robin(regions.clone())).unwrap();
    list.extend(0..100).unwrap();
    // Every region must own a share of the allocations.
    let mut counts = std::collections::HashMap::new();
    for r in &regions {
        let stats = r.stats();
        assert!(stats.live_allocs > 0, "region {} got no nodes", r.rid());
        counts.insert(r.rid(), stats.live_allocs);
    }
    assert_eq!(counts.len(), 4);
    // And list contents are intact across the spread.
    assert_eq!(list.len(), 100);
    for r in regions {
        r.close().unwrap();
    }
}

#[test]
fn riv_values_resolve_against_whichever_segment_the_region_occupies() {
    let scratch = M.cell("riv-segments");
    let path = scratch.path("region.nvr");
    let raw = {
        let r = Region::create_file(&path, 1 << 20).unwrap();
        let cell = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe { cell.write(777) };
        r.set_root("cell", cell as usize).unwrap();
        let x = Riv::p2x(cell as usize);
        r.close().unwrap();
        x.raw()
    };
    let mut seen_bases = std::collections::HashSet::new();
    for _ in 0..4 {
        let r = Region::open_file(&path).unwrap();
        seen_bases.insert(r.base());
        let x = riv_from_raw(raw);
        let p = x.x2p();
        assert_eq!(p, r.root("cell").unwrap());
        assert_eq!(unsafe { *(p as *const u64) }, 777);
        r.close().unwrap();
    }
    assert!(
        seen_bases.len() >= 2,
        "expected the region to move between opens"
    );
}

/// Rebuild a Riv from its persisted raw bits (as a structure field read
/// from a remapped image would).
fn riv_from_raw(raw: u64) -> Riv {
    let mut slot = [0u8; 8];
    slot.copy_from_slice(&raw.to_le_bytes());
    // SAFETY: Riv is repr(transparent) over u64.
    unsafe { std::mem::transmute::<[u8; 8], Riv>(slot) }
}

#[test]
fn closing_one_region_does_not_disturb_others() {
    let r1 = Region::create(1 << 20).unwrap();
    let r2 = Region::create(1 << 20).unwrap();
    let cell = r2.alloc(8, 8).unwrap().as_ptr() as *mut u64;
    unsafe { cell.write(5) };
    let x = Riv::p2x(cell as usize);
    r1.close().unwrap();
    assert_eq!(
        x.x2p(),
        cell as usize,
        "r2's mapping is unaffected by closing r1"
    );
    assert_eq!(NvSpace::global().rid_of_addr(cell as usize), r2.rid());
    r2.close().unwrap();
}

#[test]
fn bst_across_ten_regions_matches_single_region_contents() {
    let keys: Vec<u64> = (0..1200).map(|i| i * 7 % 5000).collect();

    let single = Region::create(8 << 20).unwrap();
    let mut a: PBst<Riv, 32> = PBst::new(NodeArena::raw(single.clone())).unwrap();
    a.extend(keys.iter().copied()).unwrap();

    let many: Vec<Region> = (0..10).map(|_| Region::create(2 << 20).unwrap()).collect();
    let mut b: PBst<Riv, 32> = PBst::new(NodeArena::raw_round_robin(many.clone())).unwrap();
    b.extend(keys.iter().copied()).unwrap();

    assert_eq!(a.keys_in_order(), b.keys_in_order());
    b.check_invariants().unwrap();
    single.close().unwrap();
    for r in many {
        r.close().unwrap();
    }
}

#[test]
fn fat_pointers_follow_region_remaps_through_the_registry() {
    use nvm_pi::pi_core::FatPtr;
    let scratch = M.cell("fat-remap");
    let path = scratch.path("region.nvr");
    let (fat_rid, fat_off) = {
        let r = Region::create_file(&path, 1 << 20).unwrap();
        let cell = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe { cell.write(99) };
        let mut f = FatPtr::default();
        f.store(cell as usize);
        r.set_root("cell", cell as usize).unwrap();
        r.close().unwrap();
        (f.rid(), f.offset())
    };
    for _ in 0..3 {
        let r = Region::open_file(&path).unwrap();
        let f = FatPtr::from_parts(fat_rid, fat_off);
        assert_eq!(f.load(), r.root("cell").unwrap());
        r.close().unwrap();
    }
}
