//! Corruption matrix: bit-rot and torn-metadata robustness of the region
//! open path.
//!
//! Four families of checks over the v2 on-media format (checksummed
//! dual-slot metadata, see DESIGN.md "Corruption model & metadata
//! slots"):
//!
//! 1. A deterministic per-cache-line sweep over the entire metadata
//!    prefix `[0, data_start)` of a cleanly-closed image: every
//!    single-line rot must either be repaired from the surviving
//!    checksummed slot (`open_file` succeeds with the original roots) or
//!    refused with a typed error — and only the boot block, whose
//!    identity words are validated before mapping, is allowed to refuse.
//!    `verify_bytes`, the offline inspectors (printing included) and
//!    `open_file_salvage` must never panic, and salvage must never write
//!    the backing file (it maps copy-on-write).
//! 2. A proptest sweep flipping random bits (and overwriting whole
//!    random cache lines) anywhere in the image, including the data
//!    area: `open_file` / the offline readers / `open_file_salvage` never
//!    panic, and a salvaged region's surviving roots stay inside the
//!    data area.
//! 3. A torn A/B slot flip: `update_meta_slots` runs under the
//!    [`FaultPlan`] crash-point scheduler, and every captured
//!    mid-update image (with its untracked primary additionally
//!    wrecked, to force the slot-recovery path) must open to exactly
//!    the pre-update or the post-update snapshot — never a blend.
//! 4. [`FaultPolicy::BitRot`] composes with the crash pipeline:
//!    `crash_with_faults` followed by reopen-or-salvage never panics.
//! 5. The CRC-terminated undo log: a transaction crashed with a fenced
//!    batch behind it and an unfenced batch at its tail recovers, under
//!    drop and under a sweep of tear seeds, to exactly the
//!    pre-transaction cells with no damage reported; and a bit flipped
//!    in any checksummed word of any fenced entry ends the log there —
//!    the entries before it are rolled back, nothing damaged is ever
//!    replayed.
//! 6. The store block: a bit flipped in any of its three words makes
//!    `ObjectStore::attach` attach a store whose log area lies inside the
//!    region or refuse typed, exactly as the offline decoder judges it.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`); crash
//! images reopen remapped through [`util::Cell::remap`].

use nvm_pi::nvmsim::region::RegionHeader;
use nvm_pi::nvmsim::undolog::STORE_ROOT;
use nvm_pi::nvmsim::{inspect, shadow, verify};
use nvm_pi::{FaultPlan, FaultPolicy, NvError, ObjectStore, Region, StoreError};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

mod util;

static M: util::Matrix = util::Matrix::new("corruption_matrix", 0x0B17_207D_5EED);

const IMG_SIZE: usize = 64 << 10;
const LINE: usize = 64;
/// Root directory offset in the header (used here to wreck the primary
/// on purpose).
const OFF_ROOTS: usize = RegionHeader::OFF_ROOTS;

/// Builds a cleanly-closed image with two named roots and a recognizable
/// payload, and returns its bytes. Caller must hold the serial lock
/// (region ids are process-global).
fn build_pristine_locked(dir: &Path) -> Vec<u8> {
    let path = dir.join("pristine.nvr");
    M.reseed_placement();
    let region = Region::create_file(&path, IMG_SIZE).unwrap();
    let a = region.alloc_off(256, 16).unwrap();
    let b = region.alloc_off(64, 16).unwrap();
    region.set_root("alpha", region.ptr_at(a)).unwrap();
    region.set_root("beta", region.ptr_at(b)).unwrap();
    for i in 0..32u64 {
        // SAFETY: a is a fresh 256-byte allocation inside the region.
        unsafe { (region.ptr_at(a + i * 8) as *mut u64).write(0xA5A5_0000 + i) };
    }
    region.close().unwrap();
    std::fs::read(&path).unwrap()
}

fn pristine() -> &'static [u8] {
    static PRISTINE: OnceLock<Vec<u8>> = OnceLock::new();
    PRISTINE.get_or_init(|| build_pristine_locked(M.cell("pristine").dir()))
}

/// Flips 1–3 distinct bits inside one cache line (the same fault shape
/// `FaultPolicy::BitRot` injects).
fn rot_line(img: &mut [u8], line: usize, rng: &mut util::SplitMix) {
    let n = 1 + (rng.next() % 3) as usize;
    let mut seen = BTreeSet::new();
    while seen.len() < n {
        let bit = (rng.next() % (LINE as u64 * 8)) as usize;
        if seen.insert(bit) {
            img[line * LINE + bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// The offline readers — the corruption walk and both inspectors, their
/// reports printed — classify any image without panicking.
fn offline_readers(img: &[u8], ctx: &str) -> verify::VerifyReport {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = inspect::inspect_bytes(img).map(|r| r.to_string());
        let _ = inspect::inspect_llalloc_bytes(img).map(|r| r.to_string());
        verify::verify_bytes(img)
    }))
    .unwrap_or_else(|_| panic!("[{ctx}] an offline reader panicked"))
}

/// Salvage must neither panic nor write the backing file; a salvaged
/// region's surviving roots must land inside the data area.
fn check_salvage(img_path: &Path, ctx: &str) {
    let before = std::fs::read(img_path).unwrap();
    let res = catch_unwind(AssertUnwindSafe(|| Region::open_file_salvage(img_path)))
        .unwrap_or_else(|_| panic!("[{ctx}] open_file_salvage panicked"));
    if let Ok((r, rep)) = res {
        assert!(
            rep.primary_ok(),
            "[{ctx}] a salvaged region must end with a valid primary:\n{rep}"
        );
        let data_start = RegionHeader::data_start();
        for name in r.roots().unwrap_or_default() {
            let off = r
                .root_off(&name)
                .unwrap_or_else(|| panic!("[{ctx}] surviving root {name:?} must resolve"));
            assert!(
                off >= data_start && off < r.size() as u64,
                "[{ctx}] surviving root {name:?} at {off} escapes the data area"
            );
        }
        r.crash();
    }
    let after = std::fs::read(img_path).unwrap();
    assert_eq!(
        before, after,
        "[{ctx}] salvage must never write the backing file"
    );
}

#[test]
fn single_line_rot_sweep_over_metadata_recovers_or_fails_typed() {
    let _g = M.lock();
    let cell = M.cell("sweep");
    let base = pristine();
    let data_start = RegionHeader::data_start() as usize;
    assert_eq!(data_start % LINE, 0, "metadata prefix must be line-aligned");
    let meta_lines = data_start / LINE;
    eprintln!("[sweep] {}, {meta_lines} metadata lines", M.tag());
    let img_path = cell.path("rot.nvr");
    let mut recovered = 0usize;
    for line in 0..meta_lines {
        let ctx = format!(
            "line {line} (bytes {}..{}) {}",
            line * LINE,
            (line + 1) * LINE,
            M.tag()
        );
        let mut img = base.to_vec();
        let mut rng = M.stream((line as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        rot_line(&mut img, line, &mut rng);
        let report = offline_readers(&img, &ctx);
        std::fs::write(&img_path, &img).unwrap();
        match catch_unwind(AssertUnwindSafe(|| Region::open_file(&img_path)))
            .unwrap_or_else(|_| panic!("[{ctx}] open_file panicked"))
        {
            Ok(r) => {
                recovered += 1;
                assert!(
                    r.verify().unwrap().primary_ok(),
                    "[{ctx}] an opened region must have a valid primary"
                );
                let roots = r
                    .roots()
                    .unwrap_or_else(|e| panic!("[{ctx}] roots after recovery: {e}"));
                assert_eq!(
                    roots,
                    vec!["alpha".to_string(), "beta".to_string()],
                    "[{ctx}] recovery must restore the original root directory"
                );
                r.crash();
            }
            Err(e) => {
                // Only the boot block (line 0) may refuse the open: its
                // identity words (magic/version/rid/size) are validated
                // against the file before any slot can assist. Every
                // other metadata line is covered by a checksummed slot
                // or is outside the verified surface entirely.
                assert_eq!(
                    line, 0,
                    "[{ctx}] only boot-block rot may fail the open, got: {e}"
                );
                assert!(
                    !report.healthy(),
                    "[{ctx}] a refused image must not verify healthy"
                );
            }
        }
        check_salvage(&img_path, &ctx);
    }
    assert!(
        recovered >= meta_lines - 1,
        "every non-boot metadata line must recover ({recovered}/{meta_lines})"
    );
}

/// Seed-free regression for a use-after-decommit in `Region::open_file`:
/// a rid or capacity word that differs from what both (agreeing) slots
/// hold makes the open restore a slot and then refuse it — and the
/// refusal used to format its message out of the header it had just
/// unmapped, killing the process with a signal instead of returning.
#[test]
fn every_bit_of_the_rid_and_capacity_words_opens_or_fails_typed() {
    let _g = M.lock();
    let cell = M.cell("idwords");
    let img_path = cell.path("flip.nvr");
    let base = pristine();
    let (mut opened, mut refused) = (0, 0);
    for (word, off, bits) in [
        ("rid", RegionHeader::OFF_RID, 32),
        ("capacity", RegionHeader::OFF_CAPACITY, 64),
    ] {
        for bit in 0..bits {
            let ctx = format!("{word} word bit {bit}");
            let mut img = base.to_vec();
            img[off + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&img_path, &img).unwrap();
            match Region::open_file(&img_path) {
                Ok(r) => {
                    opened += 1;
                    assert_eq!(
                        r.roots().unwrap(),
                        vec!["alpha".to_string(), "beta".to_string()],
                        "[{ctx}] an opened image carries the original roots"
                    );
                    r.crash();
                }
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(e, NvError::BadImage(_) | NvError::InvalidRid { .. }),
                        "[{ctx}] refusal must be typed, got: {e}"
                    );
                }
            }
            // The open may have repaired the (shared) file: salvage sees
            // the damage afresh.
            std::fs::write(&img_path, &img).unwrap();
            check_salvage(&img_path, &ctx);
        }
    }
    assert!(
        opened > 0 && refused > 0,
        "the sweep must reach both outcomes (opened {opened}, refused {refused})"
    );
}

#[test]
fn torn_slot_flip_always_opens_a_consistent_snapshot() {
    let _g = M.lock();
    for policy in M.policies() {
        let cell = M.cell("torn");
        let region = Region::create_file(cell.path("orig.nvr"), IMG_SIZE).unwrap();
        let a = region.alloc_off(128, 16).unwrap();
        region.set_root("alpha", region.ptr_at(a)).unwrap();
        region.sync().unwrap(); // slots now hold the {alpha} snapshot
        let b = region.alloc_off(64, 16).unwrap();
        region.set_root("beta", region.ptr_at(b)).unwrap(); // primary-only until the flip
        region.enable_shadow().unwrap();
        shadow::reset_events_for(region.base());
        let plan = FaultPlan::capture_all(&region, policy);
        region.update_meta_slots().unwrap(); // stages the {alpha, beta} snapshot
        let crashes = plan.disarm();
        let mut prev = region.base();
        region.crash();
        assert!(
            !crashes.is_empty(),
            "[{policy:?}] the slot flip must emit persistence events of its own"
        );

        let img_path = cell.path("crash.nvr");
        let (mut saw_old, mut saw_new) = (false, false);
        for c in &crashes {
            let ctx = format!("torn {policy:?} event {} {}", c.event, M.tag());
            let mut img = c.image.clone();
            // The primary header is untracked memory and survives in
            // every captured image; wreck its root directory so the open
            // *must* take the slot-recovery path.
            for byte in &mut img[OFF_ROOTS..OFF_ROOTS + 32] {
                *byte = 0xFF;
            }
            std::fs::write(&img_path, &img).unwrap();
            let r2 = cell
                .remap(&img_path, &mut prev)
                .unwrap_or_else(|e| panic!("[{ctx}] a torn slot flip must still open: {e}"));
            assert!(r2.was_dirty(), "[{ctx}] slot-restored images reopen dirty");
            let roots = r2
                .roots()
                .unwrap_or_else(|e| panic!("[{ctx}] roots after slot restore: {e}"));
            match roots.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["alpha"] => saw_old = true,
                ["alpha", "beta"] => saw_new = true,
                ref other => panic!("[{ctx}] recovered a non-snapshot root set {other:?}"),
            }
            r2.crash();
        }
        // A crash before the new slot's checksum persists must fall back
        // to the previous consistent snapshot; a torn write may leak the
        // whole slot early and see the new one. Both are consistent
        // snapshots — blends are not, and the CRC must reject partially
        // torn slot bytes.
        assert!(
            saw_old || saw_new,
            "[{policy:?}] every crash point must land on a snapshot"
        );
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert!(
                saw_old && !saw_new,
                "[{policy:?}] without tearing, an unfenced slot write never counts"
            );
        }
        eprintln!(
            "[torn {policy:?}] {} crash points, pre-update={saw_old} post-update={saw_new}",
            crashes.len()
        );
    }
}

#[test]
fn bit_rot_policy_composes_with_crash_reopen_and_salvage() {
    let _g = M.lock();
    let cell = M.cell("bitrot");
    let path = cell.path("rot.nvr");
    for round in 0..8u64 {
        let rseed = M.seed() ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let ctx = format!("bitrot round {round} round-seed {rseed:#x} {}", M.tag());
        let region = Region::create_file(&path, IMG_SIZE).unwrap();
        let a = region.alloc_off(256, 16).unwrap();
        region.set_root("alpha", region.ptr_at(a)).unwrap();
        region.sync().unwrap();
        region.enable_shadow().unwrap();
        let report = region
            .crash_with_faults(FaultPolicy::BitRot {
                lines: 3,
                seed: rseed,
            })
            .unwrap();
        assert_eq!(report.rotted_lines, 3, "[{ctx}] rot must hit 3 lines");
        assert!(report.flipped_bits >= 3, "[{ctx}] each line flips >= 1 bit");
        match catch_unwind(AssertUnwindSafe(|| Region::open_file(&path)))
            .unwrap_or_else(|_| panic!("[{ctx}] open_file panicked"))
        {
            Ok(r) => {
                assert!(
                    r.verify().unwrap().primary_ok(),
                    "[{ctx}] an opened region must have a valid primary"
                );
                r.crash();
            }
            Err(_) => check_salvage(&path, &ctx),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Cells of the torn-tail workload: the first `FENCED` are logged, fenced
/// and overwritten; the rest are logged but never fenced nor written.
const FENCED: usize = 4;
const UNFENCED: usize = 3;

fn log_cell_old(i: usize) -> u64 {
    0x01D_0000 + i as u64
}

fn log_cell_new(i: usize) -> u64 {
    0x4E3_0000 + i as u64
}

/// Writes `img` into the cell, reopens it remapped, attaches the store
/// (running log recovery) and returns the cells with the number of
/// entries recovery applied.
fn recover_log_cells(
    cell: &util::Cell,
    img: &[u8],
    prev: &mut usize,
    ctx: &str,
) -> (Vec<u64>, u64) {
    let img_path = cell.path("crash.nvr");
    std::fs::write(&img_path, img).unwrap();
    let r = cell
        .remap(&img_path, prev)
        .unwrap_or_else(|e| panic!("[{ctx}] open: {e}"));
    let store = ObjectStore::attach(&r).unwrap_or_else(|e| panic!("[{ctx}] attach: {e}"));
    let stats = store.recovery_stats();
    assert_eq!(
        store.log().entry_count(),
        0,
        "[{ctx}] log empty after attach"
    );
    let cells = r.root("cells").unwrap();
    let got = (0..FENCED + UNFENCED)
        // SAFETY: the root names FENCED + UNFENCED u64 cells.
        .map(|i| unsafe { ((cells + i * 8) as *const u64).read() })
        .collect();
    drop(store);
    r.crash();
    (got, stats.applied)
}

#[test]
fn torn_log_tail_and_mid_log_rot_never_replay_damage() {
    let _g = M.lock();
    let cell = M.cell("logtail");
    M.reseed_placement();
    let region = Region::create_file(cell.path("log.nvr"), 1 << 20).unwrap();
    let store = ObjectStore::format_with_log(&region, 4096).unwrap();
    let cells = store.alloc(7, (FENCED + UNFENCED) * 8).unwrap().as_ptr() as usize;
    for i in 0..FENCED + UNFENCED {
        // SAFETY: inside the object just allocated, 8-aligned.
        unsafe { ((cells + i * 8) as *mut u64).write(log_cell_old(i)) };
    }
    region.set_root("cells", cells).unwrap();
    region.sync().unwrap();
    region.enable_shadow().unwrap();

    let mut tx = store.begin();
    for i in 0..FENCED {
        tx.log_range(cells + i * 8, 8).unwrap();
    }
    tx.barrier();
    for i in 0..FENCED {
        // SAFETY: as above.
        unsafe { ((cells + i * 8) as *mut u64).write(log_cell_new(i)) };
        shadow::track_store(cells + i * 8, 8);
        nvm_pi::nvmsim::latency::clflush_range(cells + i * 8, 8);
    }
    // The new values reach media (as behind a later allocation's fence).
    nvm_pi::nvmsim::latency::wbarrier();
    // The tail batch: appended, never made durable, ranges untouched.
    for i in FENCED..FENCED + UNFENCED {
        tx.log_range(cells + i * 8, 8).unwrap();
    }
    std::mem::forget(tx);

    let old: Vec<u64> = (0..FENCED + UNFENCED).map(log_cell_old).collect();
    let mut policies = vec![FaultPolicy::DropUnflushed];
    let mut rng = M.stream(0);
    policies.extend((0..32).map(|_| FaultPolicy::TearWords { seed: rng.next() }));
    // Capture every image first: the crashed copies share the live
    // region's id, so it must be gone before they reopen.
    let images: Vec<(FaultPolicy, Vec<u8>)> = policies
        .into_iter()
        .map(|p| (p, shadow::capture_crash_image(region.base(), p).unwrap().0))
        .collect();
    drop(store);
    let mut prev = region.base();
    region.crash();
    for (policy, img) in &images {
        let ctx = format!("logtail {policy:?} {}", M.tag());
        let check = verify::verify_bytes(img).undo_log.expect("store present");
        assert!(
            check.entries >= FENCED as u64,
            "[{ctx}] the fenced batch is durable whatever the tail did: {check:?}"
        );
        let (got, applied) = recover_log_cells(&cell, img, &mut prev, &ctx);
        assert_eq!(
            got, old,
            "[{ctx}] crash recovery is the pre-transaction image"
        );
        assert!(applied >= FENCED as u64, "[{ctx}] applied {applied}");
    }
    let dropped = &images[0].1;

    // Rot on top of the drop image: one bit in each checksummed word
    // (off, len, crc, generation, payload) of each fenced entry.
    let log = verify::verify_bytes(dropped).undo_log.unwrap();
    assert_eq!(
        log.entries, FENCED as u64,
        "drop image keeps the fenced batch only"
    );
    for entry in 0..FENCED {
        for word in 0..5 {
            let bit = (rng.next() % 64) as usize;
            let ctx = format!(
                "logtail rot entry {entry} word {word} bit {bit} {}",
                M.tag()
            );
            let mut img = dropped.clone();
            let at = log.log_off as usize + 16 + entry * 48 + word * 8;
            img[at + bit / 8] ^= 1 << (bit % 8);
            let seen = verify::verify_bytes(&img).undo_log.unwrap();
            assert_eq!(
                seen.entries, entry as u64,
                "[{ctx}] the log ends at the rot"
            );
            let (got, applied) = recover_log_cells(&cell, &img, &mut prev, &ctx);
            assert_eq!(applied, entry as u64, "[{ctx}]");
            for (i, &v) in got.iter().enumerate() {
                // Before the rot: rolled back. From it on: out of the
                // log's reach, so the transaction's bytes stay — never a
                // third value. The unfenced cells were never written.
                let want = if i < entry || i >= FENCED {
                    log_cell_old(i)
                } else {
                    log_cell_new(i)
                };
                assert_eq!(v, want, "[{ctx}] cell {i}");
            }
        }
    }
}

/// Seed-free regression for `ObjectStore::attach` trusting the store
/// block: a log area outside the region used to become a slice over
/// unmapped memory (a signal at the first scan). Every bit of the three
/// words either attaches a store whose log area `verify` also finds
/// inside the region, or is refused typed — `NotFormatted` where `verify`
/// finds no store, `BadImage` where it finds the area out of bounds.
#[test]
fn every_bit_of_the_store_block_attaches_or_fails_typed() {
    let _g = M.lock();
    let cell = M.cell("storeblock");
    M.reseed_placement();
    let path = cell.path("store.nvr");
    let region = Region::create_file(&path, IMG_SIZE).unwrap();
    ObjectStore::format_with_log(&region, 4096).unwrap();
    let meta_off = region.root_off(STORE_ROOT).unwrap() as usize;
    region.close().unwrap();
    let base = std::fs::read(&path).unwrap();
    let img_path = cell.path("flip.nvr");
    let (mut attached, mut refused) = (0, 0);
    for (word, name) in ["magic", "log_off", "log_cap"].into_iter().enumerate() {
        for bit in 0..64 {
            let ctx = format!("store block {name} bit {bit}");
            let mut img = base.clone();
            img[meta_off + word * 8 + bit / 8] ^= 1 << (bit % 8);
            let offline = verify::verify_bytes(&img).undo_log;
            std::fs::write(&img_path, &img).unwrap();
            let r = Region::open_file(&img_path).unwrap_or_else(|e| panic!("[{ctx}] open: {e}"));
            match ObjectStore::attach(&r) {
                Ok(_) => {
                    attached += 1;
                    assert!(
                        offline.is_some_and(|l| !l.out_of_bounds),
                        "[{ctx}] attached, but verify says {offline:?}"
                    );
                }
                Err(StoreError::NotFormatted) => {
                    refused += 1;
                    assert_eq!(offline, None, "[{ctx}] no store, but verify found one");
                }
                Err(StoreError::Nv(NvError::BadImage(why))) => {
                    refused += 1;
                    assert!(
                        offline.is_some_and(|l| l.out_of_bounds),
                        "[{ctx}] refused ({why}), but verify says {offline:?}"
                    );
                }
                Err(e) => panic!("[{ctx}] refusal must be typed, got: {e}"),
            }
            r.crash();
        }
    }
    assert!(
        attached > 0 && refused > 0,
        "the sweep must reach both outcomes (attached {attached}, refused {refused})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random byte- and line-granularity corruption anywhere in the
    /// image (metadata and data alike): open / verify / salvage never
    /// panic, failures are typed, salvage leaves the file untouched.
    #[test]
    fn random_flips_never_panic_open_verify_or_salvage(
        case in 0u64..u64::MAX,
        nflips in 1u64..16,
        whole_lines in 0u64..3,
    ) {
        let _g = M.lock();
        let cell = M.cell("random");
        let base = pristine();
        let mut img = base.to_vec();
        let mut rng = M.stream(case);
        let ctx = format!(
            "case {case:#x} nflips {nflips} whole_lines {whole_lines} {}",
            M.tag()
        );
        for _ in 0..nflips {
            let bit = (rng.next() % (img.len() as u64 * 8)) as usize;
            img[bit / 8] ^= 1 << (bit % 8);
        }
        let lines = img.len() / LINE;
        for _ in 0..whole_lines {
            let line = (rng.next() % lines as u64) as usize;
            for byte in &mut img[line * LINE..(line + 1) * LINE] {
                *byte = rng.next() as u8;
            }
        }
        offline_readers(&img, &ctx);
        let img_path = cell.path("rot.nvr");
        std::fs::write(&img_path, &img).unwrap();
        // A typed refusal is always acceptable; whatever *does* open must
        // be structurally usable: the walk passes and the directory
        // decodes without panicking.
        if let Ok(r) = catch_unwind(AssertUnwindSafe(|| Region::open_file(&img_path)))
            .unwrap_or_else(|_| panic!("[{ctx}] open_file panicked"))
        {
            prop_assert!(r.verify().unwrap().primary_ok(), "[{ctx}]");
            let _ = r.roots();
            r.crash();
        }
        check_salvage(&img_path, &ctx);
    }
}

/// A rotted pointer field — a region ID past the layout's ceiling or an
/// address outside the data area — must fail translation as a *typed*
/// miss on the lock-free fast path: a zero/None result plus a counted
/// metric, never an out-of-bounds table read and never a panic.
#[test]
fn out_of_range_rid_translation_is_a_typed_miss() {
    let _serial = M.lock();
    use nvm_pi::nvmsim::metrics::{snapshot, Counter};
    let space = nvm_pi::NvSpace::global();
    let layout = space.layout();
    let before = snapshot();
    let bad_rid = layout.max_rid().wrapping_add(1);
    assert_eq!(space.base_of_rid(bad_rid), 0);
    assert_eq!(space.try_base_of_rid(bad_rid), None);
    assert_eq!(space.base_of_rid(u32::MAX), 0);
    let outside = space.data_base() + layout.data_area_size() + 64;
    assert_eq!(space.rid_of_addr(outside), 0);
    assert_eq!(space.try_rid_of_addr(outside), None);
    assert_eq!(space.rid_off_of_addr(outside), (0, 0));
    let d = snapshot().delta(&before);
    assert!(
        d.get(Counter::NvTranslationMisses) >= 4,
        "typed misses must be counted, saw {}",
        d.get(Counter::NvTranslationMisses)
    );
    // A live region keeps translating exactly while rotted inputs miss.
    let r = Region::create(1 << 20).unwrap();
    let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
    assert_eq!(space.rid_of_addr(p), r.rid());
    assert_eq!(space.base_of_rid(r.rid()), r.base());
    r.close().unwrap();
}
