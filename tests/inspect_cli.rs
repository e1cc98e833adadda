//! `nvr_inspect` command line: the 0/1/2 exit-code contract.
//!
//! The binary's module doc promises: 0 = every check passed, 1 = damage
//! found, 2 = usage/IO trouble. This file runs the binary over six image
//! kinds and pins the exit code of every (subcommand, image) cell — what
//! the doc promises where it speaks, and what the binary has always
//! exited with where the doc is silent (noted per row). Only the exit
//! code and, where one is printed, the `verdict:` line are asserted, so
//! message wording stays free to change.

use nvm_pi::nvmsim::alloc::AllocHeader;
use nvm_pi::nvmsim::llalloc::LL_PAGE_MAGIC;
use nvm_pi::nvmsim::region::RegionHeader;
use nvm_pi::{NodeArena, NvError, ObjectStore, OffHolder, PArt, Region};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn nvr_inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvr_inspect"))
        .args(args)
        .output()
        .expect("run nvr_inspect")
}

/// The text after `verdict:` on the last such line of stdout, if any.
fn verdict(out: &Output) -> Option<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("verdict:"))
        .next_back()
        .map(|v| v.trim().to_string())
}

const IMAGES: [&str; 6] = [
    "clean",
    "crashed",
    "rotted",
    "bump-rotted",
    "zeros",
    "missing",
];

/// Builds the image kinds under `dir` (the last, `missing`, is a path
/// that is never created).
fn build_images(dir: &Path) {
    let populate = |r: &Region| {
        let ptrs: Vec<_> = (0..10).map(|_| r.alloc(64, 8).unwrap()).collect();
        r.set_root("head", ptrs[0].as_ptr() as usize).unwrap();
        // SAFETY: allocated above with this size, not yet freed.
        unsafe { r.dealloc(ptrs[9], 64).unwrap() };
    };
    let clean = Region::create_file(dir.join("clean"), 1 << 20).unwrap();
    populate(&clean);
    clean.close().unwrap();

    let crashed = Region::create_file(dir.join("crashed"), 1 << 20).unwrap();
    populate(&crashed);
    crashed.sync().unwrap();
    crashed.crash();

    // One rotted bitmap-descriptor class byte on an otherwise clean
    // image. The first bitmap page is found by its magic; descriptor 0
    // follows the 64-byte page header and keeps its class in the low
    // byte of its second word.
    let mut bytes = std::fs::read(dir.join("clean")).unwrap();
    let page = bytes
        .chunks_exact(8)
        .position(|w| w == LL_PAGE_MAGIC.to_le_bytes())
        .expect("a default-created image carries a bitmap page")
        * 8;
    bytes[page + 64 + 8] = 0xff;
    std::fs::write(dir.join("rotted"), bytes).unwrap();

    // A rotted frontier word on an otherwise clean image: nothing
    // validates it before the summary prints it.
    let mut bytes = std::fs::read(dir.join("clean")).unwrap();
    let bump = RegionHeader::OFF_ALLOC + AllocHeader::OFF_BUMP;
    bytes[bump..bump + 8].copy_from_slice(&(u64::MAX / 3).to_le_bytes());
    std::fs::write(dir.join("bump-rotted"), bytes).unwrap();

    std::fs::write(dir.join("zeros"), [0u8; 64]).unwrap();
}

/// Expected `(exit code, verdict line)` per image kind, in [`IMAGES`]
/// order.
type Row = [(i32, Option<&'static str>); 6];

/// The contract. `verify`, `alloc` and the usage error are what the
/// module doc promises; the rest is the behaviour of the binary as it
/// has shipped, written down here.
const CONTRACT: [(&str, Row); 5] = [
    // Header summary. The doc is silent on exit codes: anything that is
    // not a readable region header — garbage and unreadable alike — is 1;
    // bitmap rot does not show in a header summary, and a rotted frontier
    // is printed as lying outside the managed range.
    (
        "",
        [
            (0, None),
            (0, None),
            (0, None),
            (0, None),
            (1, None),
            (1, None),
        ],
    ),
    // Doc: 0 = every check passed, 1 = damage found, 2 = usage/IO trouble.
    // A crashed image is dirty, not damaged.
    (
        "verify",
        [
            (0, Some("healthy")),
            (0, Some("healthy")),
            (1, Some("damaged (recoverable)")),
            (1, Some("damaged (recoverable)")),
            (1, Some("damaged (unrecoverable)")),
            (2, None),
        ],
    ),
    // Doc: 0 consistent, 1 inconsistent; stale counters fail only a clean
    // image. Not a region image at all is IO/usage trouble: 2.
    (
        "alloc",
        [
            (0, Some("consistent")),
            (0, Some("consistent")),
            (1, Some("INCONSISTENT")),
            (0, Some("consistent")),
            (2, None),
            (2, None),
        ],
    ),
    // Doc silent: a region that opens is 0 (a rotted frontier is
    // restored from the metadata slots); one that does not open, for
    // whatever reason, is 1 — a rotted bitmap chain included, which the
    // open refuses and only salvage opens.
    (
        "stats",
        [
            (0, None),
            (0, None),
            (1, None),
            (0, None),
            (1, None),
            (1, None),
        ],
    ),
    // Doc silent: scrub is verify (same codes, damaged images left
    // untouched and their report printed) plus a slot refresh of healthy
    // images, which prints no verdict.
    (
        "scrub",
        [
            (0, None),
            (0, None),
            (1, Some("damaged (recoverable)")),
            (1, Some("damaged (recoverable)")),
            (1, Some("damaged (unrecoverable)")),
            (2, None),
        ],
    ),
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvr-inspect-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn exit_codes_and_verdicts_per_subcommand_and_image_kind() {
    let dir = tmpdir("matrix");
    build_images(&dir);
    let cell = dir.join("cell.nvr");
    for (cmd, row) in CONTRACT {
        for (image, (code, want_verdict)) in IMAGES.iter().zip(row) {
            // `stats` and `scrub` open the image writably: every cell
            // runs on its own copy.
            std::fs::remove_file(&cell).ok();
            if *image != "missing" {
                std::fs::copy(dir.join(image), &cell).unwrap();
            }
            let path = cell.to_str().unwrap();
            let out = if cmd.is_empty() {
                nvr_inspect(&[path])
            } else {
                nvr_inspect(&[cmd, path])
            };
            let ctx = format!("nvr_inspect {cmd} <{image}>: {out:?}");
            assert_eq!(out.status.code(), Some(code), "{ctx}");
            assert_eq!(verdict(&out).as_deref(), want_verdict, "{ctx}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn later_paths_are_still_examined_after_a_failing_one() {
    let dir = tmpdir("multi");
    build_images(&dir);
    let (zeros, clean) = (dir.join("zeros"), dir.join("clean"));
    let out = nvr_inspect(&["verify", zeros.to_str().unwrap(), clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(verdict(&out).as_deref(), Some("healthy"), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `verify` on an image whose transaction was interrupted after its
/// batch was durable: the log summary counts the allocator entries the
/// next attach rolls back (an allocation and a free), and a dirty image
/// is not damaged.
#[test]
fn verify_counts_the_allocator_entries_of_a_pending_transaction() {
    let dir = tmpdir("pending");
    let path = dir.join("pending.nvr");
    let region = Region::create_file(&path, 1 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let (slot, old) = (store.alloc(1, 8).unwrap(), store.alloc(1, 32).unwrap());
    let mut tx = store.begin();
    tx.log_range(slot.as_ptr() as usize, 8).unwrap();
    tx.alloc(1, 32).unwrap();
    // SAFETY: `old` is this test's block and nothing points at it.
    unsafe { tx.free(old, 32).unwrap() };
    tx.barrier();
    std::mem::forget(tx);
    drop(store);
    region.crash();
    let out = nvr_inspect(&["verify", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("3 entries (2 allocator)") && stdout.contains("recovery pending"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `index` over an image holding an ART of the current format and one
/// whose root carries the previous format's tag: the old index is named
/// and refused, walked or asked for, and the current one still decodes.
#[test]
fn index_refuses_an_art_of_the_previous_format_by_its_tag() {
    let dir = tmpdir("old-art");
    let path = dir.join("art.nvr");
    let region = Region::create_file(&path, 1 << 20).unwrap();
    for root in ["new", "old"] {
        let mut art: PArt<OffHolder> =
            PArt::create_rooted(NodeArena::raw(region.clone()), root).unwrap();
        art.extend(["car", "cart", "carter"]).unwrap();
    }
    let old_header = region.root("old").unwrap();
    let old_tag = u64::from_le_bytes(*b"PDSART01");
    region.set_root_tagged("old", old_header, old_tag).unwrap();
    region.close().unwrap();
    let path = path.to_str().unwrap();
    for args in [&["index", path][..], &["index", "--root", "old", path]] {
        let out = nvr_inspect(args);
        let ctx = format!("{args:?}: {out:?}");
        assert_eq!(out.status.code(), Some(1), "{ctx}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("\"PDSART01\""),
            "{ctx}"
        );
    }
    let out = nvr_inspect(&["index", "--root", "new", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(verdict(&out).as_deref(), Some("consistent"), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `index` over an ART whose root link rotted to far outside every
/// region: the walk refuses the link instead of following it, so the
/// binary exits 1 and its verdict names the link.
#[test]
fn index_refuses_a_rotted_root_link() {
    let dir = tmpdir("rotted-art");
    let path = dir.join("art.nvr");
    let region = Region::create_file(&path, 1 << 20).unwrap();
    let mut art: PArt<OffHolder> =
        PArt::create_rooted(NodeArena::raw(region.clone()), "idx").unwrap();
    art.extend(["car", "cart", "carter"]).unwrap();
    // SAFETY: the header is mapped; its first word is the root link.
    unsafe { *(art.header_addr() as *mut u64) = 1 << 40 };
    region.close().unwrap();
    let out = nvr_inspect(&["index", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let verdict = verdict(&out).unwrap_or_default();
    assert!(
        verdict.starts_with("INCONSISTENT") && verdict.contains("link"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_region_without_room_for_a_bitmap_page_is_refused() {
    // 4 KiB holds the header and both metadata slots but leaves no room
    // for the allocator's first 4 KiB bitmap page: every region has one
    // allocator, so such a region is refused, typed, and the file the
    // attempt left is no region image to `alloc` either.
    let dir = tmpdir("small");
    let path = dir.join("small.nvr");
    assert!(RegionHeader::min_image_len() > 4096);
    match Region::create_file(&path, 4096) {
        Err(NvError::BadImage(why)) => assert!(why.contains("bitmap page"), "{why}"),
        other => panic!("a 4 KiB region must be refused as BadImage, got {other:?}"),
    }
    let out = nvr_inspect(&["alloc", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(verdict(&out), None, "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `server <dir>` verifies every `tenant-*.nvr` image in a data
/// directory: 0 while they all pass, 1 naming the one that does not.
/// Other files — a stray `.nvd` included — are not examined.
#[test]
fn server_dir_triage_names_the_damaged_tenant_image() {
    let dir = tmpdir("server");
    build_images(&dir);
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    std::fs::copy(dir.join("clean"), data.join("tenant-0.nvr")).unwrap();
    let run = || nvr_inspect(&["server", data.to_str().unwrap()]);
    let out = run();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    std::fs::copy(dir.join("rotted"), data.join("tenant-1.nvr")).unwrap();
    let out = run();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("tenant-1.nvr") && l.contains("DAMAGED")),
        "{out:?}"
    );
    assert!(
        !stdout
            .lines()
            .any(|l| l.contains("tenant-0.nvr") && l.contains("DAMAGED")),
        "{out:?}"
    );

    std::fs::remove_file(data.join("tenant-1.nvr")).unwrap();
    std::fs::write(data.join("tenant-2.nvd"), b"not a region image").unwrap();
    let out = run();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("tenant-2.nvd"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["verify"],
        &["alloc"],
        &["index", "--root"],
        &["repl", "x"],
    ] {
        let out = nvr_inspect(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}
