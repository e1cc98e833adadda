//! Position independence across **separate processes** — the paper's real
//! deployment scenario (data written by one run or application, reused by
//! another; Section 1 and Figure 1).
//!
//! The test re-executes its own test binary as a child with a special
//! environment variable; the child builds and persists structures, then
//! the parent (a fresh process with a fresh NV space at a fresh address)
//! opens and verifies them.

use nvm_pi::pi_core::{OffHolder, Riv};
use nvm_pi::{NodeArena, PBst, PList, Region, WordCount};
use std::path::PathBuf;
use std::process::Command;

const ROLE_ENV: &str = "NVM_PI_XPROC_ROLE";
const PATH_ENV: &str = "NVM_PI_XPROC_PATH";

fn workdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("nvm-pi-xproc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The child's workload: runs in a separate process via the harness below.
/// Ignored so normal test runs skip it; the parent invokes it explicitly.
#[test]
#[ignore = "helper: executed as a child process by cross_process_reuse"]
fn xproc_child_writer() {
    let Some(role) = std::env::var_os(ROLE_ENV) else {
        return;
    };
    assert_eq!(role, "writer");
    let path = PathBuf::from(std::env::var_os(PATH_ENV).expect("path env"));

    let region = Region::create_file(&path, 8 << 20).unwrap();
    println!("child: region at {:#x}", region.base());

    let mut list: PList<OffHolder, 32> =
        PList::create_rooted(NodeArena::raw(region.clone()), "list").unwrap();
    list.extend(0..500).unwrap();

    let mut bst: PBst<Riv, 32> =
        PBst::create_rooted(NodeArena::raw(region.clone()), "bst").unwrap();
    bst.extend((0..300).map(|i| i * 17 % 1000)).unwrap();

    let mut wc: WordCount<OffHolder> =
        WordCount::create_rooted(NodeArena::raw(region.clone()), "wc").unwrap();
    wc.add_all(["alpha", "beta", "alpha", "gamma", "alpha"])
        .unwrap();

    // Report checksums for the parent to compare.
    println!(
        "CHECKSUM list={:#x} bst={:#x} wc={}",
        list.traverse(),
        bst.traverse(),
        wc.total()
    );
    region.close().unwrap();
}

#[test]
fn cross_process_reuse() {
    if std::env::var_os(ROLE_ENV).is_some() {
        // We *are* the child; the writer test carries the workload.
        return;
    }
    let dir = workdir();
    let path = dir.join("xproc.nvr");

    // Run the writer in a separate process (fresh address space).
    let exe = std::env::current_exe().unwrap();
    let out = Command::new(&exe)
        .args(["--exact", "xproc_child_writer", "--ignored", "--nocapture"])
        .env(ROLE_ENV, "writer")
        .env(PATH_ENV, &path)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Parse the child's checksums.
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CHECKSUM"))
        .expect("checksum line");
    let field = |name: &str| -> u64 {
        let tok = line
            .split_whitespace()
            .find(|t| t.starts_with(name))
            .unwrap();
        let v = tok.split('=').nth(1).unwrap();
        if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).unwrap()
        } else {
            v.parse().unwrap()
        }
    };
    let (list_sum, bst_sum, wc_total) = (field("list="), field("bst="), field("wc="));

    // This process has its own NV space at its own random base: open the
    // image the *other process* wrote and verify every structure.
    let region = Region::open_file(&path).unwrap();
    println!("parent: region at {:#x}", region.base());
    assert!(!region.was_dirty());

    let list: PList<OffHolder, 32> = PList::attach(NodeArena::raw(region.clone()), "list").unwrap();
    assert_eq!(list.len(), 500);
    assert_eq!(
        list.traverse(),
        list_sum,
        "list checksum matches across processes"
    );
    list.check_invariants().unwrap();

    let bst: PBst<Riv, 32> = PBst::attach(NodeArena::raw(region.clone()), "bst").unwrap();
    assert_eq!(
        bst.traverse(),
        bst_sum,
        "bst checksum matches across processes"
    );
    bst.check_invariants().unwrap();

    let wc: WordCount<OffHolder> = WordCount::attach(NodeArena::raw(region.clone()), "wc").unwrap();
    assert_eq!(wc.total(), wc_total);
    assert_eq!(wc.count("alpha"), 3);

    region.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
