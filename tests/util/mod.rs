//! The one matrix harness: what every matrix binary (`crash_matrix`,
//! `art_matrix`, `repl_matrix`, `concurrent_matrix`, `alloc_recovery`,
//! `corruption_matrix`, `server_matrix`, `chunk_geometry`) shares.
//!
//! * One [`Matrix`] value per binary owns the seed (`MATRIX_SEED`,
//!   decimal or `0x`-hex, with the binary's fixed default so default runs
//!   are deterministic), the copy-pastable replay command embedded in
//!   every failure context ([`Matrix::tag`]), the serial lock (the shadow
//!   tracker, chunk pool and replication registry are process-global), the
//!   two fault policies and the seeded random streams.
//! * A [`Cell`] is one cell's scratch directory: removed when the cell
//!   passes, **kept with its path and the replay command printed when the
//!   cell panics**. `MATRIX_ARTIFACT_DIR` only chooses where it lives (CI
//!   uploads that directory from failed jobs). The cell also owns the
//!   image step every crash matrix repeats: write the captured image,
//!   reopen it **at a base different from the mapping before it**, assert
//!   the dirty flag and the fault stamp ([`Cell::recover`]).
//! * [`Subject`] is a structure under test and [`enumerate`] the one
//!   committed-prefix enumeration over it (see `subject.rs`).
//!
//! [`Cell`] is also the one scratch directory of the tests that are not
//! matrices (`stress`, `transactions`, `multi_region`, `properties`).
#![allow(dead_code)]

use nvm_pi::{CapturedCrash, FaultPolicy, FaultReport, NvError, NvSpace, Region};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

mod subject;
#[allow(unused_imports)] // no binary uses every item
pub use subject::{
    apply_checked, enumerate, invariants, keys_of, Op, RawLog, Subject, Tx, BST_OPS, TRIE_OPS,
};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 as a pure function (the finalizer the fault-injection
/// substrate uses): per-cell seeds and per-thread op streams derive from
/// the one matrix seed by iterating it.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 as a stream: the state advances by the golden increment.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }
}

/// Short policy name for cell labels and file names.
pub fn policy_name(policy: FaultPolicy) -> &'static str {
    match policy {
        FaultPolicy::DropUnflushed => "drop",
        FaultPolicy::TearWords { .. } => "tear",
        _ => "other",
    }
}

/// Per-binary harness state: `static M: Matrix = Matrix::new(..)`.
pub struct Matrix {
    name: &'static str,
    default_seed: u64,
    seed: OnceLock<u64>,
    serial: Mutex<()>,
}

impl Matrix {
    /// `name` is the test binary (what `cargo test --test` takes);
    /// `default_seed` is used when `MATRIX_SEED` is unset.
    pub const fn new(name: &'static str, default_seed: u64) -> Matrix {
        Matrix {
            name,
            default_seed,
            seed: OnceLock::new(),
            serial: Mutex::new(()),
        }
    }

    /// The matrix seed: `MATRIX_SEED` (decimal or `0x`-prefixed hex) or
    /// the binary's default. A malformed value panics rather than
    /// silently running the default.
    pub fn seed(&self) -> u64 {
        *self
            .seed
            .get_or_init(|| match std::env::var("MATRIX_SEED") {
                Ok(s) => {
                    let t = s.trim();
                    let parsed = match t.strip_prefix("0x") {
                        Some(h) => u64::from_str_radix(h, 16),
                        None => t.parse(),
                    };
                    parsed.unwrap_or_else(|_| {
                        panic!("MATRIX_SEED must be a u64 (decimal or 0x-hex), got {s:?}")
                    })
                }
                Err(_) => self.default_seed,
            })
    }

    /// The replay command embedded in every failure context: pasting it
    /// into a shell reruns this binary with this seed.
    pub fn tag(&self) -> String {
        format!(
            "MATRIX_SEED={:#x} cargo test --test {}",
            self.seed(),
            self.name
        )
    }

    /// Serializes the binary's tests. Shrugs off poisoning: one failed
    /// cell must not cascade `PoisonError`s into every later test.
    pub fn lock(&self) -> MutexGuard<'_, ()> {
        self.serial.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Both crash policies, the tear pattern following the matrix seed.
    pub fn policies(&self) -> [FaultPolicy; 2] {
        [
            FaultPolicy::DropUnflushed,
            FaultPolicy::TearWords { seed: self.seed() },
        ]
    }

    /// A random stream derived from the matrix seed.
    pub fn stream(&self, salt: u64) -> SplitMix {
        SplitMix(self.seed() ^ salt)
    }

    /// Makes region placement follow the matrix seed instead of the
    /// process-global `SystemTime` default, so a cell replays exactly.
    pub fn reseed_placement(&self) {
        NvSpace::global().reseed_placement(self.seed());
    }

    /// A fresh, empty scratch directory for the cell `label`.
    pub fn cell(&self, label: &str) -> Cell {
        let dir = match std::env::var_os("MATRIX_ARTIFACT_DIR") {
            Some(root) => PathBuf::from(root).join(format!("{}-{label}", self.name)),
            None => {
                std::env::temp_dir().join(format!("{}-{}-{label}", self.name, std::process::id()))
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Cell {
            dir,
            replay: self.tag(),
        }
    }
}

/// One cell's scratch directory; see the module docs.
pub struct Cell {
    dir: PathBuf,
    replay: String,
}

impl Cell {
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Reopens the image at `path` avoiding `*prev` — the base of the
    /// mapping before it — and asserts the new base differs, so whatever
    /// the caller checks next is checked through a remap. `*prev` becomes
    /// the new base.
    pub fn remap(&self, path: &Path, prev: &mut usize) -> Result<Region, NvError> {
        let region = Region::open_file_avoiding(path, *prev)?;
        assert_ne!(
            region.base(),
            *prev,
            "[{}] reopen must land at a different base",
            path.display()
        );
        *prev = region.base();
        Ok(region)
    }

    /// The image step: writes `crash`'s image into the cell, reopens it
    /// remapped ([`Cell::remap`]) and checks it is marked as what it is.
    pub fn recover(&self, crash: &CapturedCrash, prev: &mut usize, ctx: &str) -> Region {
        let path = self.path("crash.nvr");
        std::fs::write(&path, &crash.image).unwrap();
        let region = self
            .remap(&path, prev)
            .unwrap_or_else(|e| panic!("[{ctx}] crash image must reopen: {e}"));
        check_faulted(&region, &crash.report, ctx);
        region
    }
}

impl Drop for Cell {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "cell artifacts kept in {}; replay: {}",
                self.dir.display(),
                self.replay
            );
        } else {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// A reopened fault-injected image is dirty and carries the stamp of the
/// injection `report` describes.
pub fn check_faulted(region: &Region, report: &FaultReport, ctx: &str) {
    assert!(region.was_dirty(), "[{ctx}] crash image must reopen dirty");
    let stamp = region
        .fault_stamp()
        .unwrap_or_else(|| panic!("[{ctx}] crash image must carry a fault stamp"));
    assert_eq!(stamp.event, report.event, "[{ctx}] stamp event");
    assert_eq!(stamp.seed, report.seed, "[{ctx}] stamp seed");
}
