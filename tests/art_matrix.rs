//! Crash-consistency matrix over the persistent adaptive radix tree.
//!
//! Same discipline — and the same enumeration, [`util::enumerate`] — as
//! `crash_matrix.rs`, pointed at `pds::art`: each cell runs a fixed
//! insert/remove workload under pstore transactions with a [`FaultPlan`]
//! capturing a faulted image at *every* flush/fence event, then recovers
//! every image through a remapped reopen and checks (a) ART structural
//! invariants, (b) exact membership against the committed-prefix model,
//! and (c) — for the set-semantics cell — a durable-linearizability
//! verdict from the recorded dlin stamp history. Both representations the
//! acceptance matrix names (OffHolder and RIV) and both fault policies
//! (drop-unflushed, word tearing) are enumerated.
//!
//! The workloads are chosen to cross every structural edge the tree has:
//! root-leaf publish, leaf split (with terminator branch), in-place child
//! add, Node4 -> Node16 grow-and-republish, occurrence-count bump, inner
//! prefix trim (split of a compressed path), and removal.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`).

use nvm_pi::{OffHolder, PArt, Region, Riv};
use util::Op::{self, Insert, Remove};
use util::{enumerate, Subject, Tx};

mod util;

static M: util::Matrix = util::Matrix::new("art_matrix", 0x5EED_A127);

/// Set-semantics workload crossing leaf publish, leaf split, two in-place
/// child adds, the Node4 -> Node16 grow-and-republish, and a removal.
/// Every key reaches count <= 1, so the dlin history check applies.
const ADAPTIVE_OPS: [Op<&str>; 6] = [
    Insert("an"),
    Insert("ar"),
    Insert("ap"),
    Insert("ad"),
    Insert("ax"),
    Remove("an"),
];

/// Path-compression workload: leaf split with a terminator branch
/// ("roman" vs "romans"), an occurrence-count bump and partial removal,
/// and a compressed-prefix split that trims an inner node in place
/// ("rubicon" against the "roman" spine). A 17-byte and a 64-byte key
/// put leaves in the 48- and 96-byte classes beside the 32-byte ones.
const DEEP_OPS: [Op<&str>; 8] = [
    Insert("roman"),
    Insert("romans"),
    Insert("roman"),
    Remove("roman"),
    Insert("rubicon"),
    Insert("romanesquearchway"),
    Insert("rubiconcrossedatdawnthedieiscastsaidcaesarandthelegionsmarchedon"),
    Remove("romans"),
];

#[test]
fn art_matrix_adaptive_offholder() {
    let _g = M.lock();
    for policy in M.policies() {
        enumerate::<Tx<PArt<OffHolder>>>(&M, "art-adaptive-off", policy, &[], &ADAPTIVE_OPS, true);
    }
}

#[test]
fn art_matrix_adaptive_riv() {
    let _g = M.lock();
    for policy in M.policies() {
        enumerate::<Tx<PArt<Riv>>>(&M, "art-adaptive-riv", policy, &[], &ADAPTIVE_OPS, true);
    }
}

#[test]
fn art_matrix_deep_offholder() {
    let _g = M.lock();
    for policy in M.policies() {
        enumerate::<Tx<PArt<OffHolder>>>(&M, "art-deep-off", policy, &[], &DEEP_OPS, false);
    }
}

#[test]
fn art_matrix_deep_riv() {
    let _g = M.lock();
    for policy in M.policies() {
        enumerate::<Tx<PArt<Riv>>>(&M, "art-deep-riv", policy, &[], &DEEP_OPS, false);
    }
}

/// The grow path under crash enumeration for the larger node kinds:
/// Node16 -> Node48 needs 17 distinct branch bytes. Uses 2-byte keys
/// sharing one first byte so a single inner node absorbs every insert,
/// then enumerates crash points around the 16 -> 17 growth alone (the
/// earlier inserts run unenumerated to keep the cell fast).
#[test]
fn art_matrix_node48_growth_edge() {
    let _g = M.lock();
    let ops = [
        "ka", "kb", "kc", "kd", "ke", "kf", "kg", "kh", "ki", "kj", "kk", "kl", "km", "kn", "ko",
        "kp", "kq",
    ]
    .map(Insert);
    // The workload crosses the edge it is named for (checked on a scratch
    // tree: the enumeration owns the ones it crashes).
    let region = Region::create(512 << 10).unwrap();
    let mut t = Tx::<PArt<Riv>>::create(&region);
    for &op in &ops[..16] {
        t.apply(op);
    }
    assert_eq!(
        t.s.stats().unwrap().kinds[1],
        1,
        "16 two-byte keys fill one Node16"
    );
    t.apply(ops[16]);
    assert_eq!(
        t.s.stats().unwrap().kinds[2],
        1,
        "17th branch byte grows to Node48"
    );
    drop(t);
    region.close().unwrap();
    // Every image holds the 16 prelude keys and, exactly from the commit
    // fence on under drop (possibly earlier under tear), the 17th.
    for policy in M.policies() {
        enumerate::<Tx<PArt<Riv>>>(&M, "art-grow48", policy, &ops[..16], &ops[16..], false);
    }
}
