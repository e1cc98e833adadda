//! A tiny persistent key-value store built from the whole stack: a
//! durable region, the transactional object store, and a `PMap` index of
//! RIV pointers to store-allocated values. Every update is crash-safe,
//! and the database reopens at whatever address the NV space hands out.
//!
//! ```text
//! cargo run --example kvstore -- set answer 42
//! cargo run --example kvstore -- get answer
//! cargo run --example kvstore -- del answer
//! cargo run --example kvstore -- list
//! ```
//!
//! The database file lives at `$TMPDIR/nvm-pi-kvstore/db.nvr`.

use nvm_pi::{NodeArena, ObjectStore, PMap, Region, Riv};
use std::path::PathBuf;

const VALUE_TYPE: u32 = 0x56414c55; // "VALU"
const MAX_VALUE: usize = 240;

fn db_path() -> PathBuf {
    let dir = std::env::temp_dir().join("nvm-pi-kvstore");
    std::fs::create_dir_all(&dir).expect("create db dir");
    dir.join("db.nvr")
}

fn key_hash(key: &str) -> u64 {
    // FNV-1a; good enough for a demo index.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | 1 // keep 0 free as "absent"
}

/// Value layout in the store: len byte + bytes (within one small object).
unsafe fn write_value(p: *mut u8, value: &str) {
    p.write(value.len() as u8);
    std::ptr::copy_nonoverlapping(value.as_ptr(), p.add(1), value.len());
}

unsafe fn read_value(p: *const u8) -> String {
    let len = p.read() as usize;
    let bytes = std::slice::from_raw_parts(p.add(1), len);
    String::from_utf8_lossy(bytes).into_owned()
}

type Db = (Region, ObjectStore, PMap<Riv, u64>);

fn open_db() -> Result<Db, Box<dyn std::error::Error>> {
    let path = db_path();
    let (region, store, map) = if path.exists() {
        let region = match Region::open_file(&path) {
            Ok(r) => r,
            Err(e) => {
                // A stale image from an older on-media format (or one
                // damaged beyond slot-assisted repair) fails with a typed
                // error; for a demo cache in /tmp, starting over is fine.
                eprintln!("note: discarding unusable image ({e}); starting fresh");
                std::fs::remove_file(&path)?;
                return open_db();
            }
        };
        let store = match ObjectStore::attach(&region) {
            Ok(s) => s,
            Err(e) => {
                // Likewise a store of an older format.
                eprintln!("note: discarding unusable store ({e}); starting fresh");
                region.close()?;
                std::fs::remove_file(&path)?;
                return open_db();
            }
        };
        if store.recovered() {
            eprintln!("note: recovered from an interrupted transaction");
        }
        let map = PMap::attach(NodeArena::transactional(store.clone()), "kv-index")?;
        (region, store, map)
    } else {
        let region = Region::create_file(&path, 8 << 20)?;
        let store = ObjectStore::format(&region)?;
        let map = PMap::create_rooted(NodeArena::transactional(store.clone()), "kv-index")?;
        (region, store, map)
    };
    Ok((region, store, map))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (region, store, mut map) = open_db()?;
    println!(
        "db mapped at {:#x} (region {})",
        region.base(),
        region.rid()
    );

    match args
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["set", key, value] => {
            if value.len() > MAX_VALUE {
                return Err(format!("value too long (max {MAX_VALUE} bytes)").into());
            }
            // Allocate + fill the value transactionally, then point the
            // index at it. A crash anywhere leaves the old state intact.
            let payload = {
                let mut tx = store.begin();
                let p = tx.alloc(VALUE_TYPE, 1 + value.len())?;
                unsafe {
                    tx.add_range(p.as_ptr() as usize, 1 + value.len())?;
                    write_value(p.as_ptr(), value);
                }
                tx.commit();
                p
            };
            let riv = Riv::p2x(payload.as_ptr() as usize);
            let old = map.insert(key_hash(key), riv.raw())?;
            if let Some(old_raw) = old {
                // Free the replaced value object.
                let old_ptr = riv_from_raw(old_raw).x2p() as *mut u8;
                unsafe { store.free(std::ptr::NonNull::new(old_ptr).unwrap())? };
                println!("updated {key}");
            } else {
                println!("inserted {key}");
            }
            region.sync()?;
        }
        ["get", key] => match map.get(key_hash(key)) {
            Some(raw) => {
                let v = unsafe { read_value(riv_from_raw(raw).x2p() as *const u8) };
                println!("{v}");
            }
            None => println!("(not found)"),
        },
        ["del", key] => match map.remove(key_hash(key)) {
            Some(raw) => {
                let p = riv_from_raw(raw).x2p() as *mut u8;
                unsafe { store.free(std::ptr::NonNull::new(p).unwrap())? };
                region.sync()?;
                println!("deleted {key}");
            }
            None => println!("(not found)"),
        },
        ["list"] => {
            let entries = map.entries();
            println!(
                "{} values, {} live allocations:",
                entries.len(),
                region.stats().live_allocs
            );
            for (hash, raw) in entries {
                let v = unsafe { read_value(riv_from_raw(raw).x2p() as *const u8) };
                println!("  {hash:#018x} = {v:?}");
            }
        }
        ["reset"] => {
            drop(map);
            drop(store);
            region.close()?;
            std::fs::remove_file(db_path())?;
            println!("database removed");
            return Ok(());
        }
        _ => {
            eprintln!("usage: kvstore set <key> <value> | get <key> | del <key> | list | reset");
            std::process::exit(2);
        }
    }

    region.close()?;
    Ok(())
}

fn riv_from_raw(raw: u64) -> Riv {
    // SAFETY: Riv is repr(transparent) over u64; the raw bits came from
    // Riv::raw() stored in the index.
    unsafe { std::mem::transmute::<u64, Riv>(raw) }
}
