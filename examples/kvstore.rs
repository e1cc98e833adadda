//! A tiny persistent key-value store built from the whole stack: a
//! durable region, the transactional object store, and a `PArt` index of
//! RIV pointers whose every entry is one word `key=value`. Each command
//! that changes the database is exactly one transaction (`set` one
//! `insert_tx`, `del` one `remove_tx`), so every update is crash-safe,
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

use nvm_pi::pds::MAX_KEY;
use nvm_pi::{NodeArena, ObjectStore, PArt, Region, Riv};
use std::path::PathBuf;

fn db_path() -> PathBuf {
    let dir = std::env::temp_dir().join("nvm-pi-kvstore");
    std::fs::create_dir_all(&dir).expect("create db dir");
    dir.join("db.nvr")
}

type Db = (Region, ObjectStore, PArt<Riv>);

/// Deletes an image that cannot serve as the database and starts over —
/// for a demo cache in `$TMPDIR`, starting over is fine.
fn start_fresh(region: Region, why: &str) -> Result<Db, Box<dyn std::error::Error>> {
    eprintln!("note: discarding unusable {why}; starting fresh");
    region.close()?;
    std::fs::remove_file(db_path())?;
    open_db()
}

fn open_db() -> Result<Db, Box<dyn std::error::Error>> {
    let path = db_path();
    if !path.exists() {
        let region = Region::create_file(&path, 8 << 20)?;
        let store = ObjectStore::format(&region)?;
        let index = PArt::create_rooted(NodeArena::transactional(store.clone()), "kv-index")?;
        return Ok((region, store, index));
    }
    let region = match Region::open_file(&path) {
        Ok(r) => r,
        Err(e) => {
            // A stale image from an older on-media format (or one damaged
            // beyond slot-assisted repair) fails with a typed error.
            eprintln!("note: discarding unusable image ({e}); starting fresh");
            std::fs::remove_file(&path)?;
            return open_db();
        }
    };
    let store = match ObjectStore::attach(&region) {
        Ok(s) => s,
        Err(e) => return start_fresh(region, &format!("store ({e})")),
    };
    if store.recovered() {
        eprintln!("note: rolled back an interrupted transaction");
    }
    // A database written by an older version of this example keeps an
    // index of another type under the same root name.
    match PArt::attach(NodeArena::transactional(store.clone()), "kv-index") {
        Ok(index) => Ok((region, store, index)),
        Err(e) => start_fresh(region, &format!("index ({e})")),
    }
}

/// The one entry for `key`, as `key=value`.
fn entry(index: &PArt<Riv>, key: &str) -> Result<Option<String>, Box<dyn std::error::Error>> {
    Ok(index.prefix_scan(&format!("{key}="))?.into_iter().next())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // A key is one `key=` prefix of the index: non-empty, no `=`.
    let key_ok = |key: &str| !key.is_empty() && !key.contains('=') && key.len() < MAX_KEY;
    match args.as_slice() {
        ["set", key, value] if key_ok(key) && key.len() + 1 + value.len() <= MAX_KEY => {}
        ["get" | "del", key] if key_ok(key) => {}
        ["list"] | ["reset"] => {}
        _ => {
            eprintln!(
                "usage: kvstore set <key> <value> | get <key> | del <key> | list | reset\n\
                 an entry `key=value` is at most {MAX_KEY} bytes and its key holds no `=`"
            );
            std::process::exit(2);
        }
    }

    let (region, store, mut index) = open_db()?;
    eprintln!(
        "db mapped at {:#x} (region {})",
        region.base(),
        region.rid()
    );

    match args.as_slice() {
        ["set", key, value] => {
            if entry(&index, key)?.is_some() {
                region.close()?;
                return Err(format!("{key} already holds a value; del it first").into());
            }
            index.insert_tx(&store, &format!("{key}={value}"))?;
            println!("inserted {key}");
        }
        ["get", key] => match entry(&index, key)? {
            Some(word) => println!("{}", &word[key.len() + 1..]),
            None => println!("(not found)"),
        },
        ["del", key] => match entry(&index, key)? {
            Some(word) => {
                index.remove_tx(&store, &word)?;
                println!("deleted {key}");
            }
            None => println!("(not found)"),
        },
        ["list"] => {
            let words = index.prefix_scan("")?;
            println!("{} entries:", words.len());
            for word in words {
                let (key, value) = word.split_once('=').unwrap_or((&word, ""));
                println!("  {key} = {value:?}");
            }
        }
        ["reset"] => {
            region.close()?;
            std::fs::remove_file(db_path())?;
            println!("database removed");
            return Ok(());
        }
        _ => unreachable!("arguments checked above"),
    }

    region.close()?;
    Ok(())
}
