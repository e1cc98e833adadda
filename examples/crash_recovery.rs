//! Crash recovery with the transactional object store: a simulated crash
//! in the middle of a transaction rolls back cleanly on the next open.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use nvm_pi::{ObjectStore, Region};

const ACCOUNT_TYPE: u32 = 7;

/// The balance word of the account published under `account.<name>`.
fn account(region: &Region, name: &str) -> Result<*mut u64, Box<dyn std::error::Error>> {
    let addr = region
        .root(&format!("account.{name}"))
        .ok_or_else(|| format!("account {name} missing"))?;
    Ok(addr as *mut u64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("nvm-pi-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("bank.nvr");

    // Run 1: create two "accounts" and commit initial balances.
    {
        let region = Region::create_file(&path, 1 << 20)?;
        let store = ObjectStore::format(&region)?;
        let a = store.alloc(ACCOUNT_TYPE, 8)?.as_ptr() as *mut u64;
        let b = store.alloc(ACCOUNT_TYPE, 8)?.as_ptr() as *mut u64;
        // Named roots are how a later run finds the accounts again.
        region.set_root("account.a", a as usize)?;
        region.set_root("account.b", b as usize)?;
        unsafe {
            let mut tx = store.begin();
            tx.set(a, 1000)?;
            tx.set(b, 0)?;
            tx.commit();
        }
        println!("initial balances committed: a=1000 b=0");
        region.close()?;
    }

    // Run 2: start a transfer and crash halfway (only one side updated).
    {
        let region = Region::open_file(&path)?;
        let store = ObjectStore::attach(&region)?;
        let a = account(&region, "a")?;
        unsafe {
            let mut tx = store.begin();
            tx.set(a, 1000 - 300)?;
            println!("debited a inside a tx (a={}), now crashing...", a.read());
            // Simulated power loss: the tx is neither committed nor aborted.
            std::mem::forget(tx);
        }
        drop(store);
        region.crash();
    }

    // Run 3: recovery restores the pre-transaction state.
    {
        let region = Region::open_file(&path)?;
        assert!(region.was_dirty(), "the image records the unclean shutdown");
        let store = ObjectStore::attach(&region)?;
        assert!(
            store.recovered(),
            "attach rolled back the interrupted transaction"
        );
        let balances = ["a", "b"]
            .iter()
            .map(|name| Ok(unsafe { *account(&region, name)? }))
            .collect::<Result<Vec<u64>, Box<dyn std::error::Error>>>()?;
        println!("after recovery: balances = {balances:?}");
        assert_eq!(
            balances.iter().sum::<u64>(),
            1000,
            "no money created or destroyed"
        );
        assert_eq!(balances, [1000, 0], "transfer fully undone");
        region.close()?;
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("crash recovery verified");
    Ok(())
}
