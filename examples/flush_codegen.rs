//! The two persistence points whose machine code
//! `scripts/check_flush_codegen.sh` inspects. With nothing armed (no
//! scheduler, shadow tracker or latency model — see `nvmsim::latency`),
//! `flush_point` must be the armed-word test, the line arithmetic and two
//! plain counter stores, and `fence_point` the test, the fence and one
//! store: no `call` and no `lock` prefix besides the fence itself.
//!
//! ```text
//! cargo run --release --example flush_codegen
//! scripts/check_flush_codegen.sh
//! ```

use nvm_pi::nvmsim::latency;
use nvm_pi::nvmsim::metrics::{self, Counter};

/// One `clflush_range`, not inlined into its caller.
#[inline(never)]
#[no_mangle]
pub extern "C" fn flush_point(addr: usize, len: usize) {
    latency::clflush_range(addr, len);
}

/// One `wbarrier`, not inlined into its caller.
#[inline(never)]
#[no_mangle]
pub extern "C" fn fence_point() {
    latency::wbarrier();
}

fn main() {
    const CALLS: u64 = 1_000_000;
    assert_eq!(latency::armed(), 0, "nothing in this program arms the word");
    let before = metrics::snapshot();
    for i in 0..CALLS as usize {
        // 130 bytes from offset 60 of a line: three lines.
        flush_point(0x10_0000 + (i & 0xfff) * 64 + 60, 130);
        fence_point();
    }
    let d = metrics::snapshot().delta(&before);
    assert_eq!(d.get(Counter::ClflushCalls), CALLS);
    assert_eq!(d.get(Counter::ClflushLines), 3 * CALLS);
    assert_eq!(d.get(Counter::WbarrierCalls), CALLS);
    println!("flush_point/fence_point: {CALLS} idle flushes and fences, every one counted");
}
