//! Pins the process and describes the machine.
//!
//! Unpinned, a one-client/one-shard loopback run is bimodal on this
//! 2-vCPU host (p50 of 5 µs in some launches, 45 µs in others: the
//! cross-CPU futex wake), so the benchmark refuses to run unpinned.

use crate::json::Json;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

extern "C" {
    // Declared here so the vendored `libc` stand-in need not grow.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn affinity() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the buffer is `cpusetsize` bytes long and writable.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn cpus_of(mask: &[u64; MASK_WORDS]) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// What the output header records about where the numbers were taken.
pub struct Machine {
    pub nproc: usize,
    pub allowed_cpus: Vec<usize>,
    pub pinned_cpu: usize,
}

/// Pins this process (and every thread it starts later) to the first CPU
/// of its affinity mask.
pub fn pin() -> Result<Machine, String> {
    let before = cpus_of(&affinity()?);
    let &cpu = before.first().ok_or("empty affinity mask")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the buffer is `cpusetsize` bytes long and readable.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let after = cpus_of(&affinity()?);
    if after != [cpu] {
        return Err(format!("pinned to CPU {cpu} but the mask reads {after:?}"));
    }
    Ok(Machine {
        nproc: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(before.len()),
        allowed_cpus: before,
        pinned_cpu: cpu,
    })
}

fn sysfs(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl Machine {
    /// `L1d 32K, L2 2048K, …` of the pinned CPU, from `/sys`.
    fn caches(&self) -> String {
        let dir = format!("/sys/devices/system/cpu/cpu{}/cache", self.pinned_cpu);
        let mut out = Vec::new();
        for i in 0..8 {
            let at = |f: &str| sysfs(&format!("{dir}/index{i}/{f}"));
            let (Some(level), Some(kind), Some(size)) = (at("level"), at("type"), at("size"))
            else {
                break;
            };
            let kind = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            out.push(format!("L{level}{kind} {size}"));
        }
        if out.is_empty() {
            "unknown".to_string()
        } else {
            out.join(", ")
        }
    }

    /// The header of every result: machine, toolchain, commit, inputs.
    pub fn header(&self, seed: u64, seconds: f64, latency_model: &str) -> Json {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "affinity_mask",
                Json::Arr(
                    self.allowed_cpus
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            ("pinned_cpu", Json::Num(self.pinned_cpu as f64)),
            ("caches", Json::str(self.caches())),
            ("rustc", Json::str(env("PIBENCH_RUSTC"))),
            ("commit", Json::str(env("PIBENCH_COMMIT"))),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("latency_model", Json::str(latency_model)),
        ])
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
