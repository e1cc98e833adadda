//! `nvr-inspect` — examine and scrub region image files.
//!
//! ```text
//! nvr_inspect <image.nvr> [...]            # header/roots/allocator summary
//! nvr_inspect verify <image.nvr> [...]     # full corruption walk (checksums,
//!                                          # slots, log entries); exit 1 on damage
//! nvr_inspect scrub <image.nvr> [...]      # verify + freshen the inactive
//!                                          # metadata slot of healthy images
//! nvr_inspect stats <image.nvr> [...]      # allocator counters, roots, and
//!                                          # the nvmsim::metrics delta of the open
//! nvr_inspect alloc <image.nvr> [...]      # walk the bitmap allocator: per-class
//!                                          # subtree occupancy and page seals
//! nvr_inspect history <file.his> [...]     # dump an NVPIHIS1 concurrent-run
//!                                          # history: crash event, per-op records
//! nvr_inspect server <dir> [...]           # triage a region-server data dir:
//!                                          # verify every tenant-*.nvr image
//! nvr_inspect index [--root NAME] <image.nvr> [...]
//!                                          # decode persistent ART indexes offline:
//!                                          # repr, key count, node-kind histogram,
//!                                          # leaf depth distribution, invariants
//! ```
//!
//! Every subcommand exits 0 when every check passed, 1 when damage was
//! found (the report says what), and 2 on usage or I/O trouble — a
//! missing file, or a first argument that is neither a subcommand nor a
//! path. `verify` is the full corruption walk. `alloc` exits 0 when the
//! bitmap structures are consistent, 1 when they are not (an image
//! without a bitmap directory included); a page without its clean-close
//! seal only fails a *clean* image — a crashed one was never sealed.
//! `history` exits 0 when every file decodes (the CRC seal held), 1 when
//! one is torn or corrupt — so CI can triage the artifacts a failed
//! concurrent-matrix cell uploads. `server` exits 0 when every
//! `tenant-*.nvr` image in the directory passes the corruption walk, 1
//! when one is damaged (named on stdout), 2 when one cannot be read;
//! other files are ignored — the one-command triage for a failed
//! server-matrix cell's artifact directory. `index` walks every adaptive-radix-tree root in
//! the image (or just `--root NAME`) without needing to know its pointer
//! representation — the root fingerprint identifies it — and exits 0
//! when every decoded index passes `check_invariants`, 1 on any
//! violation (or when an explicitly named root is absent, or an index
//! carries another format's tag), 2 on usage/IO trouble. A rotted link
//! is such a violation: the verdict names it; the walk never follows it.

use std::fmt::Display;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nvr_inspect [verify|scrub|stats|alloc|history|server|index] <file|dir> [...]"
    );
    ExitCode::from(2)
}

/// A step that failed on one path: the exit code it earns and the message
/// for stderr.
struct Failed(u8, String);

/// Damage found (exit code 1).
fn damaged(e: impl Display) -> Failed {
    Failed(1, e.to_string())
}

/// Usage or I/O trouble (exit code 2).
fn trouble(e: impl Display) -> Failed {
    Failed(2, e.to_string())
}

/// What a subcommand made of one path: `Ok(true)` every check passed,
/// `Ok(false)` damage found and reported on stdout, `Err` a failed step.
type Outcome = Result<bool, Failed>;

/// The one per-path driver behind every subcommand: banner, run, report
/// a failed step, fold the exit code. The last path that did not pass
/// decides the code; a passing path never clears it.
fn each_path(paths: &[String], cmd: impl Fn(&str) -> Outcome) -> ExitCode {
    if paths.is_empty() {
        return usage();
    }
    let mut status = 0;
    for path in paths {
        println!("=== {path}");
        match cmd(path) {
            Ok(true) => {}
            Ok(false) => status = 1,
            Err(Failed(code, why)) => {
                eprintln!("error: {why}");
                status = code;
            }
        }
    }
    ExitCode::from(status)
}

/// Header, root directory and allocator summary of one image.
fn summary(path: &str) -> Outcome {
    print!("{}", nvmsim::inspect::inspect(path).map_err(damaged)?);
    Ok(true)
}

/// Decodes persistent adaptive-radix-tree indexes offline. Every named
/// root in the image is probed (the ART root tag plus the representation
/// fingerprint arbitrate, so no repr flag is needed); `--root NAME`
/// restricts the walk to one root and fails when it is not an ART. An
/// ART of another format (its tag's version) fails either way.
fn index(args: &[String]) -> ExitCode {
    let mut root_filter: Option<&str> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--root" {
            match it.next() {
                Some(r) => root_filter = Some(r),
                None => return usage(),
            }
        } else {
            paths.push(a.clone());
        }
    }
    each_path(&paths, |path| index_one(path, root_filter))
}

fn index_one(path: &str, root_filter: Option<&str>) -> Outcome {
    let region = nvmsim::Region::open_file(path).map_err(trouble)?;
    let roots = match root_filter {
        Some(r) => vec![r.to_string()],
        None => region.roots().map_err(trouble)?,
    };
    let mut sound = true;
    let mut found = 0;
    for root in &roots {
        let report = match pds::inspect_index(&region, root) {
            Ok(r) => r,
            // An unfiltered walk skips non-ART roots silently; an
            // explicitly named root, and an ART of another format, must
            // decode.
            Err(pds::PdsError::RootMissing(_)) if root_filter.is_none() => continue,
            Err(e) => {
                eprintln!("error: root {root}: {e}");
                sound = false;
                continue;
            }
        };
        found += 1;
        println!("root:        {root}");
        println!("repr:        {}", report.repr);
        println!("keys:        {}", report.keys);
        let walk = &report.stats;
        println!("nodes:       {} ({} bytes)", walk.nodes, walk.bytes);
        for (kind, count) in pds::ART_KIND_NAMES.iter().zip(walk.kinds.iter()) {
            println!("  {kind:<8} {count}");
        }
        let hist: Vec<String> = walk
            .depth_hist
            .iter()
            .enumerate()
            .map(|(depth, leaves)| format!("{depth}:{leaves}"))
            .collect();
        println!("depth:       {}", hist.join(" "));
        match &report.problem {
            None => println!("verdict:     consistent"),
            Some(p) => {
                println!("verdict:     INCONSISTENT — {p}");
                sound = false;
            }
        }
    }
    if found == 0 {
        println!("(no ART index roots)");
        sound &= root_filter.is_none();
    }
    region.close().map_err(damaged)?;
    Ok(sound)
}

/// Walks the image's two-level bitmap allocator offline and dumps
/// per-class and per-subtree occupancy. Consistency is judged against
/// the image's dirty flag: every page of a cleanly closed image must
/// also carry the seal its close wrote (`consistent(true)`), the one
/// `verify` checks; a crashed one only has to be structurally sound.
fn alloc(path: &str) -> Outcome {
    let bytes = std::fs::read(path).map_err(trouble)?;
    let report = nvmsim::inspect::inspect_llalloc_bytes(&bytes).map_err(trouble)?;
    print!("{report}");
    let (blocks, live) = report.subtrees.iter().fold((0, 0), |(b, y), t| {
        let allocated = t.allocated as u64;
        (b + allocated, y + allocated * t.block_size)
    });
    println!("allocated:    {blocks} blocks, {live} bytes");
    let state = if report.clean { "clean" } else { "dirty" };
    println!("image:        {state}");
    let consistent = report.consistent(report.clean);
    println!(
        "verdict:      {}",
        if consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    Ok(consistent)
}

/// Opens the image and dumps its allocator counters and named roots,
/// followed by the process-wide [`nvmsim::metrics`] delta the open/walk
/// itself generated (every nonzero counter) — a quick way to see what a
/// region open costs in instrumented events.
fn stats(path: &str) -> Outcome {
    let before = nvmsim::metrics::snapshot();
    let region = nvmsim::Region::open_file(path).map_err(damaged)?;
    let s = region.stats();
    println!("rid:         {}", region.rid());
    println!("size:        {} bytes", region.size());
    println!("live_bytes:  {}", s.live_bytes);
    println!("live_allocs: {}", s.live_allocs);
    println!("bump/end:    {}/{}", s.bump, s.end);
    match region.roots() {
        Ok(roots) if roots.is_empty() => println!("roots:       (none)"),
        Ok(roots) => println!("roots:       {}", roots.join(", ")),
        Err(e) => println!("roots:       error: {e}"),
    }
    let closed = region.close();
    let delta = nvmsim::metrics::snapshot().delta(&before);
    println!("metrics delta for this open:");
    let mut any = false;
    for (name, value) in delta.iter() {
        if value != 0 {
            println!("  {name}: {value}");
            any = true;
        }
    }
    if !any {
        println!("  (all zero)");
    }
    closed.map_err(damaged)?;
    Ok(true)
}

/// Runs the corruption walk over the image and prints the report.
fn verify(path: &str) -> Outcome {
    let report = nvmsim::verify::verify_file(path).map_err(trouble)?;
    println!("{report}");
    Ok(report.healthy())
}

/// Scrub pass: verify the image; when healthy, open it and rewrite the
/// inactive metadata slot so both checksummed snapshots are fresh (a
/// defense against slot-side rot accumulating while an image sits cold).
/// A damaged image is reported and left untouched — salvage is a
/// deliberate, separate step via `Region::open_file_salvage`.
fn scrub(path: &str) -> Outcome {
    let report = nvmsim::verify::verify_file(path).map_err(trouble)?;
    if !report.healthy() {
        println!("{report}");
        println!("scrub:      damaged image left untouched (use salvage)");
        return Ok(false);
    }
    nvmsim::Region::open_file(path)
        .and_then(|r| r.update_meta_slots().and(r.close()))
        .map_err(damaged)?;
    println!("scrub:      ok (metadata slot refreshed)");
    Ok(true)
}

/// Dumps an `NVPIHIS1` history file saved by a failed concurrent
/// matrix cell: the crash event it was checked against, the initial
/// membership, and one line per op record (thread, op, key, result,
/// linearization stamp, invoke/durable events). A record whose durable
/// event precedes the crash event is marked `durable` — those are the
/// ops the recovered image must explain.
fn history(path: &str) -> Outcome {
    let bytes = std::fs::read(path).map_err(trouble)?;
    let (h, crash_event) = nvmsim::dlin::decode_history(&bytes).map_err(damaged)?;
    println!("crash_event: {crash_event}");
    if h.initial.is_empty() {
        println!("initial:     (empty)");
    } else {
        let keys: Vec<String> = h.initial.iter().map(u64::to_string).collect();
        println!("initial:     {}", keys.join(", "));
    }
    println!("ops:         {}", h.ops.len());
    let mut ops: Vec<&nvmsim::OpRecord> = h.ops.iter().collect();
    ops.sort_by_key(|o| o.stamp);
    let mut durable = 0;
    for o in ops {
        let result = match o.result {
            None => "in-flight",
            Some(true) => "true",
            Some(false) => "false",
        };
        let when = if o.result.is_some() && o.durable_event < crash_event {
            durable += 1;
            "durable"
        } else if o.invoke_event >= crash_event {
            "post-crash"
        } else {
            "optional"
        };
        let durable_event = if o.durable_event == u64::MAX {
            "-".to_string()
        } else {
            o.durable_event.to_string()
        };
        println!(
            "  stamp {:>4}  t{} {:>8}({:<4}) -> {:<9} events {}..{}  {}",
            o.stamp,
            o.thread,
            o.op.name(),
            o.key,
            result,
            o.invoke_event,
            durable_event,
            when
        );
    }
    println!("durable:     {durable} ops the image must explain");
    Ok(true)
}

/// Triages a region-server data directory: every `tenant-*.nvr` image
/// goes through the full corruption walk, and a damaged one fails the
/// run. Other files are ignored.
fn server(dir: &str) -> Outcome {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| trouble(format!("{dir}: {e}")))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    let (mut images, mut damaged, mut unreadable) = (0, 0, 0);
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("tenant-") && name.ends_with(".nvr")) {
            continue;
        }
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                unreadable += 1;
                continue;
            }
        };
        images += 1;
        let report = nvmsim::verify::verify_bytes(&bytes);
        if report.healthy() {
            println!(
                "  {name}: image {} (rid {})",
                if report.clean { "clean" } else { "dirty" },
                report.rid.map_or("?".to_string(), |r| r.to_string())
            );
        } else {
            damaged += 1;
            println!("  {name}: DAMAGED");
            for line in format!("{report}").lines() {
                println!("    {line}");
            }
        }
    }
    println!("summary:     {images} images ({damaged} damaged)");
    if damaged > 0 {
        Ok(false)
    } else if unreadable > 0 {
        Err(trouble(format!("{unreadable} unreadable tenant image(s)")))
    } else {
        Ok(true)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd: fn(&str) -> Outcome = match args.first().map(String::as_str) {
        Some("verify") => verify,
        Some("scrub") => scrub,
        Some("stats") => stats,
        Some("alloc") => alloc,
        Some("history") => history,
        Some("server") => server,
        Some("index") => return index(&args[1..]),
        // A bare word that names no file is a mistyped (or retired)
        // subcommand, not an image path.
        Some(a) if !a.contains(['/', '.']) && !std::path::Path::new(a).exists() => return usage(),
        // No subcommand: every argument is an image to summarize.
        _ => return each_path(&args, summary),
    };
    each_path(&args[1..], cmd)
}
