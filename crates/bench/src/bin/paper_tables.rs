//! Regenerates the paper's tables and figures as text tables and
//! machine-readable JSON reports.
//!
//! ```text
//! paper_tables [EXPERIMENT ...] [--quick] [--markdown] [--n N] [--reps R]
//!              [--latency paper|off] [--json FILE]
//! paper_tables --validate FILE
//!
//! Experiments: fig12 pay256 tab1 fig13 fig14 regs fig15 rivbrk abl conc srv suggest
//!              alloc largeregion all
//! ```
//!
//! `--quick` picks the CI-sized scale and `--n`/`--reps`/`--words`
//! override it, in any order. `--json FILE` writes every row plus the
//! `nvmsim::metrics` delta captured around each experiment section
//! (schema in EXPERIMENTS.md); `--validate FILE` schema-checks such a
//! report and exits nonzero on any violation — CI's bench-smoke gate.

use bench::{
    experiments, json, render, render_json, render_markdown, Config, ReportConfig, Row, Section,
};
use nvmsim::latency::{self, LatencyModel};
use nvmsim::metrics;
use std::env;

/// What the sections run at: the harness configuration, FIG15's word
/// counts, and whether `--quick` chose them (the allocator sections keep
/// their own quick and full sizes).
struct Scale {
    cfg: Config,
    words: Vec<usize>,
    quick: bool,
}

/// A section's runner: the scale in, the rows and the schema-v3
/// `bytes_per_key` side table out.
type Runner = fn(&Scale) -> (Vec<Row>, Vec<(String, f64)>);

/// Every section, in report order: command-line id, report id, title, runner.
const SECTIONS: [(&str, &str, &str, Runner); 14] = [
    (
        "fig12",
        "FIG12",
        "Figure 12 — slowdown, non-transactional, single region",
        |s| (experiments::fig12(&s.cfg), Vec::new()),
    ),
    (
        "pay256",
        "PAY256",
        "Section 6.2 — 256 B payload sweep",
        |s| (experiments::pay256(&s.cfg), Vec::new()),
    ),
    (
        "tab1",
        "TAB1",
        "Table 1 — swizzling overhead vs number of traversals",
        |s| (experiments::tab1(&s.cfg), Vec::new()),
    ),
    (
        "fig13",
        "FIG13",
        "Figure 13 — slowdown, transactional, single NVRegion",
        |s| (experiments::fig13(&s.cfg), Vec::new()),
    ),
    (
        "fig14",
        "FIG14",
        "Figure 14 — slowdown, transactional, 10 NVRegions",
        |s| (experiments::fig14(&s.cfg, 10), Vec::new()),
    ),
    ("regs", "REGS", "Section 6.3 — region-count sweep", |s| {
        (experiments::region_sweep(&s.cfg), Vec::new())
    }),
    (
        "fig15",
        "FIG15",
        "Figure 15 — wordcount execution times",
        |s| (experiments::fig15(&s.cfg, &s.words), Vec::new()),
    ),
    (
        "rivbrk",
        "RIVBRK",
        "Section 6.2 — RIV dereference cost breakdown",
        |s| (experiments::riv_breakdown(&s.cfg), Vec::new()),
    ),
    ("abl", "ABL", "Ablations (DESIGN.md)", |s| {
        (experiments::ablations(&s.cfg), Vec::new())
    }),
    (
        "conc",
        "CONC",
        "Concurrent lock-free hashset throughput (EXPERIMENTS.md)",
        |s| (experiments::conc(&s.cfg), Vec::new()),
    ),
    (
        "srv",
        "SERVERTAIL",
        "Region-server tail latency — hot/cold tenant classes (EXPERIMENTS.md)",
        |s| (experiments::server_tail(&s.cfg), Vec::new()),
    ),
    (
        "suggest",
        "SUGGEST",
        "Suggestion-serving index — ART vs trie, bytes per key (EXPERIMENTS.md)",
        |s| experiments::suggest(&s.cfg),
    ),
    (
        "alloc",
        "ALLOCSCALE",
        "Allocator scaling — the lock-free bitmap allocator, 1-16 threads (EXPERIMENTS.md)",
        |s| (experiments::alloc_scale(s.quick), Vec::new()),
    ),
    (
        "largeregion",
        "LARGEREGION",
        "Large regions — growth, allocation and translation (EXPERIMENTS.md)",
        |s| (experiments::large_region(s.quick), Vec::new()),
    ),
];

fn usage() -> ! {
    let ids: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
    eprintln!(
        "usage: paper_tables [{}|all ...] \
         [--quick] [--markdown] [--n N] [--reps R] [--words N[,N...]] \
         [--latency paper|off] [--json FILE]\n       paper_tables --validate FILE",
        ids.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut quick = false;
    let mut n: Option<usize> = None;
    let mut reps: Option<usize> = None;
    let mut words: Option<Vec<usize>> = None;
    let mut markdown = false;
    let mut selected: Vec<&str> = Vec::new();
    let mut latency_model = LatencyModel::OFF;
    let mut json_out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--markdown" => markdown = true,
            "--n" => {
                i += 1;
                n = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--reps" => {
                i += 1;
                reps = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--words" => {
                i += 1;
                // Every entry a positive count, or the usage exit.
                let parsed = args.get(i).and_then(|s| {
                    s.split(',')
                        .map(|x| x.parse().ok().filter(|&w: &usize| w > 0))
                        .collect()
                });
                words = Some(parsed.unwrap_or_else(|| usage()));
            }
            "--latency" => {
                i += 1;
                latency_model = match args.get(i).map(String::as_str) {
                    Some("paper") => LatencyModel::PAPER,
                    Some("off") => LatencyModel::OFF,
                    _ => usage(),
                };
            }
            "--json" => {
                i += 1;
                json_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--validate" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| usage());
                validate(&path);
                return;
            }
            flag if flag.starts_with('-') => usage(),
            exp if exp == "all" || SECTIONS.iter().any(|s| s.0 == exp) => selected.push(exp),
            unknown => {
                eprintln!("error: unknown experiment id `{unknown}`");
                usage();
            }
        }
        i += 1;
    }
    // The scale first, then the overrides, whatever their position.
    let (mut cfg, default_words) = if quick {
        (Config::quick(), vec![100_000, 200_000])
    } else {
        (Config::paper(), vec![1_000_000, 2_000_000])
    };
    if let Some(n) = n {
        cfg.n = n;
        cfg.searches = n;
    }
    if let Some(reps) = reps {
        cfg.reps = reps;
    }
    let scale = Scale {
        cfg,
        words: words.unwrap_or(default_words),
        quick,
    };
    let all = selected.is_empty() || selected.contains(&"all");

    // Install the model before any timing, so every section runs under it.
    latency::set_model(latency_model);

    let mut sections: Vec<Section> = Vec::new();
    for (cli_id, id, title, run) in SECTIONS {
        if !(all || selected.contains(&cli_id)) {
            continue;
        }
        eprintln!("running {id} ({title})...");
        let before = metrics::snapshot();
        let (rows, bytes_per_key) = run(&scale);
        let metrics = metrics::snapshot().delta(&before);
        sections.push(Section {
            id: id.to_string(),
            title: title.to_string(),
            rows,
            bytes_per_key,
            metrics,
        });
    }

    for s in &sections {
        if markdown {
            println!("\n### {}\n", s.title);
            print!("{}", render_markdown(&s.rows));
        } else {
            println!("\n=== {} ===\n", s.title);
            print!("{}", render(&s.rows));
        }
    }

    if let Some(path) = json_out {
        let rc = ReportConfig {
            n: cfg.n,
            reps: cfg.reps,
            seed: cfg.seed,
            searches: cfg.searches,
            latency: latency_model,
            num_cpus: ReportConfig::detect_cpus(),
        };
        let text = render_json(&sections, &rc);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} ({} sections)", sections.len());
    }
}

fn validate(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match json::validate_report(&text) {
        Ok(s) => {
            println!(
                "{path}: OK — {} sections, {} rows, wbarrier_calls={}, \
                 clflush_calls={}, fat_lookups={}",
                s.sections, s.rows, s.wbarrier_calls, s.clflush_calls, s.fat_lookups
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
