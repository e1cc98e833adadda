//! Regenerates the paper's tables and figures as text tables and
//! machine-readable JSON reports.
//!
//! ```text
//! paper_tables [EXPERIMENT ...] [--quick] [--markdown] [--n N] [--reps R]
//!              [--latency paper|off] [--json FILE]
//! paper_tables --validate FILE
//!
//! Experiments: fig12 pay256 tab1 fig13 fig14 regs fig15 rivbrk abl repl conc srv suggest all
//! ```
//!
//! `--json FILE` writes every row plus the `nvmsim::metrics` delta
//! captured around each experiment section (schema in EXPERIMENTS.md);
//! `--validate FILE` schema-checks such a report and exits nonzero on any
//! violation — CI's bench-smoke gate.

use bench::{
    experiments, json, render, render_json, render_markdown, Config, ReportConfig, Row, Section,
};
use nvmsim::latency::{self, LatencyModel};
use nvmsim::metrics;
use std::env;

/// A section's runner: the configuration and FIG15's word counts in, the
/// rows and the schema-v3 `bytes_per_key` side table out.
type Runner = fn(&Config, &[usize]) -> (Vec<Row>, Vec<(String, f64)>);

/// Every section, in report order: command-line id, report id, title, runner.
const SECTIONS: [(&str, &str, &str, Runner); 13] = [
    (
        "fig12",
        "FIG12",
        "Figure 12 — slowdown, non-transactional, single region",
        |cfg, _| (experiments::fig12(cfg), Vec::new()),
    ),
    (
        "pay256",
        "PAY256",
        "Section 6.2 — 256 B payload sweep",
        |cfg, _| (experiments::pay256(cfg), Vec::new()),
    ),
    (
        "tab1",
        "TAB1",
        "Table 1 — swizzling overhead vs number of traversals",
        |cfg, _| (experiments::tab1(cfg), Vec::new()),
    ),
    (
        "fig13",
        "FIG13",
        "Figure 13 — slowdown, transactional, single NVRegion",
        |cfg, _| (experiments::fig13(cfg), Vec::new()),
    ),
    (
        "fig14",
        "FIG14",
        "Figure 14 — slowdown, transactional, 10 NVRegions",
        |cfg, _| (experiments::fig14(cfg, 10), Vec::new()),
    ),
    (
        "regs",
        "REGS",
        "Section 6.3 — region-count sweep",
        |cfg, _| (experiments::region_sweep(cfg), Vec::new()),
    ),
    (
        "fig15",
        "FIG15",
        "Figure 15 — wordcount execution times",
        |cfg, words| (experiments::fig15(cfg, words), Vec::new()),
    ),
    (
        "rivbrk",
        "RIVBRK",
        "Section 6.2 — RIV dereference cost breakdown",
        |cfg, _| (experiments::riv_breakdown(cfg), Vec::new()),
    ),
    ("abl", "ABL", "Ablations (DESIGN.md)", |cfg, _| {
        (experiments::ablations(cfg), Vec::new())
    }),
    (
        "repl",
        "REPLLAG",
        "Replication lag — backpressure policies (EXPERIMENTS.md)",
        |cfg, _| (experiments::repl_lag(cfg), Vec::new()),
    ),
    (
        "conc",
        "CONC",
        "Concurrent lock-free hashset throughput (EXPERIMENTS.md)",
        |cfg, _| (experiments::conc(cfg), Vec::new()),
    ),
    (
        "srv",
        "SERVERTAIL",
        "Region-server tail latency — hot/cold tenant classes (EXPERIMENTS.md)",
        |cfg, _| (experiments::server_tail(cfg), Vec::new()),
    ),
    (
        "suggest",
        "SUGGEST",
        "Suggestion-serving index — ART vs trie, bytes per key (EXPERIMENTS.md)",
        |cfg, _| experiments::suggest(cfg),
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
    let mut cfg = Config::paper();
    let mut markdown = false;
    let mut selected: Vec<&str> = Vec::new();
    let mut word_sizes: Vec<usize> = vec![1_000_000, 2_000_000];
    let mut latency_model = LatencyModel::OFF;
    let mut json_out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                cfg = Config::quick();
                word_sizes = vec![100_000, 200_000];
            }
            "--markdown" => markdown = true,
            "--n" => {
                i += 1;
                cfg.n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.searches = cfg.n;
            }
            "--reps" => {
                i += 1;
                cfg.reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--words" => {
                i += 1;
                word_sizes = args
                    .get(i)
                    .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
                    .unwrap_or_else(|| usage());
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
        let (rows, bytes_per_key) = run(&cfg, &word_sizes);
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
            // paper_tables has no hardware-dependent pass/fail gates.
            gates_relaxed: false,
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
