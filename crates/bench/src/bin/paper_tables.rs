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

use bench::{experiments, json, render, render_json, render_markdown, Config, ReportConfig, Row};
use nvmsim::latency::{self, LatencyModel};
use nvmsim::metrics;
use std::env;

fn usage() -> ! {
    eprintln!(
        "usage: paper_tables [fig12|pay256|tab1|fig13|fig14|regs|fig15|rivbrk|abl|repl|conc|srv|suggest|all ...] \
         [--quick] [--markdown] [--n N] [--reps R] [--words N[,N...]] \
         [--latency paper|off] [--json FILE]\n       paper_tables --validate FILE"
    );
    std::process::exit(2);
}

struct Section {
    id: &'static str,
    title: &'static str,
    rows: Vec<Row>,
    bytes_per_key: Vec<(String, f64)>,
    metrics: metrics::Snapshot,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut cfg = Config::paper();
    let mut markdown = false;
    let mut selected: Vec<String> = Vec::new();
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
            exp => selected.push(exp.to_string()),
        }
        i += 1;
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let all = selected.iter().any(|s| s == "all");
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    // Install the model before any timing, so every section runs under it.
    latency::set_model(latency_model);

    let mut sections: Vec<Section> = Vec::new();
    fn run_section(
        sections: &mut Vec<Section>,
        cfg: &Config,
        id: &'static str,
        title: &'static str,
        f: &dyn Fn(&Config) -> Vec<Row>,
    ) {
        eprintln!("running {id} ({title})...");
        let before = metrics::snapshot();
        let rows = f(cfg);
        let delta = metrics::snapshot().delta(&before);
        sections.push(Section {
            id,
            title,
            rows,
            bytes_per_key: Vec::new(),
            metrics: delta,
        });
    }
    let run =
        |sections: &mut Vec<Section>,
         id: &'static str,
         title: &'static str,
         f: &dyn Fn(&Config) -> Vec<Row>| { run_section(sections, &cfg, id, title, f) };
    if want("fig12") {
        run(
            &mut sections,
            "FIG12",
            "Figure 12 — slowdown, non-transactional, single region",
            &|cfg| experiments::fig12(cfg),
        );
    }
    if want("pay256") {
        run(
            &mut sections,
            "PAY256",
            "Section 6.2 — 256 B payload sweep",
            &|cfg| experiments::pay256(cfg),
        );
    }
    if want("tab1") {
        run(
            &mut sections,
            "TAB1",
            "Table 1 — swizzling overhead vs number of traversals",
            &|cfg| experiments::tab1(cfg),
        );
    }
    if want("fig13") {
        run(
            &mut sections,
            "FIG13",
            "Figure 13 — slowdown, transactional, single NVRegion",
            &|cfg| experiments::fig13(cfg),
        );
    }
    if want("fig14") {
        run(
            &mut sections,
            "FIG14",
            "Figure 14 — slowdown, transactional, 10 NVRegions",
            &|cfg| experiments::fig14(cfg, 10),
        );
    }
    if want("regs") {
        run(
            &mut sections,
            "REGS",
            "Section 6.3 — region-count sweep",
            &|cfg| experiments::region_sweep(cfg),
        );
    }
    if want("fig15") {
        let sizes = word_sizes.clone();
        eprintln!("running FIG15 (wordcount, {sizes:?} words)...");
        let before = metrics::snapshot();
        let rows = experiments::fig15(&cfg, &sizes);
        let delta = metrics::snapshot().delta(&before);
        sections.push(Section {
            id: "FIG15",
            title: "Figure 15 — wordcount execution times",
            rows,
            bytes_per_key: Vec::new(),
            metrics: delta,
        });
    }
    if want("rivbrk") {
        run(
            &mut sections,
            "RIVBRK",
            "Section 6.2 — RIV dereference cost breakdown",
            &|cfg| experiments::riv_breakdown(cfg),
        );
    }
    if want("abl") {
        run(&mut sections, "ABL", "Ablations (DESIGN.md)", &|cfg| {
            experiments::ablations(cfg)
        });
    }
    if want("repl") {
        run(
            &mut sections,
            "REPLLAG",
            "Replication lag — backpressure policies (EXPERIMENTS.md)",
            &|cfg| experiments::repl_lag(cfg),
        );
    }
    if want("conc") {
        run(
            &mut sections,
            "CONC",
            "Concurrent lock-free hashset throughput (EXPERIMENTS.md)",
            &|cfg| experiments::conc(cfg),
        );
    }
    if want("srv") {
        run(
            &mut sections,
            "SERVERTAIL",
            "Region-server tail latency — hot/cold tenant classes (EXPERIMENTS.md)",
            &|cfg| experiments::server_tail(cfg),
        );
    }
    if want("suggest") {
        eprintln!(
            "running SUGGEST (suggestion-serving index, {} keys)...",
            cfg.n * 10
        );
        let before = metrics::snapshot();
        let (rows, bytes_per_key) = experiments::suggest(&cfg);
        let delta = metrics::snapshot().delta(&before);
        sections.push(Section {
            id: "SUGGEST",
            title: "Suggestion-serving index — ART vs trie, bytes per key (EXPERIMENTS.md)",
            rows,
            bytes_per_key,
            metrics: delta,
        });
    }
    if sections.is_empty() {
        usage();
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
        let report_sections: Vec<bench::Section> = sections
            .iter()
            .map(|s| bench::Section {
                id: s.id.to_string(),
                title: s.title.to_string(),
                rows: s.rows.clone(),
                bytes_per_key: s.bytes_per_key.clone(),
                metrics: s.metrics,
            })
            .collect();
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
        let text = render_json(&report_sections, &rc);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} ({} sections)", report_sections.len());
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
