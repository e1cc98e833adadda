//! Result rows and table rendering for the experiment runners, plus the
//! machine-readable report format (`BENCH_paper_tables.json`).

use nvmsim::metrics::Snapshot;
use nvmsim::LatencyModel;
use std::fmt::Write as _;

/// One measured data point of an experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (e.g. `FIG12`).
    pub experiment: &'static str,
    /// Structure or workload name.
    pub structure: String,
    /// Operation (`traverse`, `search`, `run`, ...).
    pub op: String,
    /// Representation name.
    pub repr: String,
    /// Average nanoseconds for the operation batch.
    pub nanos: f64,
    /// Slowdown relative to the normal-pointer baseline (1.0 = parity),
    /// when a baseline applies.
    pub slowdown: Option<f64>,
    /// Free-form annotation (parameters such as payload size or k).
    pub note: String,
}

impl Row {
    /// Creates a row; slowdown is computed later by [`normalize`].
    pub fn new(
        experiment: &'static str,
        structure: impl Into<String>,
        op: impl Into<String>,
        repr: impl Into<String>,
        nanos: f64,
        note: impl Into<String>,
    ) -> Row {
        Row {
            experiment,
            structure: structure.into(),
            op: op.into(),
            repr: repr.into(),
            nanos,
            slowdown: None,
            note: note.into(),
        }
    }
}

/// Fills in `slowdown` for every row by dividing by the matching
/// `baseline_repr` row (same experiment, structure, op, note).
pub fn normalize(rows: &mut [Row], baseline_repr: &str) {
    let baselines: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.repr == baseline_repr)
        .map(|r| (group_key(r), r.nanos))
        .collect();
    for row in rows.iter_mut() {
        let key = group_key(row);
        if let Some((_, base)) = baselines.iter().find(|(k, _)| *k == key) {
            if *base > 0.0 {
                row.slowdown = Some(row.nanos / base);
            }
        }
    }
}

fn group_key(r: &Row) -> String {
    format!("{}|{}|{}|{}", r.experiment, r.structure, r.op, r.note)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let headers = [
        "experiment",
        "structure",
        "op",
        "repr",
        "time",
        "slowdown",
        "note",
    ];
    let mut cells: Vec<[String; 7]> = Vec::with_capacity(rows.len());
    for r in rows {
        cells.push([
            r.experiment.to_string(),
            r.structure.clone(),
            r.op.clone(),
            r.repr.clone(),
            fmt_ns(r.nanos),
            r.slowdown.map_or("-".to_string(), |s| format!("{s:.2}x")),
            r.note.clone(),
        ]);
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let write_row = |out: &mut String, cols: &[String]| {
        for (i, c) in cols.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
        }
        out.push('\n');
    };
    write_row(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &cells {
        write_row(&mut out, row);
    }
    out
}

/// Version of the JSON report schema emitted by [`render_json`]. Bump on
/// any breaking change to field names or nesting; see EXPERIMENTS.md.
///
/// v2: `config` additionally records the host parallelism (`num_cpus`),
/// required for interpreting scaling and tail-latency numbers across
/// machines.
///
/// v3: every section carries a `bytes_per_key` object mapping each
/// measured representation to its live index bytes per distinct key
/// (empty for pure-latency sections). The SUGGEST experiment is the
/// first producer; the field is how space overheads of the pointer
/// representations are compared across report generations.
///
/// v4: `config` no longer records whether a hardware-dependent pass/fail
/// gate was waived for the run. The one such gate (alloc scaling's 4x at
/// 8 threads) went with the runner that had it, so the flag could only
/// ever read `false`.
pub const SCHEMA_VERSION: u64 = 4;

/// One experiment section of a report: its rows plus the process-wide
/// metrics delta captured around the section's timed run.
#[derive(Debug, Clone)]
pub struct Section {
    /// Stable machine id (e.g. `FIG12`), matching [`Row::experiment`].
    pub id: String,
    /// Human title as printed in the text tables.
    pub title: String,
    /// Measured rows.
    pub rows: Vec<Row>,
    /// `metrics::snapshot()` delta over the section's run.
    pub metrics: Snapshot,
    /// Live index bytes per distinct key, per representation (schema v3;
    /// empty for sections that measure only time).
    pub bytes_per_key: Vec<(String, f64)>,
}

/// The run configuration recorded in a JSON report.
#[derive(Debug, Clone, Copy)]
pub struct ReportConfig {
    /// Elements per structure.
    pub n: usize,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Random searches per search measurement.
    pub searches: usize,
    /// Latency model installed for the run.
    pub latency: LatencyModel,
    /// Host hardware parallelism (`std::thread::available_parallelism`)
    /// at run time.
    pub num_cpus: usize,
}

impl ReportConfig {
    /// The host's hardware parallelism, for [`ReportConfig::num_cpus`].
    pub fn detect_cpus() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Infinity; clamp to 0 (cannot occur for sane runs).
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders a full report as schema-versioned JSON (see EXPERIMENTS.md for
/// the schema). Every counter of every section is emitted — zeros
/// included — so reports from different PRs diff field-for-field.
pub fn render_json(sections: &[Section], cfg: &ReportConfig) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    out.push_str("  \"tool\": \"paper_tables\",\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"n\": {}, \"reps\": {}, \"seed\": {}, \"searches\": {}, \
         \"num_cpus\": {}, \
         \"latency_model\": {{\"wbarrier_ns\": {}, \"clflush_ns\": {}}}}},",
        cfg.n,
        cfg.reps,
        cfg.seed,
        cfg.searches,
        cfg.num_cpus,
        cfg.latency.wbarrier_ns,
        cfg.latency.clflush_ns
    );
    out.push_str("  \"sections\": [\n");
    for (si, s) in sections.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"id\": \"{}\",", json_escape(&s.id));
        let _ = writeln!(out, "      \"title\": \"{}\",", json_escape(&s.title));
        out.push_str("      \"rows\": [\n");
        for (ri, r) in s.rows.iter().enumerate() {
            let slowdown = r
                .slowdown
                .map_or("null".to_string(), |v| json_f64(v).to_string());
            let _ = write!(
                out,
                "        {{\"experiment\": \"{}\", \"structure\": \"{}\", \"op\": \"{}\", \
                 \"repr\": \"{}\", \"nanos\": {}, \"slowdown\": {}, \"note\": \"{}\"}}",
                json_escape(r.experiment),
                json_escape(&r.structure),
                json_escape(&r.op),
                json_escape(&r.repr),
                json_f64(r.nanos),
                slowdown,
                json_escape(&r.note)
            );
            out.push_str(if ri + 1 < s.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        out.push_str("      \"bytes_per_key\": {");
        for (i, (repr, v)) in s.bytes_per_key.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", json_escape(repr), json_f64(*v));
        }
        out.push_str("},\n");
        out.push_str("      \"metrics\": {");
        let mut first = true;
        for (name, value) in s.metrics.iter() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push_str("}\n");
        out.push_str(if si + 1 < sections.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders rows as a GitHub-flavored markdown table.
pub fn render_markdown(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("| experiment | structure | op | repr | time | slowdown | note |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            r.experiment,
            r.structure,
            r.op,
            r.repr,
            fmt_ns(r.nanos),
            r.slowdown.map_or("-".to_string(), |s| format!("{s:.2}x")),
            r.note
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Row> {
        vec![
            Row::new("T", "list", "traverse", "normal", 100.0, "p=32"),
            Row::new("T", "list", "traverse", "riv", 125.0, "p=32"),
            Row::new("T", "btree", "traverse", "normal", 200.0, "p=32"),
            Row::new("T", "btree", "traverse", "fat", 700.0, "p=32"),
        ]
    }

    #[test]
    fn normalize_computes_ratios_per_group() {
        let mut rows = sample();
        normalize(&mut rows, "normal");
        assert_eq!(rows[0].slowdown, Some(1.0));
        assert_eq!(rows[1].slowdown, Some(1.25));
        assert_eq!(rows[3].slowdown, Some(3.5));
    }

    #[test]
    fn normalize_leaves_unmatched_rows_none() {
        let mut rows = vec![Row::new("T", "list", "traverse", "riv", 10.0, "")];
        normalize(&mut rows, "normal");
        assert_eq!(rows[0].slowdown, None);
    }

    #[test]
    fn render_contains_all_reprs() {
        let mut rows = sample();
        normalize(&mut rows, "normal");
        let s = render(&rows);
        assert!(s.contains("riv") && s.contains("fat") && s.contains("3.50x"));
        let md = render_markdown(&rows);
        assert!(md.starts_with("| experiment"));
        assert!(md.contains("| 3.50x |"));
    }

    #[test]
    fn time_units_format_sensibly() {
        assert_eq!(super::fmt_ns(500.0), "500 ns");
        assert_eq!(super::fmt_ns(1500.0), "1.50 us");
        assert_eq!(super::fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(super::fmt_ns(3_200_000_000.0), "3.200 s");
    }
}
