//! `pibench`: the pinned, oracle-checked benchmark of `nvm-pi`.
//!
//! `pibench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as its last line, the result object the driver
//! reads. Without `--workload` it runs all five (one process each, so
//! peak RSS is per workload); `--selfcheck` runs that set twice and
//! compares the two against the bounds in `BENCHMARK.json`.

mod gen;
mod json;
mod layers;
mod machine;
mod manifest;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use manifest::{END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Ctx;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    scratch: PathBuf,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        out: None,
        scratch: PathBuf::from("benchmark/out"),
        selfcheck: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                // Regions and op streams are sized for at most a minute.
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--scratch" => a.scratch = PathBuf::from(value("a directory")?),
            "--selfcheck" => a.selfcheck = true,
            "--manifest" => a.manifest = true,
            // `--trace 0|1` (the driver) or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(a)
}

/// The run's scratch directory, `pibench-<pid>` under `--scratch`;
/// removed when dropped, so also when a workload fails or panics.
struct Scratch(PathBuf);

impl Scratch {
    fn create(parent: &Path) -> Result<Scratch, String> {
        let dir = parent.join(format!("pibench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-round values to a hundredth (of a ns): the record is committed as
/// the baseline, and the digits beyond are noise.
fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 100.0).round() / 100.0).collect()
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload in this process and prints its result line.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let machine = machine::pin().map_err(|e| format!("refusing to run unpinned: {e}"))?;
    let model = sut::latency_off();
    let header = machine.header(args.seed, args.seconds, model);
    println!("pibench {name} {}", header.render());

    let scratch = Scratch::create(&args.scratch)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: 1,
        scratch: scratch.0.clone(),
        probes: if args.trace {
            layers::probes(1)?
        } else {
            Default::default()
        },
    };
    let mut out = workloads::run(name, &ctx)?;
    out.e2e.insert("peak_rss_mib", machine::peak_rss_mib()?);

    for line in &out.notes {
        println!("  {line}");
    }
    let mut metrics = Vec::new();
    if args.trace {
        let values = layers::assemble(&ctx, &out)?;
        for m in manifest::per_layer() {
            let v = values[&m.name];
            println!("  {:<44} {:>14.4} {}", m.name, v, m.unit);
            metrics.push((m.name.clone(), metric_json(v, m.unit)));
        }
        for w in &out.waterfalls {
            w.print();
        }
        if let Some(tracer) = &out.tracer {
            let path = args.scratch.join(format!("trace_{name}.json"));
            std::fs::write(&path, tracer.to_json().render())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "  {} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
    } else {
        for m in &END_TO_END {
            let v = *out
                .e2e
                .get(m.name)
                .ok_or(format!("{name} did not report {}", m.name))?;
            println!("  {:<44} {:>14.4} {}", m.name, v, m.unit);
            metrics.push((m.name.to_string(), metric_json(v, m.unit)));
        }
        // The tail has no bound (a per-layer metric); shown for the reader.
        if let Some(v) = out.layer.get("req_p99_us") {
            println!("  {:<44} {:>14.4} us (no bound)", "req_p99_us", v);
        }
    }
    for f in &out.tally.first {
        println!("  FAILED: {f}");
    }
    let correct = out.tally.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::str(name)),
            ("header", header),
            ("result", result.clone()),
            (
                "rounds",
                Json::Obj(
                    out.rounds
                        .iter()
                        .map(|(cell, r)| (cell.clone(), Json::nums(&rounded(r))))
                        .collect(),
                ),
            ),
            (
                "waterfalls",
                Json::Arr(out.waterfalls.iter().map(|w| w.to_json()).collect()),
            ),
        ]);
        std::fs::write(path, record.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    drop(scratch);
    println!("{}", result.render());
    Ok(correct)
}

/// Runs every workload, one child process each; returns their records.
fn run_set(args: &Args, seed: u64, dir: &Path) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let out = dir.join(format!("{}-{seed}.json", w.name));
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--scratch")
            .arg(&args.scratch)
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name));
        }
        let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        records.push(Json::parse(&text)?);
    }
    Ok(records)
}

fn set_failed(records: &[Json]) -> bool {
    records.iter().any(|r| {
        r.get("result")
            .and_then(|x| x.get("correct"))
            .and_then(Json::as_bool)
            != Some(true)
    })
}

fn metric_of(record: &Json, name: &str) -> Option<f64> {
    record
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Adds first quartile, median and third quartile next to each cell's
/// per-round values.
fn with_quartiles(record: &Json) -> Json {
    let Json::Obj(pairs) = record else {
        return record.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                if k != "rounds" {
                    return (k.clone(), v.clone());
                }
                let cells = v.entries().iter().map(|(cell, r)| {
                    let vals: Vec<f64> = r.items().iter().filter_map(Json::as_f64).collect();
                    let (q1, q3) = stats::quartiles(&vals);
                    let summary = Json::obj([
                        ("values", r.clone()),
                        ("q1", Json::Num(q1)),
                        ("median", Json::Num(stats::median(&vals))),
                        ("q3", Json::Num(q3)),
                    ]);
                    (cell.clone(), summary)
                });
                (k.clone(), Json::Obj(cells.collect()))
            })
            .collect(),
    )
}

/// All five workloads; with `--selfcheck`, twice, compared, and written
/// to `benchmark/baseline/seed.json`.
fn all(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::create(&args.scratch)?;
    let first = run_set(args, args.seed, &scratch.0)?;
    let mut ok = !set_failed(&first);
    let mut doc = vec![(
        "sets".to_string(),
        Json::Arr(vec![Json::Arr(first.iter().map(with_quartiles).collect())]),
    )];
    if args.selfcheck {
        let second = run_set(args, args.seed + 1, &scratch.0)?;
        ok &= !set_failed(&second);
        let mut rows = Vec::new();
        println!(
            "selfcheck: second set (seed {}) against the first (seed {})",
            args.seed + 1,
            args.seed
        );
        for (a, b) in first.iter().zip(&second) {
            let w = a.get("workload").and_then(Json::as_str).unwrap_or("?");
            for m in &END_TO_END {
                let (Some(x), Some(y)) = (metric_of(a, m.name), metric_of(b, m.name)) else {
                    return Err(format!("{w} did not report {}", m.name));
                };
                let worse = if m.better == "lower" {
                    y / x - 1.0
                } else {
                    x / y - 1.0
                };
                let agree = worse <= m.bound;
                ok &= agree;
                println!(
                    "  {w:<12} {:<22} {x:>14.4} {y:>14.4} {:>+7.2} % (bound {:.0} %) {}",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if agree { "ok" } else { "DISAGREE" }
                );
                rows.push(Json::obj([
                    ("workload", Json::str(w)),
                    ("metric", Json::str(m.name)),
                    ("first", Json::Num(x)),
                    ("second", Json::Num(y)),
                    ("worse_by", Json::Num(worse)),
                    ("bound", Json::Num(m.bound)),
                    ("agree", Json::Bool(agree)),
                ]));
            }
        }
        if let Json::Arr(sets) = &mut doc[0].1 {
            sets.push(Json::Arr(second.iter().map(with_quartiles).collect()));
        }
        doc.push(("selfcheck".to_string(), Json::Arr(rows)));
    }
    let rendered = Json::Obj(doc).render();
    let target = match (&args.out, args.selfcheck) {
        (Some(p), _) => Some(p.clone()),
        (None, true) => Some(PathBuf::from("benchmark/baseline/seed.json")),
        (None, false) => None,
    };
    if let Some(path) = target {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, rendered + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("written to {}", path.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            println!("{}", manifest::benchmark_json().render());
            Ok(true)
        } else if let Some(w) = args.workload.clone() {
            single(&args, &w)
        } else {
            all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pibench: {e}");
            ExitCode::from(2)
        }
    }
}
