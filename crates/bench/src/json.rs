//! A minimal JSON reader for validating `BENCH_*.json` reports.
//!
//! The workspace is built offline with no serde; this parser supports
//! exactly the JSON subset [`crate::report::render_json`] emits (objects,
//! arrays, strings with basic escapes, numbers, booleans, null) and is
//! used by `paper_tables --validate` and the CI bench-smoke job.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; report values fit exactly).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// A human-readable message with the failing byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Summary of a validated report (for the `--validate` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// Number of sections.
    pub sections: usize,
    /// Total rows across sections.
    pub rows: usize,
    /// Summed `wbarrier_calls` across sections.
    pub wbarrier_calls: u64,
    /// Summed `clflush_calls` across sections.
    pub clflush_calls: u64,
    /// Summed `fat_lookups` across sections.
    pub fat_lookups: u64,
}

fn sum_metric(sections: &[Json], name: &str) -> u64 {
    sections
        .iter()
        .filter_map(|s| s.get("metrics")?.get(name)?.as_u64())
        .sum()
}

/// Schema-validates a `BENCH_paper_tables.json` document: version check,
/// non-empty sections and rows, well-formed row fields, and — when the
/// recorded latency model is nonzero — nonzero barrier/flush and
/// fat-lookup counters (the CI bench-smoke gate).
///
/// # Errors
///
/// The first violated constraint, as a human-readable message.
pub fn validate_report(text: &str) -> Result<ReportSummary, String> {
    let doc = parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != crate::report::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {}",
            crate::report::SCHEMA_VERSION
        ));
    }
    let config = doc.get("config").ok_or("missing config")?;
    for key in ["n", "reps", "seed", "searches"] {
        config
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing config.{key}"))?;
    }
    // Schema v2: the host context a cross-machine comparison needs.
    let num_cpus = config
        .get("num_cpus")
        .and_then(Json::as_u64)
        .ok_or("missing config.num_cpus")?;
    if num_cpus == 0 {
        return Err("config.num_cpus must be >= 1".to_string());
    }
    let model = config.get("latency_model").ok_or("missing latency_model")?;
    let wbarrier_ns = model
        .get("wbarrier_ns")
        .and_then(Json::as_u64)
        .ok_or("missing latency_model.wbarrier_ns")?;
    let clflush_ns = model
        .get("clflush_ns")
        .and_then(Json::as_u64)
        .ok_or("missing latency_model.clflush_ns")?;
    let sections = doc
        .get("sections")
        .and_then(Json::as_arr)
        .ok_or("missing sections")?;
    if sections.is_empty() {
        return Err("sections is empty".to_string());
    }
    let mut rows = 0usize;
    for s in sections {
        let id = s
            .get("id")
            .and_then(Json::as_str)
            .ok_or("section missing id")?;
        let srows = s
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("section {id} missing rows"))?;
        if srows.is_empty() {
            return Err(format!("section {id} has no rows"));
        }
        for r in srows {
            for key in ["experiment", "structure", "op", "repr"] {
                r.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("section {id}: row missing {key}"))?;
            }
            let nanos = r
                .get("nanos")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("section {id}: row missing nanos"))?;
            if !nanos.is_finite() || nanos < 0.0 {
                return Err(format!("section {id}: bad nanos {nanos}"));
            }
        }
        s.get("metrics")
            .ok_or_else(|| format!("section {id} missing metrics"))?;
        // Schema v3: bytes_per_key is mandatory (possibly empty), and
        // every recorded value must be a sane per-key byte count.
        let bpk = s
            .get("bytes_per_key")
            .ok_or_else(|| format!("section {id} missing bytes_per_key"))?;
        let Json::Obj(members) = bpk else {
            return Err(format!("section {id}: bytes_per_key must be an object"));
        };
        for (repr, v) in members {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("section {id}: bytes_per_key.{repr} not a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("section {id}: bad bytes_per_key.{repr} {v}"));
            }
        }
        rows += srows.len();
    }
    let summary = ReportSummary {
        sections: sections.len(),
        rows,
        wbarrier_calls: sum_metric(sections, "wbarrier_calls"),
        clflush_calls: sum_metric(sections, "clflush_calls"),
        fat_lookups: sum_metric(sections, "fat_lookups"),
    };
    if wbarrier_ns > 0 || clflush_ns > 0 {
        if summary.wbarrier_calls == 0 {
            return Err("latency model installed but wbarrier_calls is 0".to_string());
        }
        if summary.clflush_calls == 0 {
            return Err("latency model installed but clflush_calls is 0".to_string());
        }
        if summary.fat_lookups == 0 {
            return Err("latency model installed but fat_lookups is 0".to_string());
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_json, ReportConfig, Row, Section, SCHEMA_VERSION};
    use nvmsim::metrics::{snapshot, Counter};
    use nvmsim::LatencyModel;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5, "x\n\"y\"", true, null], "b": {}}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(doc.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert!(parse("").is_err());
    }

    fn sample_report(latency: LatencyModel) -> String {
        // Generate real counter traffic so the metrics delta is nonzero.
        let before = snapshot();
        nvmsim::latency::wbarrier();
        nvmsim::latency::clflush_range(0x1000, 128);
        nvmsim::metrics::incr(Counter::FatLookups);
        let metrics = snapshot().delta(&before);
        let mut rows = vec![
            Row::new("FIG12", "list", "traverse", "normal", 100.0, "p=32"),
            Row::new("FIG12", "list", "traverse", "riv", 125.0, "p=32"),
        ];
        crate::report::normalize(&mut rows, "normal");
        let sections = vec![Section {
            id: "FIG12".to_string(),
            title: "Figure 12 — has \"quotes\"".to_string(),
            rows,
            metrics,
            bytes_per_key: vec![("riv".to_string(), 48.25)],
        }];
        let cfg = ReportConfig {
            n: 2000,
            reps: 5,
            seed: 42,
            searches: 2000,
            latency,
            num_cpus: ReportConfig::detect_cpus(),
        };
        render_json(&sections, &cfg)
    }

    #[test]
    fn report_json_round_trips() {
        let text = sample_report(LatencyModel::OFF);
        let doc = parse(&text).expect("render_json output must parse");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let sections = doc.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            sections[0].get("title").and_then(Json::as_str),
            Some("Figure 12 — has \"quotes\"")
        );
        let rows = sections[0].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].get("slowdown").and_then(Json::as_f64), Some(1.25));
        assert_eq!(rows[1].get("nanos").and_then(Json::as_f64), Some(125.0));
        // The real traffic generated in sample_report must be visible.
        let m = sections[0].get("metrics").unwrap();
        assert!(m.get("wbarrier_calls").unwrap().as_u64().unwrap() >= 1);
        assert!(m.get("fat_lookups").unwrap().as_u64().unwrap() >= 1);
        let bpk = sections[0].get("bytes_per_key").unwrap();
        assert_eq!(bpk.get("riv").and_then(Json::as_f64), Some(48.25));
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let good = sample_report(LatencyModel::PAPER);
        let summary = validate_report(&good).expect("valid report");
        assert_eq!(summary.sections, 1);
        assert_eq!(summary.rows, 2);
        assert!(summary.wbarrier_calls >= 1);
        assert!(summary.fat_lookups >= 1);

        assert!(validate_report("{}").is_err(), "missing everything");
        let version = format!("\"schema_version\": {SCHEMA_VERSION}");
        // (text of the good report, replaced by, what the error names)
        let cases = [
            (
                version.as_str(),
                "\"schema_version\": 99",
                "schema_version 99",
            ),
            // v4 dropped the gate-waiver flag from `config`: v3 is refused.
            (
                version.as_str(),
                "\"schema_version\": 3",
                "schema_version 3",
            ),
            // v2: host context is mandatory.
            ("\"num_cpus\"", "\"cpus\"", "num_cpus"),
            // v3: per-section bytes_per_key is mandatory and typed.
            ("\"bytes_per_key\"", "\"bytes\"", "bytes_per_key"),
            ("\"riv\": 48.25", "\"riv\": -1", "bytes_per_key.riv"),
        ];
        for (from, to, names) in cases {
            assert!(good.contains(from), "{from} must occur in the report");
            let err = validate_report(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(names), "{to}: {err}");
        }
        // Zeroing the fat-lookup counter must fail the PAPER-model gate.
        let pos = good.find("\"fat_lookups\": ").expect("counter present");
        let end = good[pos..].find(',').unwrap() + pos;
        let zeroed = format!("{}\"fat_lookups\": 0{}", &good[..pos], &good[end..]);
        assert!(validate_report(&zeroed).is_err());
    }
}
