//! Shared reporting helpers for the figure benches.
//!
//! Every bench prints its series to stdout in the paper's row format and
//! mirrors it to `target/innet-reports/<name>.txt`, so a full
//! `cargo bench` leaves a directory of reproduced tables behind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

/// A tiny line-oriented report that tees to stdout and a file.
pub struct Report {
    name: &'static str,
    body: String,
}

impl Report {
    /// Starts a report for a figure/table name like `"fig05"`.
    pub fn new(name: &'static str, title: &str) -> Report {
        let mut r = Report {
            name,
            body: String::new(),
        };
        r.line(&format!("# {title}"));
        r
    }

    /// Appends (and prints) one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        let _ = writeln!(self.body, "{s}");
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Writes the report file under `target/innet-reports/`.
    pub fn finish(self) {
        let dir = match std::env::var("CARGO_TARGET_DIR") {
            Ok(t) => PathBuf::from(t),
            // Anchor at the workspace target dir regardless of bench CWD.
            Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"),
        }
        .join("innet-reports");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.txt", self.name));
            if std::fs::write(&path, self.body).is_ok() {
                eprintln!("[report written to {}]", path.display());
            }
        }
    }
}

/// True when the harness was invoked by `cargo bench` in quick mode
/// (`--quick` or the `INNET_BENCH_QUICK` env var): benches shrink their
/// parameter sweeps so CI stays fast.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("INNET_BENCH_QUICK").is_ok()
}

// ---------------------------------------------------------------------------
// Benchmark snapshots: the recorded perf trajectory.
// ---------------------------------------------------------------------------

/// Version stamp of the snapshot schema; bump on breaking changes.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// What one snapshot column holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A non-empty string (corpus, scenario).
    Label,
    /// A label from a closed set (the engine or verification `mode`).
    OneOf(&'static [&'static str]),
    /// An integer no smaller than the given minimum, printed bare.
    Int(u64),
    /// A finite non-negative number, printed with three decimals.
    Num,
}

/// A cross-column invariant every row of a bench must satisfy.
enum Rule {
    /// The first column never exceeds the second (e.g. p50 <= p99).
    AtMost(&'static str, &'static str),
    /// The first column is zero whenever the second is (no downtime
    /// without migrations or re-homes).
    ZeroWithout(&'static str, &'static str),
}

/// One bench's declared columns, in on-disk order, and its invariants.
struct Schema {
    bench: &'static str,
    columns: &'static [(&'static str, Kind)],
    rules: &'static [Rule],
}

/// Packet-rate rows: a corpus, an engine mode, a worker count, and the
/// observed rates.
const THROUGHPUT: &[(&str, Kind)] = &[
    ("corpus", Kind::Label),
    ("mode", Kind::OneOf(&["interpreted", "compiled"])),
    ("workers", Kind::Int(1)),
    ("pps", Kind::Num),
    ("gbps", Kind::Num),
];

/// Every bench that writes a `BENCH_<bench>.json` snapshot.
const SCHEMAS: &[Schema] = &[
    Schema {
        bench: "parallel_scaling",
        columns: THROUGHPUT,
        rules: &[],
    },
    Schema {
        bench: "fig12_middlebox",
        columns: THROUGHPUT,
        rules: &[],
    },
    // Per-request admission latency (ns) of one verification mode over
    // a request corpus; `summary_hits` counts chain summaries served from
    // the fleet-wide cache (zero in whole-graph mode by construction).
    Schema {
        bench: "admission",
        columns: &[
            ("corpus", Kind::Label),
            ("mode", Kind::OneOf(&["whole-graph", "compositional"])),
            ("requests", Kind::Int(1)),
            ("mean_ns", Kind::Num),
            ("p50_ns", Kind::Num),
            ("p99_ns", Kind::Num),
            ("summary_hits", Kind::Int(0)),
        ],
        rules: &[Rule::AtMost("p50_ns", "p99_ns")],
    },
    // Placement latency and live-migration downtime (ns) of one tenant
    // mix over a generated capacitated topology.
    Schema {
        bench: "fleet",
        columns: &[
            ("scenario", Kind::Label),
            ("nodes", Kind::Int(1)),
            ("platforms", Kind::Int(1)),
            ("placements", Kind::Int(1)),
            ("placement_p50_ns", Kind::Num),
            ("placement_p99_ns", Kind::Num),
            ("migrations", Kind::Int(0)),
            ("downtime_p50_ns", Kind::Num),
            ("downtime_p99_ns", Kind::Num),
        ],
        rules: &[
            Rule::AtMost("platforms", "nodes"),
            Rule::AtMost("placement_p50_ns", "placement_p99_ns"),
            Rule::AtMost("downtime_p50_ns", "downtime_p99_ns"),
            Rule::ZeroWithout("downtime_p99_ns", "migrations"),
        ],
    },
    // One scripted fleet incident driven through the `FleetDriver`:
    // re-home downtime (ns) and fabric link tail-drops.
    Schema {
        bench: "scenarios",
        columns: &[
            ("scenario", Kind::Label),
            ("tenants", Kind::Int(1)),
            ("rehomed", Kind::Int(0)),
            ("rehome_p50_ns", Kind::Num),
            ("rehome_p99_ns", Kind::Num),
            ("link_drops", Kind::Int(0)),
        ],
        rules: &[
            Rule::AtMost("rehomed", "tenants"),
            Rule::AtMost("rehome_p50_ns", "rehome_p99_ns"),
            Rule::ZeroWithout("rehome_p99_ns", "rehomed"),
        ],
    },
];

impl Schema {
    fn of(bench: &str) -> Option<&'static Schema> {
        SCHEMAS.iter().find(|s| s.bench == bench)
    }

    fn index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|(name, _)| *name == column)
    }

    /// Parses one row object: exactly the declared columns, each of its
    /// kind, then the bench's invariants.
    fn parse_row(&self, v: &json::Value) -> Result<Vec<Cell>, String> {
        let obj = v.as_obj().ok_or("must be an object")?;
        let names: Vec<&str> = self.columns.iter().map(|(name, _)| *name).collect();
        let row = self
            .columns
            .iter()
            .zip(json::fields(obj, &names)?)
            .map(|(&(name, kind), v)| Cell::parse(name, kind, v))
            .collect::<Result<Vec<_>, _>>()?;
        let get = |column| &row[self.index(column).expect("rules name declared columns")];
        for rule in self.rules {
            match *rule {
                Rule::AtMost(a, b) if get(a).as_f64() > get(b).as_f64() => {
                    return Err(format!("{a} exceeds {b}"));
                }
                Rule::ZeroWithout(a, b) if get(b).as_f64() == 0.0 && get(a).as_f64() != 0.0 => {
                    return Err(format!("{a} reported without {b}"));
                }
                _ => {}
            }
        }
        Ok(row)
    }
}

/// One value in a snapshot row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label column (corpus, mode, scenario).
    Label(String),
    /// A count column.
    Int(u64),
    /// A measured quantity.
    Num(f64),
}

impl Cell {
    fn parse(name: &str, kind: Kind, v: &json::Value) -> Result<Cell, String> {
        match kind {
            Kind::Label => match v.as_str() {
                Some(s) if !s.is_empty() => Ok(Cell::Label(s.to_string())),
                _ => Err(format!("{name} must be a non-empty string")),
            },
            Kind::OneOf(allowed) => match v.as_str() {
                Some(s) if allowed.contains(&s) => Ok(Cell::Label(s.to_string())),
                _ => Err(format!("{name} must be one of {allowed:?}")),
            },
            Kind::Int(min) => match v.as_num() {
                Some(x) if x.fract() == 0.0 && x >= min as f64 && x <= u64::MAX as f64 => {
                    Ok(Cell::Int(x as u64))
                }
                _ => Err(format!("{name} must be an integer >= {min}")),
            },
            Kind::Num => match v.as_num() {
                Some(x) if x.is_finite() && x >= 0.0 => Ok(Cell::Num(x)),
                _ => Err(format!("{name} must be finite and non-negative")),
            },
        }
    }

    fn fits(&self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (Cell::Label(_), Kind::Label | Kind::OneOf(_))
                | (Cell::Int(_), Kind::Int(_))
                | (Cell::Num(_), Kind::Num)
        )
    }

    fn as_f64(&self) -> f64 {
        match self {
            Cell::Label(_) => f64::NAN,
            Cell::Int(n) => *n as f64,
            Cell::Num(x) => *x,
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Label(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Label(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Num(x)
    }
}

/// A benchmark snapshot: the machine-readable record a bench run leaves
/// behind (`BENCH_<bench>.json`), committed to the repository so the
/// perf trajectory across changes stays in history.
///
/// Each bench has one declared column table; rows are flat objects in
/// that column order, integers print bare and other numbers with three
/// decimals. The container has no `serde_json`, so the format is
/// hand-rolled: [`Snapshot::to_json`] emits it and [`Snapshot::parse`]
/// validates it against the schema of the file's own `bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    bench: &'static str,
    rows: Vec<Vec<Cell>>,
}

impl Snapshot {
    /// An empty snapshot for bench `name`.
    ///
    /// # Panics
    ///
    /// If no snapshot schema is declared for `name`.
    pub fn new(name: &str) -> Snapshot {
        let schema = Schema::of(name).unwrap_or_else(|| panic!("no snapshot schema for '{name}'"));
        Snapshot {
            bench: schema.bench,
            rows: Vec::new(),
        }
    }

    /// Which bench produced this snapshot.
    pub fn bench(&self) -> &'static str {
        self.bench
    }

    /// The measured rows, each in declared column order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    fn schema(&self) -> &'static Schema {
        Schema::of(self.bench).expect("bench checked at construction")
    }

    /// Appends one measured row, cells in declared column order. Values
    /// are checked when the file is parsed, not here.
    ///
    /// # Panics
    ///
    /// If the row does not have one cell of the declared kind per column.
    pub fn row<const N: usize>(&mut self, cells: [Cell; N]) {
        let columns = self.schema().columns;
        assert!(
            N == columns.len() && cells.iter().zip(columns).all(|(c, &(_, k))| c.fits(k)),
            "row {cells:?} does not fit the '{}' columns",
            self.bench
        );
        self.rows.push(cells.into());
    }

    /// Reads the number in `column` of the first row whose cells equal
    /// every `(column, value)` pair in `key`; `None` when no row matches
    /// or `column` is not a number column.
    pub fn num(&self, key: &[(&str, Cell)], column: &str) -> Option<f64> {
        let schema = self.schema();
        let at = schema.index(column)?;
        let row = self.rows.iter().find(|r| {
            key.iter()
                .all(|(name, want)| schema.index(name).is_some_and(|i| r[i] == *want))
        })?;
        match row[at] {
            Cell::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Serializes to the snapshot JSON format.
    pub fn to_json(&self) -> String {
        let columns = self.schema().columns;
        let mut out = format!(
            "{{\n  \"schema_version\": {SNAPSHOT_SCHEMA_VERSION},\n  \"bench\": \"{}\",\n  \"rows\": [",
            self.bench
        );
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            for (j, ((name, _), cell)) in columns.iter().zip(row).enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = match cell {
                    Cell::Label(s) => write!(out, "{sep}\"{name}\": \"{}\"", esc(s)),
                    Cell::Int(n) => write!(out, "{sep}\"{name}\": {n}"),
                    Cell::Num(x) if x.is_finite() => write!(out, "{sep}\"{name}\": {x:.3}"),
                    Cell::Num(_) => write!(out, "{sep}\"{name}\": 0.000"),
                };
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses snapshot JSON and validates it against the schema of its
    /// `bench`: a known bench, exactly the declared columns per row (none
    /// missing, unknown or repeated), each of its kind, and the bench's
    /// invariants.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("top level must be an object")?;
        let top = json::fields(obj, &["schema_version", "bench", "rows"])?;
        let version = top[0].as_num().ok_or("schema_version must be a number")?;
        if version != SNAPSHOT_SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema_version {version}"));
        }
        let bench = top[1].as_str().ok_or("bench must be a string")?;
        let schema = Schema::of(bench).ok_or(format!("unknown bench '{bench}'"))?;
        let rows = top[2]
            .as_arr()
            .ok_or("rows must be an array")?
            .iter()
            .enumerate()
            .map(|(i, rv)| schema.parse_row(rv).map_err(|e| format!("row {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Snapshot {
            bench: schema.bench,
            rows,
        })
    }

    /// Writes `BENCH_<bench>.json` into the snapshot directory
    /// (`INNET_BENCH_SNAPSHOT_DIR`, or the workspace root so committed
    /// snapshots live beside the code they measure). Returns the path on
    /// success.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = match std::env::var("INNET_BENCH_SNAPSHOT_DIR") {
            Ok(d) => PathBuf::from(d),
            Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        };
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                eprintln!("[snapshot written to {}]", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("[snapshot write failed: {e}]");
                None
            }
        }
    }
}

/// Escapes a label for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal JSON reader — just enough structure to validate snapshots
/// without `serde_json` (the container is offline; see the vendor note in
/// the workspace manifest).
mod json {
    #![allow(dead_code)] // general-purpose reader; snapshots use a subset

    /// A parsed JSON value.
    #[derive(Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Looks up exactly the named fields of an object, in `names` order:
    /// a missing, repeated or unlisted key is an error.
    pub fn fields<'a>(
        obj: &'a [(String, Value)],
        names: &[&str],
    ) -> Result<Vec<&'a Value>, String> {
        for (i, (key, _)) in obj.iter().enumerate() {
            if !names.contains(&key.as_str()) {
                return Err(format!("unknown field '{key}'"));
            }
            if obj[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate field '{key}'"));
            }
        }
        names
            .iter()
            .map(|&name| {
                obj.iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .ok_or(format!("missing field '{name}'"))
            })
            .collect()
    }

    /// Parses one JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut obj = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(obj));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    obj.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(obj));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(arr));
                }
                loop {
                    arr.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(arr));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape")
                                .and_then(|h| {
                                    std::str::from_utf8(h).map_err(|_| "bad \\u escape")
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 sequences from the raw bytes.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = *pos - 1;
                        let mut end = *pos;
                        while end < b.len() && (b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&b[start..end])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(s);
                        *pos = end;
                    }
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    // One small file per column table, in the exact on-disk format.
    const THROUGHPUT: &str = r#"{
  "schema_version": 1,
  "bench": "parallel_scaling",
  "rows": [
    {"corpus": "consolidated", "mode": "interpreted", "workers": 1, "pps": 1234567.891, "gbps": 0.632},
    {"corpus": "consolidated", "mode": "compiled", "workers": 1, "pps": 2500000.000, "gbps": 1.280},
    {"corpus": "fig12-firewall", "mode": "compiled", "workers": 4, "pps": 9000000.500, "gbps": 105.984}
  ]
}
"#;
    const ADMISSION: &str = r#"{
  "schema_version": 1,
  "bench": "admission",
  "rows": [
    {"corpus": "mixed-stock-novel", "mode": "whole-graph", "requests": 100000, "mean_ns": 81234.500, "p50_ns": 74000.000, "p99_ns": 190000.000, "summary_hits": 0},
    {"corpus": "mixed-stock-novel", "mode": "compositional", "requests": 100000, "mean_ns": 31234.500, "p50_ns": 28000.000, "p99_ns": 90000.000, "summary_hits": 99000}
  ]
}
"#;
    const FLEET: &str = r#"{
  "schema_version": 1,
  "bench": "fleet",
  "rows": [
    {"scenario": "mixed-stock-novel", "nodes": 1001, "platforms": 400, "placements": 64, "placement_p50_ns": 45000.000, "placement_p99_ns": 210000.000, "migrations": 8, "downtime_p50_ns": 70000000.000, "downtime_p99_ns": 75000000.000},
    {"scenario": "stock", "nodes": 1001, "platforms": 400, "placements": 32, "placement_p50_ns": 20000.000, "placement_p99_ns": 90000.000, "migrations": 0, "downtime_p50_ns": 0.000, "downtime_p99_ns": 0.000}
  ]
}
"#;
    const SCENARIOS: &str = r#"{
  "schema_version": 1,
  "bench": "scenarios",
  "rows": [
    {"scenario": "kill-pop", "tenants": 40, "rehomed": 38, "rehome_p50_ns": 50000000.000, "rehome_p99_ns": 52000000.000, "link_drops": 120},
    {"scenario": "flash-crowd", "tenants": 40, "rehomed": 0, "rehome_p50_ns": 0.000, "rehome_p99_ns": 0.000, "link_drops": 4096}
  ]
}
"#;

    /// Parses `text`, asserts it round-trips byte for byte, and returns it.
    fn roundtrip(text: &str) -> Snapshot {
        let snap = Snapshot::parse(text).unwrap();
        assert_eq!(snap.to_json(), text);
        snap
    }

    /// Asserts that each `(from, to)` edit applies to `text` and makes
    /// the parser reject the result.
    fn assert_edits_rejected(text: &str, edits: &[(&str, &str)]) {
        for (from, to) in edits {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "edit {from:?} applies");
            assert!(Snapshot::parse(&bad).is_err(), "accepted: {bad}");
        }
    }

    /// Re-labels snapshot JSON as bench `bench`'s.
    fn retag(text: &str, bench: &str) -> String {
        let old = Snapshot::parse(text).unwrap().bench();
        text.replace(
            &format!("\"bench\": \"{old}\""),
            &format!("\"bench\": \"{bench}\""),
        )
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let mut built = Snapshot::new("parallel_scaling");
        for (corpus, mode, workers, pps, gbps) in [
            ("consolidated", "interpreted", 1u64, 1_234_567.891, 0.632),
            ("consolidated", "compiled", 1, 2_500_000.0, 1.28),
            ("fig12-firewall", "compiled", 4, 9_000_000.5, 105.984),
        ] {
            built.row([
                corpus.into(),
                mode.into(),
                workers.into(),
                pps.into(),
                gbps.into(),
            ]);
        }
        assert_eq!(built.to_json(), THROUGHPUT);

        let parsed = roundtrip(THROUGHPUT);
        assert_eq!(parsed.bench(), "parallel_scaling");
        assert_eq!(parsed.rows().len(), 3);
        assert_eq!(parsed.rows()[1][1], Cell::from("compiled"));
        assert_eq!(parsed.rows()[2][2], Cell::Int(4));
        let key = [
            ("corpus", Cell::from("consolidated")),
            ("mode", Cell::from("interpreted")),
        ];
        assert!((parsed.num(&key, "pps").unwrap() - 1_234_567.891).abs() < 0.01);
        // The getter reads number columns of matching rows only.
        assert_eq!(parsed.num(&[("corpus", "nope".into())], "pps"), None);
        assert_eq!(parsed.num(&key, "workers"), None);
    }

    #[test]
    fn parser_rejects_schema_violations() {
        assert_edits_rejected(
            THROUGHPUT,
            &[
                ("interpreted", "jit"),
                ("\"workers\": 1", "\"workers\": 0"),
                ("\"workers\": 1", "\"workers\": 1.5"),
                ("\"corpus\": \"consolidated\"", "\"corpus\": \"\""),
                ("\"gbps\": 0.632", "\"gbps\": -0.632"),
                ("\"schema_version\": 1", "\"schema_version\": 99"),
                // Missing, unknown and repeated keys.
                ("\"workers\": 4, ", ""),
                ("\"gbps\": 0.632}", "\"gbps\": 0.632, \"note\": \"x\"}"),
                (
                    "\"pps\": 2500000.000,",
                    "\"pps\": 2500000.000, \"pps\": 1.000,",
                ),
                ("\"rows\"", "\"extra\": 1, \"rows\""),
            ],
        );
        assert!(Snapshot::parse("pps go brr").is_err());
    }

    #[test]
    fn parser_applies_only_the_files_own_bench_schema() {
        let files = [THROUGHPUT, ADMISSION, FLEET, SCENARIOS];
        for a in files {
            for b in files.into_iter().filter(|&b| b != a) {
                let other = Snapshot::parse(b).unwrap().bench();
                assert!(Snapshot::parse(&retag(a, other)).is_err());
            }
        }
        // The two throughput benches share one column table.
        assert!(Snapshot::parse(&retag(THROUGHPUT, "fig12_middlebox")).is_ok());
        // A bench with no declared schema.
        assert!(Snapshot::parse(&retag(THROUGHPUT, "warp_drive")).is_err());
        assert!(Snapshot::parse(&retag(THROUGHPUT, "")).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn row_of_the_wrong_shape_panics() {
        Snapshot::new("scenarios").row(["kill-pop".into(), 4.0.into()]);
    }

    #[test]
    fn json_reader_handles_scalars() {
        let v = super::json::parse(r#"{"a": true, "b": false, "c": null, "d": [1, "x"]}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let f = super::json::fields(obj, &["a", "b", "c", "d"]).unwrap();
        assert_eq!(f[0].as_bool(), Some(true));
        assert_eq!(f[1].as_bool(), Some(false));
        assert!(f[3].as_arr().unwrap()[1].as_str().is_some());
        assert!(super::json::fields(obj, &["a", "b", "c", "d", "e"]).is_err());
    }

    #[test]
    fn admission_snapshot_roundtrips_through_parser() {
        let parsed = roundtrip(ADMISSION);
        assert_eq!(parsed.bench(), "admission");
        assert_eq!(parsed.rows().len(), 2);
        assert_eq!(parsed.rows()[0][1], Cell::from("whole-graph"));
        assert_eq!(parsed.rows()[1][6], Cell::Int(99_000));
        let mean = parsed.num(&[("mode", "compositional".into())], "mean_ns");
        assert!((mean.unwrap() - 31_234.5).abs() < 0.01);
    }

    #[test]
    fn admission_parser_rejects_schema_violations() {
        assert_edits_rejected(
            ADMISSION,
            &[
                ("whole-graph", "vibes"),
                ("\"requests\": 100000, ", ""),
                ("\"requests\": 100000", "\"requests\": 0"),
                // Inverted percentiles.
                ("\"p99_ns\": 90000.000", "\"p99_ns\": 9.000"),
            ],
        );
    }

    #[test]
    fn fleet_snapshot_roundtrips_through_parser() {
        let parsed = roundtrip(FLEET);
        assert_eq!(parsed.bench(), "fleet");
        assert_eq!(parsed.rows().len(), 2);
        assert_eq!(parsed.rows()[0][1], Cell::Int(1_001));
        assert_eq!(parsed.rows()[0][6], Cell::Int(8));
        let key = [("scenario", Cell::from("mixed-stock-novel"))];
        assert!((parsed.num(&key, "downtime_p50_ns").unwrap() - 70_000_000.0).abs() < 0.01);
        assert_eq!(parsed.rows()[1][6], Cell::Int(0));
    }

    #[test]
    fn fleet_parser_rejects_schema_violations() {
        assert_edits_rejected(
            FLEET,
            &[
                // Missing field.
                ("\"nodes\": 1001, ", ""),
                // More platforms than nodes.
                ("\"platforms\": 400", "\"platforms\": 2000"),
                // Inverted placement percentiles.
                (
                    "\"placement_p99_ns\": 210000.000",
                    "\"placement_p99_ns\": 1.000",
                ),
                // Inverted downtime percentiles.
                (
                    "\"downtime_p99_ns\": 75000000.000",
                    "\"downtime_p99_ns\": 1.000",
                ),
                // Downtime without migrations.
                ("\"migrations\": 8", "\"migrations\": 0"),
            ],
        );
    }

    #[test]
    fn scenario_snapshot_roundtrips_through_parser() {
        let parsed = roundtrip(SCENARIOS);
        assert_eq!(parsed.bench(), "scenarios");
        assert_eq!(parsed.rows().len(), 2);
        assert_eq!(parsed.rows()[0][2], Cell::Int(38));
        let key = [("scenario", Cell::from("kill-pop"))];
        assert!((parsed.num(&key, "rehome_p50_ns").unwrap() - 50_000_000.0).abs() < 0.01);
        assert_eq!(parsed.rows()[1][5], Cell::Int(4_096));
    }

    #[test]
    fn scenario_parser_rejects_schema_violations() {
        assert_edits_rejected(
            SCENARIOS,
            &[
                // Missing field.
                ("\"tenants\": 40, ", ""),
                // More re-homes than tenants.
                ("\"rehomed\": 38", "\"rehomed\": 41"),
                // Inverted percentiles.
                (
                    "\"rehome_p99_ns\": 52000000.000",
                    "\"rehome_p99_ns\": 1.000",
                ),
                // Downtime without re-homes.
                ("\"rehomed\": 38", "\"rehomed\": 0"),
            ],
        );
    }

    #[test]
    fn non_finite_rates_serialize_as_zero() {
        let mut s = Snapshot::new("parallel_scaling");
        s.row([
            "c".into(),
            "compiled".into(),
            1u64.into(),
            f64::NAN.into(),
            f64::INFINITY.into(),
        ]);
        let parsed = Snapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed.rows()[0][3], Cell::Num(0.0));
        assert_eq!(parsed.rows()[0][4], Cell::Num(0.0));
    }

    #[test]
    fn committed_snapshots_roundtrip_byte_for_byte() {
        for (bench, text) in [
            (
                "parallel_scaling",
                include_str!("../../../BENCH_parallel_scaling.json"),
            ),
            (
                "fig12_middlebox",
                include_str!("../../../BENCH_fig12_middlebox.json"),
            ),
            ("admission", include_str!("../../../BENCH_admission.json")),
            ("fleet", include_str!("../../../BENCH_fleet.json")),
            ("scenarios", include_str!("../../../BENCH_scenarios.json")),
        ] {
            let snap = Snapshot::parse(text).unwrap_or_else(|e| panic!("BENCH_{bench}.json: {e}"));
            assert_eq!(snap.bench(), bench);
            assert!(!snap.rows().is_empty(), "BENCH_{bench}.json has rows");
            assert_eq!(snap.to_json(), text, "BENCH_{bench}.json round-trips");
        }
    }
}
