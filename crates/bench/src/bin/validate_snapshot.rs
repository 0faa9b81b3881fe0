//! Schema-validates `BENCH_*.json` snapshot files (CI's bench-snapshot
//! smoke step). Exits non-zero with a diagnostic on the first invalid
//! file.
//!
//! Each file is checked against the declared schema of its own `bench`
//! ([`Snapshot::parse`]), and must hold at least one row.

use innet_bench::Snapshot;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_snapshot <BENCH_*.json>...");
        std::process::exit(2);
    }
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                std::process::exit(1);
            }
        };
        match Snapshot::parse(&text) {
            Ok(snap) if snap.rows().is_empty() => {
                eprintln!("{path}: valid but has no rows");
                std::process::exit(1);
            }
            Ok(snap) => println!(
                "{path}: ok ({} rows, bench '{}')",
                snap.rows().len(),
                snap.bench()
            ),
            Err(e) => {
                eprintln!("{path}: schema violation: {e}");
                std::process::exit(1);
            }
        }
    }
}
