//! `perfbench`: the end-to-end and per-layer benchmark of the innet data
//! plane, admission pipeline and fleet.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload. `--trace 1`
//! repeats that workload's end-to-end loop with spans around the calls
//! into each layer (the difference is the tracing overhead), then measures
//! every layer of every workload, each on the inputs of a workload that
//! uses it, and runs the correctness oracles. The last line of standard
//! output is one JSON object; the line before it is the full record with
//! provenance and spreads. The exit code is non-zero when any
//! correctness check failed. See `README.md` beside this file.

mod admission;
mod dp;
mod fleet;
mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stats::{spread, Metric, Report, RunOut};

/// One benchmark workload: set-up, the timed loop, the traced loop and
/// the correctness checks that run outside the timed loop.
pub trait Workload {
    const NAME: &'static str;
    type State;

    /// Builds the inputs and the system under test from the seed.
    fn setup(seed: u64) -> Self::State;
    /// The timed end-to-end loop, for at least one rep and `budget`.
    fn measure(st: &mut Self::State, budget: Duration, out: &mut RunOut);
    /// The same loop with spans around each layer; returns the layer
    /// metrics and the per-operation sum (ns) of the layers that lie on
    /// the operation's path.
    fn trace(st: &mut Self::State, budget: Duration, out: &mut RunOut) -> (Vec<Metric>, f64);
    /// Output checks outside the timed loop; with `traced`, also the
    /// reference oracles. Workloads that check every rep as it ends keep
    /// the default.
    fn check(_st: &mut Self::State, _traced: bool, _out: &mut RunOut) {}
    /// Adds the workload's own named figures, derived from the per-rep
    /// end-to-end values, once its loop has ended.
    fn named(out: &mut RunOut);
}

const WORKLOADS: [&str; 4] = [
    dp::Consolidated::NAME,
    dp::NatChurn::NAME,
    admission::Mixed::NAME,
    fleet::Failover::NAME,
];

/// Set-ups per run; `setup_s` is their median. They are spread over the
/// timed loop, so that the median sees the host as the operations do
/// rather than as it was in one instant.
const SETUPS: u32 = 15;

/// Budget of each other workload's layer sweep in a traced run.
const SWEEP: Duration = Duration::from_secs(2);

/// Per-layer metrics, as every `--trace 1` run reports them. Layer
/// figures that read the same on every run are recorded but not listed:
/// the stages a request class never reaches (symbolic for stock and
/// novel chains, the fast path for Fig 4 requests, every stage for
/// verdict-cache resubmissions) and the re-home downtime tail, which is
/// the fixed failover detection delay.
const LAYERS: &[(&str, &str)] = &[
    ("packet.copy_ns", "ns"),
    ("click.plan_ns", "ns"),
    ("click.io_floor_ns", "ns"),
    ("click.logic_ns", "ns"),
    ("click.compile_ms", "ms"),
    ("click.interp_ns", "ns"),
    ("platform.shard_hash_ns", "ns"),
    ("platform.parallel_overhead_ns", "ns"),
    ("platform.run_call_us", "us"),
    ("platform.driver_ns_per_pkt", "ns"),
    ("policy.parse_us", "us"),
    ("controller.stage_lint_us", "us"),
    ("controller.stage_fastpath_us", "us"),
    ("controller.stage_symbolic_us", "us"),
    ("controller.stage_placement_us", "us"),
    ("controller.model_compile_us", "us"),
    ("controller.check_us", "us"),
    ("controller.unattributed_us", "us"),
    ("controller.kill_us", "us"),
    ("controller.rank_us", "us"),
    ("controller.verdict_hit_ratio", "ratio"),
    ("controller.summary_hit_ratio", "ratio"),
    ("controller.lint_memo_hit_ratio", "ratio"),
    ("analysis.fastpath_decided_ratio", "ratio"),
    ("symnet.bailouts", "count"),
    ("admission.stock_p50_us", "us"),
    ("admission.novel_p50_us", "us"),
    ("admission.fig4_p50_us", "us"),
    ("admission.spoof_p50_us", "us"),
    ("admission.resubmit_p50_us", "us"),
    ("controller.stage_lint_us.stock", "us"),
    ("controller.stage_lint_us.novel", "us"),
    ("controller.stage_lint_us.fig4", "us"),
    ("controller.stage_lint_us.spoof", "us"),
    ("controller.stage_fastpath_us.stock", "us"),
    ("controller.stage_fastpath_us.novel", "us"),
    ("controller.stage_fastpath_us.spoof", "us"),
    ("controller.stage_symbolic_us.fig4", "us"),
    ("controller.stage_symbolic_us.spoof", "us"),
    ("controller.stage_placement_us.stock", "us"),
    ("controller.stage_placement_us.novel", "us"),
    ("controller.stage_placement_us.fig4", "us"),
    ("controller.stage_placement_us.spoof", "us"),
    ("topology.paths_from_us", "us"),
    ("traffic.gravity_ms", "ms"),
    ("fleet.fabric_forwards", "count"),
    ("fleet.link_drops", "count"),
    ("fleet.reroutes", "count"),
    ("fleet.dead_drops", "count"),
    ("fleet.migrations", "count"),
    ("fleet.rehomes", "count"),
    ("fleet.unaccounted", "count"),
    ("fleet.migration_downtime_tail_ms", "ms"),
    ("fleet.loss_frac", "share"),
    ("dp-consolidated.unattributed_ns", "ns"),
    ("dp-nat-churn.unattributed_ns", "ns"),
    ("admission-mixed.unattributed_ns", "ns"),
    ("fleet-failover.unattributed_ns", "ns"),
];

/// CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Everything one workload produced in this process.
struct Outcome {
    name: &'static str,
    /// The untraced end-to-end loop.
    plain: RunOut,
    /// The traced loop (traced runs only).
    traced: Option<RunOut>,
}

fn run_plain<W: Workload>(seed: u64, budget: Duration, setups_n: u32) -> Outcome {
    let mut out = RunOut::default();
    let mut st = timed_loop::<W>(seed, budget, setups_n, &mut out);
    W::check(&mut st, false, &mut out);
    Outcome {
        name: W::NAME,
        plain: out,
        traced: None,
    }
}

/// Half the budget untraced, half traced, then the oracles. The layer
/// metrics land in the traced `RunOut`, with this workload's
/// `unattributed_ns` (untraced time per operation minus the layers on
/// its path).
fn run_traced<W: Workload>(seed: u64, budget: Duration, setups_n: u32) -> Outcome {
    let mut plain = RunOut::default();
    let mut st = timed_loop::<W>(seed, budget / 2, setups_n, &mut plain);
    let mut traced = RunOut::default();
    let (mut layers, layer_sum_ns) = W::trace(&mut st, budget / 2, &mut traced);
    W::named(&mut traced);
    W::check(&mut st, true, &mut traced);
    let per_op_ns = 1e9 / spread(&plain.ops_per_s).median;
    layers.push(Metric::one(
        format!("{}.unattributed_ns", W::NAME),
        "ns",
        per_op_ns - layer_sum_ns,
    ));
    traced.layers = layers;
    Outcome {
        name: W::NAME,
        plain,
        traced: Some(traced),
    }
}

/// Sets up, then runs the timed loop in `setups_n` slices of the budget
/// with one more timed set-up (thrown away) between slices. The loop
/// keeps the first set-up's state throughout.
fn timed_loop<W: Workload>(
    seed: u64,
    budget: Duration,
    setups_n: u32,
    out: &mut RunOut,
) -> W::State {
    let deadline = Instant::now() + budget;
    let slices = setups_n.max(1);
    let mut st = timed_setup::<W>(seed, out);
    for i in 0..slices {
        let left = deadline.saturating_duration_since(Instant::now());
        if i > 0 {
            if left.is_zero() {
                break;
            }
            drop(timed_setup::<W>(seed, out));
        }
        W::measure(&mut st, left.min(budget / slices), out);
    }
    W::named(out);
    st
}

fn timed_setup<W: Workload>(seed: u64, out: &mut RunOut) -> W::State {
    let t = Instant::now();
    let st = W::setup(seed);
    out.setup_s.push(t.elapsed().as_secs_f64());
    st
}

fn dispatch(name: &str, seed: u64, budget: Duration, traced: bool, setups_n: u32) -> Outcome {
    macro_rules! go {
        ($w:ty) => {
            if traced {
                run_traced::<$w>(seed, budget, setups_n)
            } else {
                run_plain::<$w>(seed, budget, setups_n)
            }
        };
    }
    match name {
        dp::Consolidated::NAME => go!(dp::Consolidated),
        dp::NatChurn::NAME => go!(dp::NatChurn),
        admission::Mixed::NAME => go!(admission::Mixed),
        fleet::Failover::NAME => go!(fleet::Failover),
        _ => unreachable!("workload names are validated in parse_args"),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// A JSON number in Rust's shortest round-trip form; `null` when not
/// finite (the result line leaves such a metric out as a failure).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn spread_json(m: &Metric) -> String {
    let s = spread(&m.values);
    object(&[
        ("unit".into(), string(m.unit)),
        ("value".into(), num(m.value())),
        ("median".into(), num(s.median)),
        ("q1".into(), num(s.q1)),
        ("q3".into(), num(s.q3)),
        ("min".into(), num(s.min)),
        ("max".into(), num(s.max)),
        ("n".into(), m.values.len().to_string()),
    ])
}

fn metrics_json(ms: &[Metric]) -> String {
    let fields: Vec<(String, String)> = ms
        .iter()
        .map(|m| (m.name.clone(), spread_json(m)))
        .collect();
    object(&fields)
}

/// The end-to-end metrics every `--trace 0` run reports: the rep the
/// host slowed least (see [`Report`]), and the median set-up. Peak
/// memory and the failed share are recorded beside them.
fn end_to_end(out: &RunOut) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", out.setup_s.clone()),
        Metric::new("ops_per_s", "1/s", out.ops_per_s.clone()).reported(Report::Highest),
        Metric::new("latency_p50_us", "us", out.lat_p50_us.clone()).reported(Report::Lowest),
        Metric::new("latency_tail_us", "us", out.lat_tail_us.clone()).reported(Report::Lowest),
    ]
}

fn failed_frac(out: &RunOut) -> f64 {
    out.failed as f64 / out.attempted.max(1) as f64
}

struct Provenance {
    nproc: usize,
    commit: String,
    rustc: String,
}

fn provenance() -> Provenance {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // Only a checkout that is itself a git repository names its commit;
    // asking git elsewhere could report an enclosing repository's.
    let commit = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Provenance {
        nproc: nproc(),
        commit: commit.unwrap_or_else(|| "unknown".into()),
        rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    }
}

fn record(o: &Outcome, args: &Args, prov: &Provenance, rss_mb: Option<f64>) -> String {
    let plain = end_to_end(&o.plain);
    let mut fields = vec![
        ("workload".into(), string(o.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), prov.nproc.to_string()),
        ("commit".into(), string(&prov.commit)),
        ("rustc".into(), string(&prov.rustc)),
        ("setups".into(), o.plain.setup_s.len().to_string()),
        ("reps".into(), o.plain.ops_per_s.len().to_string()),
        (
            "tail".into(),
            object(&[
                ("percentile".into(), num(o.plain.tail_pct * 100.0)),
                (
                    "samples_per_rep".into(),
                    o.plain.samples_per_rep.to_string(),
                ),
                ("beyond".into(), o.plain.tail_beyond.to_string()),
            ]),
        ),
        ("end_to_end".into(), metrics_json(&plain)),
        ("named".into(), metrics_json(&o.plain.named)),
        ("failed_frac".into(), num(failed_frac(&o.plain))),
    ];
    if let Some(mb) = rss_mb {
        fields.push(("peak_rss_mb".into(), num(mb)));
    }
    if let Some(t) = &o.traced {
        let traced = end_to_end(t);
        let overhead: Vec<(String, String)> = plain
            .iter()
            .zip(&traced)
            .filter(|(p, _)| p.name != "setup_s")
            .map(|(p, t)| (p.name.clone(), num(t.value() - p.value())))
            .collect();
        fields.push(("traced_end_to_end".into(), metrics_json(&traced)));
        fields.push(("tracing_overhead".into(), object(&overhead)));
        fields.push(("layers".into(), metrics_json(&t.layers)));
        fields.push(("traced_failed_frac".into(), num(failed_frac(t))));
    }
    let failures: Vec<String> = o
        .plain
        .failures
        .iter()
        .chain(o.traced.iter().flat_map(|t| t.failures.iter()))
        .map(|f| string(f))
        .collect();
    fields.push(("failures".into(), format!("[{}]", failures.join(", "))));
    object(&fields)
}

fn print_table(o: &Outcome, rss_mb: Option<f64>) {
    println!("== {} ==", o.name);
    let show = |label: &str, ms: &[Metric]| {
        for m in ms {
            let s = spread(&m.values);
            println!(
                "  {label:<7} {:<40} {:>14.4} {:<6} (median {:.4}, q1 {:.4}, q3 {:.4}, n {})",
                m.name,
                m.value(),
                m.unit,
                s.median,
                s.q1,
                s.q3,
                m.values.len()
            );
        }
    };
    show("e2e", &end_to_end(&o.plain));
    show("named", &o.plain.named);
    if let Some(mb) = rss_mb {
        println!("  {:<7} {:<40} {:>14.4} MB", "rss", "peak_rss_mb", mb);
    }
    println!(
        "  e2e     {:<40} {:>14.6} share ({} of {})",
        "failed_frac",
        failed_frac(&o.plain),
        o.plain.failed,
        o.plain.attempted
    );
    if let Some(t) = &o.traced {
        show("traced", &end_to_end(t));
        show("layer", &t.layers);
    }
    for f in o
        .plain
        .failures
        .iter()
        .chain(o.traced.iter().flat_map(|t| &t.failures))
    {
        println!("  FAILED: {f}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let prov = provenance();
    let budget = Duration::from_secs(args.seconds);
    let primary: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let mut outcomes: Vec<Outcome> = primary
        .iter()
        .map(|w| dispatch(w, args.seed, budget, args.trace, SETUPS))
        .collect();
    if args.trace {
        // Every layer is measured in every traced run, each on the
        // inputs of the workload that uses it.
        for w in WORKLOADS.iter().filter(|w| !primary.contains(w)) {
            outcomes.push(dispatch(w, args.seed, SWEEP, true, 1));
        }
    }
    // The high-water mark is the process's: it belongs to a workload only
    // when the process ran that workload alone.
    let rss_mb = if primary.len() == 1 && !args.trace {
        peak_rss_mb()
    } else {
        None
    };

    for o in &outcomes {
        print_table(o, rss_mb);
    }
    for o in outcomes.iter().take(primary.len()) {
        println!(
            "{}",
            object(&[("record".into(), record(o, &args, &prov, rss_mb))])
        );
    }

    let attempted: u64 = outcomes
        .iter()
        .map(|o| o.plain.attempted + o.traced.as_ref().map_or(0, |t| t.attempted))
        .sum();
    let failed: u64 = outcomes
        .iter()
        .map(|o| o.plain.failed + o.traced.as_ref().map_or(0, |t| t.failed))
        .sum();

    // (name, unit, value) of every metric the result line carries.
    let mut values: Vec<(String, &str, Option<f64>)> = Vec::new();
    if args.trace {
        // A layer several workloads measure reports the value of the
        // first one that does, the run's own workload first.
        for (name, unit) in LAYERS {
            let found = outcomes
                .iter()
                .filter_map(|o| o.traced.as_ref())
                .flat_map(|t| t.layers.iter())
                .find(|m| m.name == *name);
            values.push((name.to_string(), unit, found.map(Metric::value)));
        }
    } else {
        for o in &outcomes {
            for m in end_to_end(&o.plain) {
                let name = if primary.len() > 1 {
                    format!("{}.{}", o.name, m.name)
                } else {
                    m.name.clone()
                };
                values.push((name, m.unit, Some(m.value())));
            }
        }
    }
    let mut metrics: Vec<(String, String)> = Vec::new();
    let mut missing = Vec::new();
    for (name, unit, value) in values {
        match value.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((
                name,
                object(&[("value".into(), num(v)), ("unit".into(), string(unit))]),
            )),
            None => missing.push(name),
        }
    }
    for name in &missing {
        println!("  FAILED: metric {name} was not measured");
    }
    let correct = failed == 0 && missing.is_empty();
    println!(
        "{}",
        object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), attempted.max(1).to_string()),
            ("failed".into(), (failed + missing.len() as u64).to_string()),
            ("metrics".into(), object(&metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
