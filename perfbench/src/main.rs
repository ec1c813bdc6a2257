//! `perfbench`: the end-to-end and per-layer benchmark of the dpsd
//! serving stack.
//!
//! ```text
//! perfbench --workload read-hot|read-cold|write-mix --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! `--trace 0` is the scored run: it sets up an in-process `dpsd-serve`
//! several times, drives the workload closed-loop over loopback for
//! `--seconds`, checks every answer bit-for-bit, and prints every
//! end-to-end metric. `--trace 1` splits the same time into an
//! untraced and a traced window and then replays the workload's
//! deterministic request sequence in-process, attributing time and
//! exact work counts to the modules a request crosses; it prints the
//! per-layer metrics. The last line of standard output is always one
//! JSON object. The exit code is 0 only if every check passed.

#![forbid(unsafe_code)]

mod plan;
mod replay;
mod stats;
mod trace;
mod wire;

use plan::{Plan, Scale, Workload};
use serde::Value;
use stats::{median, tail};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Metrics printed for every workload but left out of the result line,
/// which carries only the metrics gated in `BENCHMARK.json`: the tail,
/// whose run-to-run spread on a shared 2-core host exceeds any bound
/// the benchmark may set, and the write-path metrics, which only
/// write-mix measures under load (read-hot and read-cold take a few
/// samples of them during set-up).
const REPORT_ONLY: [&str; 6] = [
    "query_batch_tail_us",
    "publish_json_p50_ms",
    "publish_bin_p50_ms",
    "owner_build_p50_ms",
    "ingest_points_per_s",
    "release_p50_ms",
];

/// A metric as printed: value, unit, sample count, and a note.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    n: usize,
    note: String,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
        note: String::new(),
    }
}

fn end_to_end(run: &wire::WireRun, plan: &Plan) -> Vec<Metric> {
    let s = &run.samples;
    let p50 = |name, v: &Vec<f64>, unit| metric(name, median(v), unit, v.len());
    let tail = tail(&s.batch_us);
    vec![
        p50("setup_s", &s.setup_s, "s"),
        p50("query_batch_p50_us", &s.batch_us, "us"),
        Metric {
            note: tail.map_or(String::new(), |(p, _)| format!("p{p}")),
            ..metric(
                "query_batch_tail_us",
                tail.map(|t| t.1),
                "us",
                s.batch_us.len(),
            )
        },
        p50("query_rects_per_s", &s.rects_per_second, "1/s"),
        p50("rel_error_median", &s.rel_errors, "ratio"),
        p50("publish_json_p50_ms", &s.publish_json_ms, "ms"),
        p50("publish_bin_p50_ms", &s.publish_bin_ms, "ms"),
        p50("owner_build_p50_ms", &s.owner_build_ms, "ms"),
        metric(
            "ingest_points_per_s",
            (s.ingest_s > 0.0).then(|| s.ingest_points as f64 / s.ingest_s),
            "1/s",
            s.ingest_points as usize / plan.scale.ingest_points,
        ),
        p50("release_p50_ms", &s.release_ms, "ms"),
        metric("peak_rss_mb", run.peak_rss_mb, "MB", 1),
    ]
}

/// Prints the human-readable table and then the JSON result line.
fn report(header: &str, metrics: &[Metric], tally: &wire::Tally, correct: bool) {
    println!("{header}");
    for m in metrics {
        let value = m.value.map_or("missing".to_string(), |v| format!("{v:.4}"));
        let gated = if REPORT_ONLY.contains(&m.name) {
            " (report only)"
        } else {
            ""
        };
        println!(
            "  {:<28} {:>16} {:<6} n={:<7} {}{gated}",
            m.name, value, m.unit, m.n, m.note
        );
    }
    for (op, (attempted, failed)) in &tally.0 {
        println!(
            "  error_rate[{op}] = {failed}/{attempted} = {:.6}",
            *failed as f64 / (*attempted).max(1) as f64
        );
    }
    let (attempted, failed) = tally.totals();
    let entries = metrics
        .iter()
        .filter(|m| !REPORT_ONLY.contains(&m.name))
        .filter_map(|m| {
            let v = Value::Object(vec![
                ("value".to_string(), Value::Number(m.value?)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]);
            Some((m.name.to_string(), v))
        })
        .collect();
    // The counts are written by hand: `serde_json` prints every number as a
    // float (`12.0`), and the result line needs whole numbers there.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        plan::to_json(&Value::Object(entries))
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let started = trace::now();
    let phase = |what: &str| {
        eprintln!(
            "perfbench: {what} at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let plan = Plan::new(args.workload, Scale::full(), args.seed);
    phase("inputs generated");
    let mut run = wire::run(&plan, args.seconds as f64, args.trace)?;
    phase("segments set up, timed and verified");
    let conns = plan.conns.len() + usize::from(plan.workload == Workload::WriteMix);
    let header = format!(
        "perfbench {} seed {}: {:.1} s timed, {conns} closed-loop connections, {} segments",
        plan.workload.name(),
        args.seed,
        run.samples.timed_s,
        plan.scale.setup_reps
    );
    let mut tally = std::mem::take(&mut run.tally);
    let metrics = if args.trace {
        let replay = replay::replay(&plan)?;
        phase("replay done");
        tally.record("release_check", replay.counters.release_mismatches == 0);
        let p50_of = |traced: bool| {
            let w = run.windows.iter().find(|w| w.traced == traced)?;
            median(&w.records.iter().map(|r| r.latency_us).collect::<Vec<_>>())
        };
        let (untraced, traced) = (p50_of(false), p50_of(true));
        let wire_us: Vec<f64> = run
            .windows
            .iter()
            .flat_map(|w| w.spans.spans())
            .filter(|s| s.name == "client.query_batch")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        let mut layers = replay.layers;
        layers.insert(
            "wire.unattributed_us",
            (
                median(&wire_us).unwrap_or(0.0) - replay.batch_server_us,
                "us",
                wire_us.len(),
            ),
        );
        layers.insert(
            "trace.overhead_pct",
            (
                traced
                    .zip(untraced)
                    .map_or(0.0, |(t, u)| (t - u) / u * 100.0),
                "%",
                run.windows.iter().map(|w| w.records.len()).sum(),
            ),
        );
        let mut spans = trace::Recorder::new(true);
        for w in std::mem::take(&mut run.windows) {
            spans.absorb(w.spans);
        }
        spans.absorb(replay.spans);
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                plan.workload.name(),
                args.seed
            ));
        spans
            .write_jsonl(&out)
            .map_err(|e| format!("cannot write spans: {e}"))?;
        println!("spans written to {}", out.display());
        layers
            .into_iter()
            .map(|(name, (v, unit, n))| metric(name, Some(v), unit, n))
            .collect()
    } else {
        end_to_end(&run, &plan)
    };
    let missing = metrics
        .iter()
        .any(|m| !REPORT_ONLY.contains(&m.name) && !m.value.is_some_and(f64::is_finite));
    let correct = tally.totals().1 == 0 && !missing;
    report(&header, &metrics, &tally, correct);
    Ok(correct)
}

/// Runs each workload's short configuration twice, end to end and
/// replayed, and checks that every answer verifies and every exact
/// counter repeats.
fn self_test() -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let plan = Plan::new(workload, Scale::small(), 7);
        let run = wire::run(&plan, 0.5, false)?;
        let (attempted, failed) = run.tally.totals();
        let first = replay::replay(&plan)?.counters;
        let second = replay::replay(&plan)?.counters;
        let repeat = first == second && first.release_mismatches == 0;
        println!(
            "self-test {}: {failed}/{attempted} failed; counters repeat: {repeat}; {first:?}",
            workload.name()
        );
        ok &= failed == 0 && repeat && first.probes > 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = match parse_args() {
        Ok(Some(args)) => run(&args),
        Ok(None) => self_test(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
