//! ResTune benchmark: one seeded workload per invocation, end-to-end metrics
//! from an untraced run or per-layer metrics from a traced one, and the
//! output checks either way. See README.md beside this crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload meta_d14 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object. A failed check
//! prints `error: <check>` on standard error and exits with code 1.

mod layers;
mod metrics;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use metrics::{counter_names, result_line, END_TO_END, PER_LAYER};
use restune_core::fleet::Tenant;
use stats::{median, percentile};
use workloads::{nproc, Kind, Size, Unit, Workload};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 15;
/// Set-ups made before the first timed units, between their chunks and
/// after each round of them; `setup_s` is the median of all of them.
const SETUPS_PER_BATCH: usize = 2;
/// Timed units per run, at the least: every session of a unit runs twice,
/// so its digest is checked, and `iters_per_s` is a median over units. The
/// session workloads run two units at once (see `Workload::run_units`).
const MIN_UNITS: usize = 2;
/// Untraced-traced pilot pairs that `trace.overhead_pct` rests on, at the
/// least.
const MIN_OVERHEAD_PAIRS: usize = 2;
/// A run stops adding units after this long; one that still lacks units
/// then fails.
const RUN_BUDGET: Duration = Duration::from_secs(150);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let names = Kind::ALL.map(Kind::name).join(", ");
                kind = Some(
                    Kind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}; one of {names}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=120).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=120"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|a| if a.trace { traced(&a) } else { untraced(&a) });
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `tenants` with the trace collector on; returns the unit and its
/// counters.
fn traced_run(w: &Workload, tenants: Vec<Tenant>) -> (Unit, BTreeMap<&'static str, u64>) {
    trace::reset();
    trace::enable();
    let unit = w.run(tenants);
    trace::disable();
    let snap = trace::snapshot();
    trace::reset();
    let counts = counter_names()
        .map(|(metric, counter)| (metric, snap.counter(counter)))
        .collect();
    (unit, counts)
}

/// Runs a unit's output checks, including that it reproduced what earlier
/// units of the run produced.
fn check_unit(kind: Kind, unit: &Unit, reference: &mut Vec<u64>) -> Result<(), String> {
    unit.check(kind)?;
    unit.check_reproduces(reference)
}

/// The checks on a traced pilot's counters.
fn check_counts(kind: Kind, counts: &BTreeMap<&'static str, u64>) -> Result<(), String> {
    if kind == Kind::Drift && counts["count.gp.fit.incremental"] < 1 {
        return Err("drift_p16 ran no incremental GP fit".to_string());
    }
    Ok(())
}

/// Prints what the run measures, before any result.
fn print_record(args: &Args) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} fleet_workers={} \
         units_at_once={} tenants_per_unit={} iters={} config=RestuneConfig::default()",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc(),
        Workload::workers(),
        Workload::concurrent_units(args.kind),
        Size::Full.tenants(args.kind),
        Size::Full.iters(args.kind),
    );
}

/// Makes `SETUPS_PER_BATCH` set-ups, recording each one's time in `setups`;
/// returns the last set-up's workload.
fn set_up_batch(args: &Args, setups: &mut Vec<f64>, mut workload: Option<Workload>) -> Workload {
    for _ in 0..SETUPS_PER_BATCH {
        drop(workload.take());
        let (w, times) = Workload::setup(args.kind, Size::Full, args.seed);
        println!("setup total_s={} train_s={}", times.total_s, times.train_s);
        setups.push(times.total_s);
        workload = Some(w);
    }
    workload.expect("a batch makes set-ups")
}

fn untraced(args: &Args) -> Result<String, String> {
    let kind = args.kind;
    let run_start = Instant::now();
    print_record(args);
    let mut setups = Vec::new();
    let mut reference = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut w = set_up_batch(args, &mut setups, None);
    loop {
        // Set-ups are spread over the run: a batch before the units, one
        // between their chunks and one after each round of them, so their
        // median does not rest on a few short stretches of the machine.
        let round = w.run_units(|| drop(set_up_batch(args, &mut setups, None)));
        for mut unit in round {
            check_unit(kind, &unit, &mut reference)?;
            println!(
                "unit {} digests={:016x?} wall_s={} iters_per_s={} steps={} \
                 session_step_ms={:.1?} saved_pct={:.1?} cpu_saved_pct={} feasible_pct={} \
                 failed={}",
                units.len(),
                &unit.digests[..unit.digests.len().min(8)],
                unit.wall_s,
                unit.iters_per_s(),
                unit.step_s.len(),
                unit.session_step_s
                    .iter()
                    .take(8)
                    .map(|s| 1e3 * s)
                    .collect::<Vec<_>>(),
                unit.outcomes
                    .iter()
                    .take(8)
                    .map(|o| 100.0 * o.improvement())
                    .collect::<Vec<_>>(),
                unit.cpu_saved_pct(),
                unit.feasible_pct(),
                unit.failed,
            );
            // The outcomes are identical across units; keep only the last one's.
            if let Some(prev) = units.last_mut() {
                prev.outcomes.clear();
            }
            unit.step_s.shrink_to_fit();
            units.push(unit);
        }
        w = set_up_batch(args, &mut setups, Some(w));
        let enough = units.len() >= MIN_UNITS;
        if enough && run_start.elapsed().as_secs() >= args.seconds {
            break;
        }
        if run_start.elapsed() >= RUN_BUDGET {
            if !enough {
                return Err(format!(
                    "{} units fit in {} s; a run needs {MIN_UNITS}",
                    units.len(),
                    RUN_BUDGET.as_secs()
                ));
            }
            break;
        }
    }

    let last = units.last().expect("at least one unit");
    let ips: Vec<f64> = units.iter().map(Unit::iters_per_s).collect();
    // Each unit's own p90, so that a slow spell of the machine that covers a
    // share of one unit's steps moves that unit's p90 only.
    let p90s = units
        .iter()
        .map(|u| percentile(&u.step_s, 0.9))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setups).expect("set-ups"));
    values.insert("iters_per_s", median(&ips).expect("units"));
    // The step time of the median session (or fleet tenant). Pooled, the
    // steps mix populations whose shares move with the seed: a meta_d14
    // step costs 30 to 450 ms depending on how many base learners keep an
    // ensemble weight, and a fleet tenant's initial-design steps cost next
    // to nothing. The pooled median falls between them and jumps.
    let sessions: Vec<f64> = units
        .iter()
        .flat_map(|u| u.session_step_s.iter().copied())
        .collect();
    values.insert(
        "step_ms_p50",
        1e3 * median(&sessions).ok_or("no steps were timed")?,
    );
    values.insert("step_ms_p90", 1e3 * median(&p90s).expect("units"));
    values.insert("peak_rss_mb", sys::peak_rss_mb()?);
    values.insert("cpu_saved_pct", last.cpu_saved_pct());
    values.insert("feasible_pct", last.feasible_pct());
    values.insert("ok_pct", last.ok_pct());

    // The incremental refits show only in the trace counters. A traced pilot
    // runs after the peak RSS was read, so its buffers do not count in it.
    if kind == Kind::Drift {
        let (pilot, counts) = traced_run(&w, w.pilot_tenants());
        check_unit(kind, &pilot, &mut reference)?;
        check_counts(kind, &counts)?;
    }
    let attempted = units.iter().map(|u| u.planned as u64).sum();
    let failed = units.iter().map(|u| u.failed as u64).sum();
    result_line(END_TO_END, &values, attempted, failed)
}

fn traced(args: &Args) -> Result<String, String> {
    let kind = args.kind;
    print_record(args);
    let (w, setup) = Workload::setup(kind, Size::Full, args.seed);
    let mut reference = Vec::new();
    check_unit(kind, &w.run(w.pilot_tenants()), &mut reference)?;

    // Pairs of an untraced and a traced pilot, in alternating order (plain
    // first, then traced first), so both of a pair see the same stretch of
    // the machine and a steady drift cancels over two pairs. The overhead is
    // the median over pairs.
    let start = Instant::now();
    let mut overheads = Vec::new();
    let mut counts: Option<BTreeMap<&'static str, u64>> = None;
    let mut first_try_ok = 0.0;
    let mut attempted = 0u64;
    while overheads.len() < MIN_OVERHEAD_PAIRS || start.elapsed().as_secs() < args.seconds {
        let plain_first = overheads.len() % 2 == 0;
        let mut plain = None;
        if plain_first {
            plain = Some(w.run(w.pilot_tenants()));
        }
        let (unit, pilot_counts) = traced_run(&w, w.pilot_tenants());
        let plain = plain.unwrap_or_else(|| w.run(w.pilot_tenants()));
        check_unit(kind, &plain, &mut reference)?;
        check_unit(kind, &unit, &mut reference)?;
        overheads.push(plain.iters_per_s() / unit.iters_per_s() - 1.0);
        first_try_ok = unit.first_try_ok();
        attempted += 2 * unit.planned as u64;
        match &counts {
            None => counts = Some(pilot_counts),
            Some(first) if *first != pilot_counts => {
                return Err(format!(
                    "traced pilots disagree on their counts: {first:?} vs {pilot_counts:?}"
                ));
            }
            Some(_) => {}
        }
    }
    let counts = counts.expect("at least one traced pilot");
    check_counts(kind, &counts)?;

    let mut values = layers::probe(&w, setup)?;
    values.insert(
        "trace.overhead_pct",
        100.0 * median(&overheads).expect("at least one pair"),
    );
    for (metric, count) in &counts {
        values.insert(metric, *count as f64);
    }
    let (full, incremental) = (
        counts["count.gp.fit.full"],
        counts["count.gp.fit.incremental"],
    );
    values.insert(
        "ratio.gp.incremental_share",
        incremental as f64 / (full + incremental).max(1) as f64,
    );
    values.insert("ratio.replay.first_try_ok", first_try_ok);
    result_line(PER_LAYER, &values, attempted, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload drift_p16 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Drift, 9, 3, true)
        );
        let d = parse("--workload fleet_d3").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload meta_d14 --seed -1",
            "--workload meta_d14 --seconds 0",
            "--workload meta_d14 --trace 2",
            "--workload meta_d14 --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn traced_pilots_report_identical_counts() {
        let _guard = workloads::RUN_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (w, _) = Workload::setup(Kind::Drift, Size::Tiny, 3);
        let (a, first) = traced_run(&w, w.pilot_tenants());
        let (b, second) = traced_run(&w, w.pilot_tenants());
        assert_eq!(first, second);
        assert_eq!(a.digests, b.digests);
        assert!(first["count.gp.fit.incremental"] >= 1, "{first:?}");
        assert!(
            first["count.drift.restarts"] >= 1 && first["count.space.project"] > 0,
            "{first:?}"
        );
        assert!(!trace::enabled());
    }

    #[test]
    fn peak_rss_is_reported() {
        let mb = sys::peak_rss_mb().unwrap();
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }
}
