//! `alps-perfbench`: one closed-loop benchmark over three kinds of ALPS
//! object — in-process sharded, compiled from ALPS source, and remote.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv_sharded|rw_compiled|remote_counter> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a stamp, every metric by name with its unit, and as its last
//! line one JSON object. Exits non-zero if any output was wrong. See
//! README.md for the workloads and metrics.

mod kv;
mod measure;
mod procfs;
mod remote;
mod runner;
mod rw;
mod snap;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use runner::{Metric, Opts};

const WORKLOADS: [&str; 3] = ["kv_sharded", "rw_compiled", "remote_counter"];

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not use a layer leaves its metrics out and they print as n/a.
const LAYER_METRICS: [(&str, &str); 23] = [
    ("runtime.os_threads", "count"),
    ("runtime.ctxsw_per_op", "ratio"),
    ("core.call_self_us", "us"),
    ("core.mgr_wakeups_per_call", "ratio"),
    ("core.drain_batch_mean", "calls"),
    ("core.spin_share", "ratio"),
    ("core.lane_share", "ratio"),
    ("core.accept_wait_mean_us", "us"),
    ("core.service_mean_us", "us"),
    ("core.retries_per_call", "ratio"),
    ("core.timeouts", "count"),
    ("core.restarts", "count"),
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("lang.spawn_compiled_ms", "ms"),
    ("net.codec_us", "us"),
    ("net.overhead_us", "us"),
    ("net.retries_per_call", "ratio"),
    ("net.reconnects", "count"),
    ("net.server_replayed", "count"),
    ("net.server_suppressed", "count"),
    ("net.server_cpu_us_per_op", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// CPUs available to this process; the load generator never runs more
/// OS threads of callers than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        Opts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    ))
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// already `None`, so a non-finite value here is reported as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve") {
        remote::serve();
        return ExitCode::SUCCESS;
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(p) => p,
        Err(why) => return usage(&why),
    };
    let stamp = format!(
        "workload={workload} seed={} seconds={} trace={} nproc={} cpu=\"{}\" git={} rustc=\"{}\"",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc(),
        procfs::cpu_model(),
        procfs::git_revision(),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    println!("# perfbench {stamp}");

    let (mut rounds, mut layers) = match workload.as_str() {
        "kv_sharded" => kv::run(&opts),
        "rw_compiled" => rw::run(&opts),
        _ => remote::run(&opts),
    };
    let mut failures = std::mem::take(&mut rounds.failures);
    if rounds.attempted == 0 {
        failures.push("no call was made in the measured windows".into());
    }
    if opts.trace {
        let path = std::path::Path::new(".bench_out").join(format!("trace-{workload}.csv"));
        match trace::write_csv(&path, &stamp, &rounds.spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                rounds.spans.len(),
                path.display()
            ),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }

    let printed: Vec<Metric> = if opts.trace {
        layers.extend(rounds.runtime_metrics());
        layers.push(rounds.trace_overhead());
        LAYER_METRICS
            .iter()
            .map(
                |&(name, unit)| match layers.iter().position(|m| m.name == name) {
                    Some(i) => layers.swap_remove(i),
                    None => {
                        let mut m = runner::metric(name, unit, None);
                        m.note = "not on this workload's call path".into();
                        m
                    }
                },
            )
            .collect()
    } else {
        let m = rounds.end_to_end();
        for missing in m.iter().filter(|m| m.value.is_none()) {
            failures.push(format!("{} could not be measured", missing.name));
        }
        m
    };
    // Another tenant's load on the host shifts every timing; a result
    // measured under steal is not comparable with one measured without.
    let (steal, total) = rounds.steal;
    println!(
        "# host steal during measured windows: {:.2}% of CPU time",
        100.0 * steal as f64 / total.max(1) as f64
    );
    let mut json = String::new();
    for m in &printed {
        let shown = m
            .value
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        println!("{:<28} {:>16} {:<6} {}", m.name, shown, m.unit, m.note);
        if !json.is_empty() {
            json.push_str(", ");
        }
        // A layer this workload does not use is 0 in the JSON.
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value.unwrap_or(0.0)),
            m.unit
        );
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        rounds.attempted, rounds.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
