//! The repository's benchmark: one named workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload campaign-full --seed 42 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! replays the workload's calls into each layer under a span recorder and
//! reports the per-layer metrics (`--spans-out FILE` also writes every
//! span). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed operation
//! makes the exit status 1. See `README.md` for the workloads and metrics.

mod campaign;
mod lint;
mod replay;
mod stats;
mod trace;

use std::process::ExitCode;

use campaign::Slice;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ops_per_s", "1/s"), ("ops_per_s_1t", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.cell_ms.meta", "ms"),
    ("campaign.cell_ms.plane", "ms"),
    ("campaign.cell_ms.raid", "ms"),
    ("campaign.cell_ms.queue", "ms"),
    ("campaign.cell_ms.hedge", "ms"),
    ("campaign.share.meta", "ratio"),
    ("campaign.share.plane", "ratio"),
    ("campaign.share.other", "ratio"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.enumerate_ms", "ms"),
    ("metastable.run_ms", "ms"),
    ("metastable.ns_per_tick", "ns"),
    ("metastable.assess_us", "us"),
    ("metastable.trigger_window_us", "us"),
    ("metastable.attempts", "count"),
    ("metastable.goodput_ratio", "ratio"),
    ("perfplane.run_plane_ms", "ms"),
    ("perfplane.delivered", "count"),
    ("perfplane.us_per_delivery", "us"),
    ("perfplane.merge_ratio", "ratio"),
    ("perfplane.pushes_dropped", "count"),
    ("perfplane.oracle_us", "us"),
    ("perfplane.estimated_rate_calls", "count"),
    ("perfplane.estimated_rate_ns", "ns"),
    ("raidsim.write_us.static", "us"),
    ("raidsim.write_us.proportional", "us"),
    ("raidsim.write_us.adaptive", "us"),
    ("raidsim.write_us.estimated", "us"),
    ("raidsim.oracle_us", "us"),
    ("stutter.timeline_us", "us"),
    ("stutter.timeline_calls", "count"),
    ("stutter.detect_us", "us"),
    ("adapt.distribute_us.push", "us"),
    ("adapt.distribute_us.pull", "us"),
    ("adapt.run_hedged_us", "us"),
    ("fslint.lex_parse_ms", "ms"),
    ("fslint.graph_ms", "ms"),
    ("fslint.flow_ms", "ms"),
    ("fslint.units_ms", "ms"),
    ("fslint.effects_ms", "ms"),
    ("fslint.rules_ms", "ms"),
    ("fslint.files", "count"),
    ("fslint.lines", "count"),
    ("trace.overhead", "ratio"),
];

#[derive(Clone, Copy)]
enum Workload {
    CampaignFull,
    CampaignPlane,
    LintCorpus,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "campaign-full" => Workload::CampaignFull,
                    "campaign-plane" => Workload::CampaignPlane,
                    "lint-corpus" => Workload::LintCorpus,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slice = |w| if matches!(w, Workload::CampaignFull) { Slice::Full } else { Slice::Plane };
    let (outcome, names) = if args.trace {
        let (outcome, tracer) = match args.workload {
            Workload::LintCorpus => lint::traced(args.seconds),
            w => campaign::traced(slice(w), args.seed, args.seconds, nproc),
        };
        if let Some(path) = &args.spans_out {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("benchmark: writing {path}: {e}");
                return ExitCode::from(2);
            }
        }
        (outcome, PER_LAYER)
    } else {
        let outcome = match args.workload {
            Workload::LintCorpus => lint::run(args.seconds, nproc),
            w => campaign::run(slice(w), args.seed, args.seconds, nproc),
        };
        (outcome, END_TO_END)
    };
    println!("host: {nproc} core(s) available");
    println!("{}", stats::result_line(&outcome, names));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
