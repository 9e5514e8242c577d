//! `fs-campaign` — the deterministic scenario-campaign runner.
//!
//! Enumerates every (§2 injector × mechanism × replicate) scenario, shards
//! them across worker threads, checks each run against model and
//! metamorphic oracles, and prints a campaign digest suitable for golden
//! pinning. Exit status is non-zero on any oracle violation, and — in
//! `--smoke` mode, which runs the reduced campaign twice — on any digest
//! mismatch between the two runs.
//!
//! ```text
//! fs-campaign                         # full 360-scenario campaign
//! fs-campaign --smoke                 # reduced campaign, run twice, CI gate
//! fs-campaign --seed 7 --threads 8    # different seed tree, more workers
//! fs-campaign --scenario raid/gc      # only labels containing "raid/gc"
//! fs-campaign --out campaign.json     # write the JSON artifact
//! fs-campaign --list                  # print every scenario label
//! ```

use std::process::ExitCode;

use fs_bench::campaign::{enumerate, run_campaign, run_selected, CampaignConfig, CampaignReport};

struct Args {
    seed: u64,
    threads: Option<usize>,
    replicates: Option<u64>,
    smoke: bool,
    list: bool,
    out: Option<String>,
    scenario: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        threads: None,
        replicates: None,
        smoke: false,
        list: false,
        out: None,
        scenario: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                args.threads =
                    Some(value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--replicates" => {
                args.replicates =
                    Some(value("--replicates")?.parse().map_err(|e| format!("--replicates: {e}"))?)
            }
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--out" => args.out = Some(value("--out")?),
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--help" | "-h" => {
                println!(
                    "usage: fs-campaign [--seed N] [--threads N] [--replicates N] \
                     [--smoke] [--list] [--scenario SUBSTR] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn summarize(report: &CampaignReport) {
    println!(
        "fs-campaign: {} scenarios on {} threads, seed {}",
        report.results.len(),
        report.threads,
        report.master_seed
    );
    println!("  checks: {} passed, {} failed", report.checks_passed, report.violations.len());
    println!("  campaign digest: {:016x}", report.digest);
    for v in &report.violations {
        eprintln!("  VIOLATION {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fs-campaign: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = if args.smoke {
        CampaignConfig::smoke(args.seed)
    } else {
        CampaignConfig::standard(args.seed)
    };
    if let Some(t) = args.threads {
        cfg.threads = t.max(1);
    }
    if let Some(r) = args.replicates {
        cfg.replicates = r.max(1);
    }

    if args.list {
        for sc in enumerate(&cfg) {
            println!("{}", sc.label());
        }
        return ExitCode::SUCCESS;
    }

    let report = if let Some(filter) = &args.scenario {
        let selected: Vec<_> =
            enumerate(&cfg).into_iter().filter(|sc| sc.label().contains(filter.as_str())).collect();
        if selected.is_empty() {
            eprintln!("fs-campaign: no scenario label contains {filter:?}");
            return ExitCode::from(2);
        }
        println!("fs-campaign: {} scenario(s) match {filter:?}", selected.len());
        run_selected(&selected, &cfg)
    } else {
        run_campaign(&cfg)
    };

    summarize(&report);

    if args.smoke && args.scenario.is_none() {
        // Determinism gate: the same config must reproduce bit-for-bit.
        let second = run_campaign(&cfg);
        if second.digest != report.digest {
            eprintln!(
                "fs-campaign: DIGEST MISMATCH between consecutive runs: {:016x} != {:016x}",
                report.digest, second.digest
            );
            return ExitCode::FAILURE;
        }
        println!("  determinism: second run reproduced digest {:016x}", second.digest);
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("fs-campaign: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  artifact: {path}");
    }

    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
