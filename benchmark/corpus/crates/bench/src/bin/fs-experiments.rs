//! Regenerates the paper's claims as tables and shape findings.
//!
//! Usage:
//!
//! ```text
//! fs-experiments                 # run everything
//! fs-experiments e01 e11        # a subset by id
//! fs-experiments --list         # list experiment ids and titles
//! fs-experiments --markdown     # tables as Markdown
//! fs-experiments --csv DIR      # additionally dump every table as CSV
//! fs-experiments --json DIR     # additionally write BENCH_<slug>.json
//! ```

use fs_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for e in experiments::all() {
            println!("{}  {}  ({})", e.id, e.title, e.source);
        }
        return;
    }
    let markdown = args.iter().any(|a| a == "--markdown");
    args.retain(|a| a != "--markdown");
    let mut dir_flag = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            let dir = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a directory argument");
                std::process::exit(2);
            });
            args.drain(i..=i + 1);
            dir
        })
    };
    let csv_dir = dir_flag("--csv");
    let json_dir = dir_flag("--json");

    if csv_dir.is_some() || json_dir.is_some() {
        let ids: Vec<String> = if args.is_empty() {
            experiments::all().iter().map(|e| e.id.to_string()).collect()
        } else {
            args.clone()
        };
        for dir in [&csv_dir, &json_dir].into_iter().flatten() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        for id in &ids {
            let e = experiments::by_id(id).unwrap_or_else(|| panic!("unknown experiment id {id}"));
            let report = (e.run)();
            if let Some(dir) = &csv_dir {
                for (i, t) in report.tables.iter().enumerate() {
                    let path = format!("{dir}/{}-{}.csv", e.id, i);
                    std::fs::write(&path, t.render_csv()).expect("write csv");
                    eprintln!("wrote {path}");
                }
            }
            if let Some(dir) = &json_dir {
                let path = format!("{dir}/BENCH_{}.json", e.slug);
                std::fs::write(&path, report.render_json(e.id, e.slug, e.title, e.source))
                    .expect("write json");
                eprintln!("wrote {path}");
            }
        }
    }

    let (text, all_pass) = fs_bench::run_and_render(&args, markdown);
    println!("{text}");
    if !all_pass {
        eprintln!("some findings FAILED");
        std::process::exit(1);
    }
}
