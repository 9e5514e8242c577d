//! Bench target that regenerates every table/figure of the reproduction.
//!
//! `cargo bench -p fs-bench --bench experiments` prints the full suite;
//! shape failures make the bench exit non-zero.

fn main() {
    let (text, all_pass) = fs_bench::run_and_render(&[], false);
    println!("{text}");
    if !all_pass {
        eprintln!("some findings FAILED");
        std::process::exit(1);
    }
}
