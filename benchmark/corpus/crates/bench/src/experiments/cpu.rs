//! Experiments E12, E15, E17–E19, E26: the processor / OS / interference
//! phenomena of §2.1.1 and §2.2.

use cpusim::prelude::*;
use simcore::prelude::*;

use crate::report::{pct, ratio, Finding, Report, Table};

/// E12 — page mapping (Chen & Bershad): careless placement costs up to 50%.
pub fn e12_page_mapping() -> Report {
    let mut report = Report::new();
    let l2 = CacheConfig { capacity: 1 << 20, line: 64, ways: 2 };
    let pages = (1 << 20) / 4096;
    let mut table = Table::new(
        "Cache behaviour under page-colouring vs arbitrary placement (1 MB 2-way L2)",
        &["policy", "miss ratio", "run time (cycles/access model)"],
    );
    let (colored, random) = mapping_comparison(l2, pages, 31);
    let t_colored = run_time_cycles(colored, 20.0, 50.0);
    let t_random = run_time_cycles(random, 20.0, 50.0);
    table.row(vec!["page colouring".into(), pct(colored.miss_ratio()), format!("{t_colored:.0}")]);
    table.row(vec!["arbitrary".into(), pct(random.miss_ratio()), format!("{t_random:.0}")]);
    report.tables.push(table);
    let slowdown = t_random / t_colored;
    report.findings.push(Finding::new(
        "slowdown from careless page mapping",
        "virtual-memory mapping decisions can reduce application performance by up to 50%",
        ratio(slowdown),
        (1.15..2.0).contains(&slowdown),
    ));
    report
}

/// E15 — memory hog (Brown & Mowry): interactive response up to 40× worse.
pub fn e15_memory_hog() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Interactive response (50 ms of work on a 64 MB working set, 256 MB machine)",
        &["hog resident set", "response", "blowup"],
    );
    let compute = SimDuration::from_millis(50);
    let ws = 64 << 20;
    let mut machine = Machine::workstation();
    let base = machine.interactive_response(compute, ws);
    let mut headline = 0.0f64;
    for &hog_mb in &[0u64, 128, 200, 224, 240] {
        machine.clear_hogs();
        if hog_mb > 0 {
            machine.add_hog(Demand { memory: hog_mb << 20, cpu: 1.0 });
        }
        let r = machine.interactive_response(compute, ws);
        let blowup = r.as_secs_f64() / base.as_secs_f64();
        if hog_mb == 224 {
            headline = blowup;
        }
        table.row(vec![format!("{hog_mb} MB"), format!("{:.2} s", r.as_secs_f64()), ratio(blowup)]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "interactive blowup under a memory hog",
        "response time up to 40 times worse when competing with a memory-intensive process",
        format!("{} at 224 MB hog", ratio(headline)),
        headline > 10.0,
    ));
    report
}

/// E17 — cache fault masking (the Viking study): identical parts, up to
/// 40% apart.
pub fn e17_cache_mask() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "The same program on 'identical' Vikings (16 KB 4-way spec; one masked to 4 KB)",
        &["part", "effective cache", "miss ratio", "run time (cycles)"],
    );
    let mix = |cache: &mut Cache| {
        run_working_set(cache, 6 * 1024, 32, 1);
        run_working_set(cache, 6 * 1024, 32, 16)
    };
    let mut spec = Cache::new(CacheConfig::viking_spec());
    let s_spec = mix(&mut spec);
    let t_spec = run_time_cycles(s_spec, 1.0, 10.0);
    table.row(vec![
        "specified".into(),
        format!("{} KB", spec.effective_capacity() / 1024),
        pct(s_spec.miss_ratio()),
        format!("{t_spec:.0}"),
    ]);
    let mut masked = Cache::new(CacheConfig::viking_spec());
    masked.mask_ways(1);
    let s_masked = mix(&mut masked);
    let t_masked = run_time_cycles(s_masked, 1.0, 10.0);
    table.row(vec![
        "fault-masked".into(),
        format!("{} KB", masked.effective_capacity() / 1024),
        pct(s_masked.miss_ratio()),
        format!("{t_masked:.0}"),
    ]);
    report.tables.push(table);
    let slowdown = t_masked / t_spec;
    report.findings.push(Finding::new(
        "performance spread across identical parts",
        "performance differences of up to 40% across Viking processors; effective first-level \
         cache only 4K direct-mapped vs 16K 4-way specified",
        ratio(slowdown),
        slowdown > 1.25,
    ));
    report
}

/// E18 — nondeterministic TLB replacement (Bressoud & Schneider).
pub fn e18_tlb_nondet() -> Report {
    let mut report = Report::new();
    let mut rng = Stream::from_seed(37);
    let refs: Vec<u64> = (0..20_000).map(|_| rng.next_below(512)).collect();
    let mut table = Table::new(
        "Final TLB contents after identical reference strings (64-entry, 4-way)",
        &["hidden phases", "divergent entries"],
    );
    let mut a = Tlb::new(16, 4, 5);
    let mut b = Tlb::new(16, 4, 5);
    let same = divergence(&mut a, &mut b, &refs);
    table.row(vec!["equal".into(), same.to_string()]);
    let mut c = Tlb::new(16, 4, 5);
    let mut d = Tlb::new(16, 4, 6);
    let diff = divergence(&mut c, &mut d, &refs);
    table.row(vec!["different".into(), diff.to_string()]);
    report.tables.push(table);
    report.findings.push(Finding::new(
        "identical inputs, divergent TLB contents",
        "an identical series of location-references and TLB-insert operations could lead to \
         different TLB contents",
        format!("equal phases diverge by {same}, different phases by {diff}"),
        same == 0 && diff > 0,
    ));
    report
}

/// E19 — UltraSPARC nonmonotonicity (Kushman): identical code up to 3× apart.
pub fn e19_nonmonotonic() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "The same loop at different code layouts (64-entry next-fetch predictor)",
        &["layout", "cycles", "vs best"],
    );
    let friendly = Snippet { branches: 64, spacing: 4, iterations: 1_000 };
    let aliasing = Snippet { branches: 64, spacing: 256, iterations: 1_000 };
    let c_friendly = run_snippet(friendly, 0, 64, 1.0, 2.0);
    let c_aliasing = run_snippet(aliasing, 0, 64, 1.0, 2.0);
    table.row(vec!["predictor-friendly".into(), format!("{c_friendly:.0}"), ratio(1.0)]);
    table.row(vec![
        "predictor-aliasing".into(),
        format!("{c_aliasing:.0}"),
        ratio(c_aliasing / c_friendly),
    ]);
    report.tables.push(table);
    let spread = c_aliasing / c_friendly;
    report.findings.push(Finding::new(
        "run-time spread of identical code",
        "run times that vary by up to a factor of three",
        ratio(spread),
        (2.5..3.5).contains(&spread),
    ));
    report
}

/// E26 — scalar–vector bank interference (Raghavan & Hayes).
pub fn e26_bank_conflict() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Memory-system utilisation vs scalar interference (8 banks, 8-cycle recovery)",
        &["scalar rate", "utilisation"],
    );
    let mut at_half = 0.0f64;
    for &rate in &[0.0, 0.1, 0.2, 0.3, 0.5] {
        let mut mem = BankedMemory::new(8, 8);
        let mut rng = Stream::from_seed(41);
        let u = run_stream(&mut mem, 100_000, rate, &mut rng).utilization();
        if rate == 0.5 {
            at_half = u;
        }
        table.row(vec![pct(rate), pct(u)]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "efficiency loss from perturbations",
        "perturbations to a vector reference stream can reduce memory system efficiency by \
         up to a factor of two",
        format!("utilisation {} at 50% scalar interference", pct(at_half)),
        (0.35..0.65).contains(&at_half),
    ));
    report
}
