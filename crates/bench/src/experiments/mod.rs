//! The experiment registry: one entry per reproduced claim.
//!
//! The paper has no numbered tables or figures (it is a HotOS position
//! paper), so each experiment regenerates one *quantified claim* from the
//! text — see `DESIGN.md` for the full index.

pub mod ablations;
pub mod cluster_exp;
pub mod cpu;
pub mod disks;
pub mod future_work;
pub mod metastable_exp;
pub mod model_exp;
pub mod network;
pub mod plane;
pub mod raid;

use crate::report::Report;

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable identifier (`e01` ... `e36`).
    pub id: &'static str,
    /// Stable kebab-case slug used for artifact filenames
    /// (`BENCH_<slug>.json`).
    pub slug: &'static str,
    /// Short title.
    pub title: &'static str,
    /// The paper section the claim comes from.
    pub source: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Report,
}

/// Every experiment, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e01",
            slug: "raid-scenario1",
            title: "Scenario 1: equal static striping delivers N*b",
            source: "Section 3.2",
            run: raid::e01_raid_failstop,
        },
        Experiment {
            id: "e02",
            slug: "raid-scenario2",
            title: "Scenario 2: proportional striping delivers (N-1)*B+b; drift re-collapses",
            source: "Section 3.2",
            run: raid::e02_raid_static,
        },
        Experiment {
            id: "e03",
            slug: "raid-scenario3",
            title: "Scenario 3: adaptive striping delivers the available bandwidth",
            source: "Section 3.2",
            run: raid::e03_raid_adaptive,
        },
        Experiment {
            id: "e04",
            slug: "badblock-remap",
            title: "Bad-block remapping: the 5.0-vs-5.5 MB/s Hawk",
            source: "Section 2.1.2",
            run: disks::e04_badblock,
        },
        Experiment {
            id: "e05",
            slug: "scsi-errors",
            title: "SCSI error census: 49% / 87% and two per day",
            source: "Section 2.1.2",
            run: disks::e05_scsi_errors,
        },
        Experiment {
            id: "e06",
            slug: "thermal-recal",
            title: "Thermal recalibration: random short off-line periods",
            source: "Section 2.1.2",
            run: disks::e06_thermal_recal,
        },
        Experiment {
            id: "e07",
            slug: "disk-zones",
            title: "Multi-zone disks: outer/inner bandwidth ~2x",
            source: "Section 2.1.2",
            run: disks::e07_zones,
        },
        Experiment {
            id: "e08",
            slug: "vesta-variance",
            title: "Vesta variance: near-peak cluster with a 15-20% tail",
            source: "Section 2.1.2",
            run: disks::e08_vesta_variance,
        },
        Experiment {
            id: "e09",
            slug: "myrinet-deadlock",
            title: "Myrinet deadlock: watchdog cliff and 2 s recovery halts",
            source: "Section 2.1.3",
            run: network::e09_deadlock,
        },
        Experiment {
            id: "e10",
            slug: "switch-unfairness",
            title: "Switch unfairness appears only under load",
            source: "Section 2.1.3",
            run: network::e10_unfairness,
        },
        Experiment {
            id: "e11",
            slug: "cm5-transpose",
            title: "CM-5 transpose: one slow receiver costs ~3x globally",
            source: "Section 2.1.3",
            run: network::e11_transpose,
        },
        Experiment {
            id: "e12",
            slug: "page-mapping",
            title: "Page mapping: careless placement costs up to 50%",
            source: "Section 2.2.1",
            run: cpu::e12_page_mapping,
        },
        Experiment {
            id: "e13",
            slug: "fs-aging",
            title: "File-system aging: fresh vs aged sequential reads ~2x",
            source: "Section 2.2.1",
            run: disks::e13_fs_aging,
        },
        Experiment {
            id: "e14",
            slug: "gc-mirror",
            title: "Untimely GC: one node falls behind its mirror",
            source: "Section 2.2.1",
            run: cluster_exp::e14_gc_mirror,
        },
        Experiment {
            id: "e15",
            slug: "memory-hog",
            title: "Memory hog: interactive response up to 40x worse",
            source: "Section 2.2.2",
            run: cpu::e15_memory_hog,
        },
        Experiment {
            id: "e16",
            slug: "cpu-hog",
            title: "CPU hog: one loaded node halves global sort performance",
            source: "Section 2.2.2",
            run: cluster_exp::e16_cpu_hog,
        },
        Experiment {
            id: "e17",
            slug: "cache-mask",
            title: "Cache fault masking: 'identical' CPUs up to 40% apart",
            source: "Section 2.1.1",
            run: cpu::e17_cache_mask,
        },
        Experiment {
            id: "e18",
            slug: "tlb-nondet",
            title: "Nondeterministic TLB replacement diverges on identical input",
            source: "Section 2.1.1",
            run: cpu::e18_tlb_nondet,
        },
        Experiment {
            id: "e19",
            slug: "fetch-aliasing",
            title: "Fetch-predictor aliasing: identical code up to 3x apart",
            source: "Section 2.1.1",
            run: cpu::e19_nonmonotonic,
        },
        Experiment {
            id: "e20",
            slug: "threshold-t",
            title: "The threshold T: false failures vs detection latency",
            source: "Section 3.1",
            run: model_exp::e20_threshold,
        },
        Experiment {
            id: "e21",
            slug: "spec-fidelity",
            title: "Spec fidelity: simpler specs flag more faults",
            source: "Section 3.1",
            run: model_exp::e21_spec_fidelity,
        },
        Experiment {
            id: "e22",
            slug: "availability",
            title: "Availability (Gray & Reuter) under stutter: adaptive >> static",
            source: "Section 3.3",
            run: raid::e22_availability,
        },
        Experiment {
            id: "e23",
            slug: "incremental-growth",
            title: "Incremental growth: adaptive arrays exploit faster additions",
            source: "Section 3.3",
            run: raid::e23_incremental_growth,
        },
        Experiment {
            id: "e24",
            slug: "failure-prediction",
            title: "Erratic performance predicts impending failure",
            source: "Section 3.3",
            run: model_exp::e24_failure_prediction,
        },
        Experiment {
            id: "e25",
            slug: "hedging",
            title: "Shasha-Turek duplicate issue vs blocking",
            source: "Section 4",
            run: model_exp::e25_hedging,
        },
        Experiment {
            id: "e26",
            slug: "bank-conflict",
            title: "Scalar-vector bank interference halves memory efficiency",
            source: "Section 2.2.2",
            run: cpu::e26_bank_conflict,
        },
        Experiment {
            id: "e27",
            slug: "wind",
            title: "WiND: self-managing storage rides through wear-out",
            source: "Section 5",
            run: future_work::e27_wind,
        },
        Experiment {
            id: "e28",
            slug: "bimodal-multicast",
            title: "Bimodal multicast degrades gracefully under stutter",
            source: "Section 4",
            run: future_work::e28_bimodal,
        },
        Experiment {
            id: "e29",
            slug: "river",
            title: "River graduated declustering absorbs a slow producer",
            source: "Section 4",
            run: future_work::e29_river,
        },
        Experiment {
            id: "e30",
            slug: "harvest-yield",
            title: "Partitioned service: harvest/yield under a stuttering partition",
            source: "Section 1",
            run: cluster_exp::e30_harvest_yield,
        },
        Experiment {
            id: "e31",
            slug: "raid-on-metal",
            title: "The Section 3.2 scenarios on a mechanical disk substrate",
            source: "Section 3.2",
            run: raid::e31_raid_on_metal,
        },
        Experiment {
            id: "e32",
            slug: "chunk-ablation",
            title: "Ablation: chunk size vs bookkeeping vs robustness",
            source: "Section 3.2",
            run: ablations::e32_chunk_ablation,
        },
        Experiment {
            id: "e33",
            slug: "persistence-ablation",
            title: "Ablation: registry persistence window vs notification volume",
            source: "Section 3.1",
            run: ablations::e33_persistence_ablation,
        },
        Experiment {
            id: "e34",
            slug: "perfplane",
            title: "Scenario 3bis: striping planned from the gossiped performance plane",
            source: "Section 3.2",
            run: plane::e34_perfplane,
        },
        Experiment {
            id: "e36",
            slug: "metastable",
            title: "Metastable collapse: retry-loop ignition/recovery hysteresis and mitigations",
            source: "Section 2 phenomena driving a Section 4 adaptation question",
            run: metastable_exp::e36_metastable,
        },
    ]
}

/// Looks an experiment up by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}
