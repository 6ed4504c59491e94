//! The workloads: their inputs, the pinned engine configuration, one
//! closed-loop sample each, and the checks on every output.

use std::path::Path;

use incognito_core::{cube, incognito, AlgoError, AnonymizationResult, Config};
use incognito_data::{adults, lands_end, AdultsConfig, LandsEndConfig};
use incognito_lattice::PruneStrategy;
use incognito_models::local::{cell_generalization_anonymize, cell_suppression_anonymize};
use incognito_models::mondrian::mondrian_anonymize;
use incognito_models::partition1d::ordered_partition_anonymize;
use incognito_models::subgraph::full_subgraph_anonymize;
use incognito_models::subtree::{full_subtree_anonymize, SubtreeMode};
use incognito_models::tds::tds_anonymize;
use incognito_models::AnonymizedRelease;
use incognito_table::{Table, TableError};

use crate::trace;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Adults,
    LandsEnd,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Adults => "Adults",
            Dataset::LandsEnd => "Lands End",
        }
    }

    /// Generate `rows` rows from `seed` (the data crate's generators).
    pub fn generate(self, rows: usize, seed: u64) -> Table {
        match self {
            Dataset::Adults => adults(&AdultsConfig { rows, seed }),
            Dataset::LandsEnd => lands_end(&LandsEndConfig { rows, seed }),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Basic,
    SuperRoots,
    Cube,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Basic => "Basic Incognito",
            Engine::SuperRoots => "Super-roots Incognito",
            Engine::Cube => "Cube Incognito",
        }
    }
}

/// A full-domain search workload.
pub struct Search {
    pub engine: Engine,
    pub threads: usize,
    /// The engine that computes the reference result, once per run.
    pub reference: Engine,
}

pub enum Kind {
    Search(Search),
    /// One sample runs all eight §5 anonymizers.
    Models,
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub rows: usize,
    pub qi: &'static [usize],
    pub k: u64,
    pub kind: Kind,
}

impl Workload {
    /// Worker threads the workload's samples may use.
    pub fn threads(&self) -> usize {
        match &self.kind {
            Kind::Search(s) => s.threads,
            Kind::Models => 1,
        }
    }
}

/// Lands End QI = Zipcode, Order date, Gender, Style, Price.
const LANDSEND_QI5: &[usize] = &[0, 1, 2, 3, 4];
/// Lands End QI = Zipcode, Order date, Gender, Style.
pub const LANDSEND_QI4: &[usize] = &[0, 1, 2, 3];
/// Adults attributes 0–7 (all but Salary Class).
const ADULTS_QI8: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7];
/// Adults QI = Age, Marital Status, Education.
const ADULTS_QI3: &[usize] = &[0, 3, 4];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "landsend-basic",
        dataset: Dataset::LandsEnd,
        rows: 500_000,
        qi: LANDSEND_QI5,
        k: 2,
        kind: Kind::Search(Search {
            engine: Engine::Basic,
            threads: 1,
            reference: Engine::SuperRoots,
        }),
    },
    Workload {
        name: "adults-cube",
        dataset: Dataset::Adults,
        rows: 45_222,
        qi: ADULTS_QI8,
        k: 2,
        kind: Kind::Search(Search {
            engine: Engine::Cube,
            threads: 2,
            reference: Engine::Basic,
        }),
    },
    Workload {
        name: "adults-models",
        dataset: Dataset::Adults,
        rows: 1_000,
        qi: ADULTS_QI3,
        k: 15,
        kind: Kind::Models,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A configuration with every knob pinned, so no `INCOGNITO_*` default
/// can change what a workload runs.
pub fn pinned_config(
    k: u64,
    engine: Engine,
    threads: usize,
    budget: Option<u64>,
    spill_dir: &Path,
) -> Config {
    let cfg = Config::new(k)
        .with_suppression(0)
        .with_prune(PruneStrategy::HashTree)
        .with_rollup(true)
        .with_superroots(engine == Engine::SuperRoots)
        .with_threads(threads)
        .with_spill_dir(spill_dir);
    match budget {
        Some(b) => cfg.with_memory_budget(b),
        None => cfg.with_unlimited_memory(),
    }
}

pub fn run_search(
    table: &Table,
    qi: &[usize],
    engine: Engine,
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    match engine {
        Engine::Basic | Engine::SuperRoots => incognito(table, qi, cfg),
        Engine::Cube => cube::cube_incognito(table, qi, cfg),
    }
}

/// The sorted generalization set, as level vectors.
pub fn generalization_set(result: &AnonymizationResult) -> Vec<Vec<u8>> {
    let mut set: Vec<Vec<u8>> = result
        .generalizations()
        .iter()
        .map(|g| g.levels.clone())
        .collect();
    set.sort_unstable();
    set
}

/// FNV-1a over a byte stream; the fingerprint printed in reports.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

pub fn set_fingerprint(set: &[Vec<u8>]) -> u64 {
    fnv1a(
        set.iter()
            .flat_map(|levels| levels.iter().copied().chain([0xff])),
    )
}

type Anonymizer = fn(&Table, &[usize], u64) -> Result<AnonymizedRelease, TableError>;

/// The eight §5 anonymizers one `adults-models` sample runs, in order,
/// each named by the function it calls.
pub const MODELS: &[(&str, Anonymizer)] = &[
    ("full_subtree_anonymize", |t, qi, k| {
        full_subtree_anonymize(t, qi, k, SubtreeMode::FullSubtree)
    }),
    ("full_subtree_anonymize(unrestricted)", |t, qi, k| {
        full_subtree_anonymize(t, qi, k, SubtreeMode::Unrestricted)
    }),
    ("ordered_partition_anonymize", ordered_partition_anonymize),
    ("full_subgraph_anonymize", full_subgraph_anonymize),
    ("mondrian_anonymize", mondrian_anonymize),
    ("cell_suppression_anonymize", cell_suppression_anonymize),
    (
        "cell_generalization_anonymize",
        cell_generalization_anonymize,
    ),
    ("tds_anonymize", tds_anonymize),
];

/// One model's outcome within a sample.
pub struct ModelRun {
    pub model: &'static str,
    pub secs: f64,
    /// Fingerprint of the release, or why it failed its check.
    pub outcome: Result<u64, String>,
}

/// Run every §5 anonymizer once, each call inside its own span, and check
/// each release: k-anonymous, and every source row either released or
/// suppressed.
pub fn run_models(table: &Table, qi: &[usize], k: u64) -> Vec<ModelRun> {
    MODELS
        .iter()
        .map(|&(model, anonymize)| {
            let (release, took) = trace::time(model, || anonymize(table, qi, k));
            ModelRun {
                model,
                secs: took.as_secs_f64(),
                outcome: check_release(release, table, k),
            }
        })
        .collect()
}

fn check_release(
    release: Result<AnonymizedRelease, TableError>,
    table: &Table,
    k: u64,
) -> Result<u64, String> {
    let r = release.map_err(|e| format!("error: {e}"))?;
    if !r.is_k_anonymous(k) {
        return Err(format!("release is not {k}-anonymous"));
    }
    let rows = table.num_rows() as u64;
    let kept = r.kept_rows.len() as u64;
    let classed: u64 = r.class_sizes.iter().sum();
    if r.source_rows != rows || kept + r.suppressed != rows {
        return Err(format!(
            "rows unaccounted: {kept} kept + {} suppressed != {rows} source rows",
            r.suppressed
        ));
    }
    if r.view.num_rows() as u64 != kept || classed != kept {
        return Err(format!(
            "view has {} rows and classes cover {classed}, but {kept} rows were kept",
            r.view.num_rows()
        ));
    }
    let mut sizes = r.class_sizes.clone();
    sizes.sort_unstable();
    let kept_rows = r.kept_rows.iter().map(|&i| i as u64);
    Ok(fnv1a(
        sizes
            .into_iter()
            .chain([u64::MAX, r.suppressed, u64::MAX])
            .chain(kept_rows)
            .flat_map(u64::to_le_bytes),
    ))
}
