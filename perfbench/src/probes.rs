//! Per-layer probes for the traced run: each times one layer's public
//! function on a fixed input, from outside, inside a benchmark span.

use std::path::Path;
use std::time::Duration;

use incognito_core::cube::Cube;
use incognito_core::{FreqHandle, FreqProvider};
use incognito_lattice::{generate_next, CandidateGraph, PruneStrategy};
use incognito_table::{ExternalFrequencySet, GroupSpec, Table};

use crate::median;
use crate::trace;
use crate::workloads::{
    generalization_set, pinned_config, run_search, Dataset, Engine, LANDSEND_QI4,
};

/// Timed repetitions per probe; the median is reported.
pub const REPS: usize = 5;
/// Spill fan-out, the same the engine's provider uses.
const SPILL_PARTITIONS: usize = 64;

/// Lands End Gender × Price: 692 ground slots, the dense tier.
const DENSE_SPEC: &[usize] = &[2, 4];
/// Lands End Zipcode × Order date: too many slots for the dense tier, so
/// it takes the packed tier (~455k groups at 500k rows).
const PACKED_SPEC: &[usize] = &[0, 1];
/// Levels one step above ground for [`PACKED_SPEC`].
const PACKED_UP: &[u8] = &[1, 1];
/// Adults attributes 0–7, the `adults-cube` quasi-identifier.
const ADULTS_QI8: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7];

/// Rows of the probe tables, the same as the workloads that use them.
const LANDSEND_ROWS: usize = 500_000;
const ADULTS_ROWS: usize = 45_222;

/// Rows of the budgeted-search probe's Lands End table.
const SPILL_SEARCH_ROWS: usize = 100_000;
/// The budgeted search's headroom above the live heap at its start. On
/// that table it is small enough that the large iteration-2 sets spill,
/// and large enough that some spilled parents' rollups fit back in memory
/// and upgrade (measured: 9 sets spilled, 3 upgraded).
const SPILL_SEARCH_HEADROOM: u64 = 4 << 20;

/// Run `f` [`REPS`] times, each inside a span, and return the median
/// wall time and the last result.
fn repeat<R>(name: &'static str, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let (out, took) = trace::time(name, &mut f);
        times.push(took.as_secs_f64());
        last = Some(out);
    }
    (
        Duration::from_secs_f64(median(&mut times)),
        last.expect("REPS > 0"),
    )
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Per-layer probe results, by metric name, or why a probe's output
/// failed its check.
pub fn run(seed: u64, spill_dir: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let landsend = trace::time("probe.setup.landsend", || {
        Dataset::LandsEnd.generate(LANDSEND_ROWS, seed)
    })
    .0;
    table_probes(&landsend, spill_dir, &mut out);
    drop(landsend);
    let small = trace::time("probe.setup.landsend", || {
        Dataset::LandsEnd.generate(SPILL_SEARCH_ROWS, seed)
    })
    .0;
    spill_search_probe(&small, spill_dir, &mut out)?;
    drop(small);
    let adults = trace::time("probe.setup.adults", || {
        Dataset::Adults.generate(ADULTS_ROWS, seed)
    })
    .0;
    adults_probes(&adults, spill_dir, &mut out);
    Ok(out)
}

fn handle_groups(h: &FreqHandle) -> usize {
    h.num_groups().expect("in-memory sets cannot fail")
}

/// Scan, rollup and spill kernels on Lands End.
fn table_probes(t: &Table, spill_dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    let cfg = pinned_config(2, Engine::Basic, 1, None, spill_dir);
    let provider = FreqProvider::new(t, &cfg);
    let rows = t.num_rows();
    let dense = GroupSpec::ground(DENSE_SPEC).expect("valid spec");
    let packed = GroupSpec::ground(PACKED_SPEC).expect("valid spec");

    let (d, _) = repeat("FreqProvider::scan(dense)", || {
        provider.scan(&dense, 1).expect("in-memory scan")
    });
    out.push(("table.scan.dense.ns_per_row", ns_per(d, rows)));

    let (d, packed_set) = repeat("FreqProvider::scan(packed)", || {
        provider.scan(&packed, 1).expect("in-memory scan")
    });
    out.push(("table.scan.packed.ns_per_row", ns_per(d, rows)));
    let groups = handle_groups(&packed_set);

    let (d, _) = repeat("FreqProvider::rollup", || {
        provider
            .rollup(&packed_set, t.schema(), PACKED_UP)
            .expect("in-memory rollup")
    });
    out.push(("table.rollup.ns_per_group_in", ns_per(d, groups)));
    drop(packed_set);

    let (d, ext) = repeat("ExternalFrequencySet::build", || {
        ExternalFrequencySet::build(t, &packed, SPILL_PARTITIONS, spill_dir).expect("spill build")
    });
    out.push(("spill.build.ns_per_row", ns_per(d, rows)));

    let (d, _) = repeat("ExternalFrequencySet::rollup", || {
        ext.rollup(t.schema(), PACKED_UP, spill_dir)
            .expect("spill rollup")
    });
    out.push(("spill.rollup.ns_per_group_in", ns_per(d, groups)));
}

/// `table.spill.{bytes,spilled_sets,upgrades}`; these gauges only move
/// while the program's metrics are enabled.
fn spill_gauges() -> [f64; 3] {
    let snap = incognito_obs::snapshot();
    [
        "table.spill.bytes",
        "table.spill.spilled_sets",
        "table.spill.upgrades",
    ]
    .map(|g| snap.gauge(g) as f64)
}

/// A Basic search on Lands End QI-4 under a memory budget with a little
/// headroom, so some sets spill and some upgrade back: the out-of-core
/// path end to end. Its result must equal the in-memory search's.
fn spill_search_probe(
    t: &Table,
    spill_dir: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    incognito_obs::set_enabled(true);
    let in_memory = pinned_config(2, Engine::Basic, 1, None, spill_dir);
    let expected = run_search(t, LANDSEND_QI4, Engine::Basic, &in_memory)
        .map(|r| generalization_set(&r))
        .map_err(|e| format!("in-memory search: {e}"))?;
    let mut deltas = [Vec::new(), Vec::new(), Vec::new()];
    let mut outcomes = Vec::with_capacity(REPS);
    let (d, ()) = repeat("incognito(budgeted)", || {
        let budget = incognito_obs::mem::live_bytes() + SPILL_SEARCH_HEADROOM;
        let cfg = pinned_config(2, Engine::Basic, 1, Some(budget), spill_dir);
        let before = spill_gauges();
        let result = run_search(t, LANDSEND_QI4, Engine::Basic, &cfg);
        let after = spill_gauges();
        for (i, v) in deltas.iter_mut().enumerate() {
            v.push(after[i] - before[i]);
        }
        outcomes.push(result.map(|r| generalization_set(&r)));
    });
    for outcome in outcomes {
        let set = outcome.map_err(|e| format!("budgeted search: {e}"))?;
        if set != expected {
            return Err(format!(
                "budgeted search found {} generalizations, the in-memory one {}",
                set.len(),
                expected.len()
            ));
        }
    }
    out.push(("spill.search_s", d.as_secs_f64()));
    let [bytes, sets, upgrades] = deltas.map(|mut v| median(&mut v));
    out.push(("spill.bytes_written", bytes));
    out.push(("spill.sets", sets));
    out.push(("spill.upgrades", upgrades));
    Ok(())
}

/// Projection, candidate generation and cube build on Adults.
fn adults_probes(t: &Table, spill_dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    let cfg = pinned_config(2, Engine::Basic, 1, None, spill_dir);
    let provider = FreqProvider::new(t, &cfg);
    let ground = provider
        .scan(&GroupSpec::ground(ADULTS_QI8).expect("valid spec"), 1)
        .expect("in-memory scan");
    let keep: Vec<usize> = (0..ADULTS_QI8.len() - 1).collect();
    let (d, _) = repeat("FreqProvider::project", || {
        provider
            .project(&ground, &keep)
            .expect("in-memory projection")
    });
    out.push((
        "table.project.ns_per_group_in",
        ns_per(d, handle_groups(&ground)),
    ));
    drop(ground);

    // A chain of a-priori generations with every node alive: the largest
    // candidate graphs the Adults QI-8 lattice can produce.
    let (d, candidates) = repeat("lattice::generate_next(chain)", || {
        let mut graph = CandidateGraph::initial(t.schema(), ADULTS_QI8);
        let mut candidates = 0usize;
        while graph.num_nodes() > 0 && graph.arity() < ADULTS_QI8.len() {
            let alive = vec![true; graph.num_nodes()];
            graph = generate_next(&graph, &alive, PruneStrategy::HashTree);
            candidates += graph.num_nodes();
        }
        candidates
    });
    out.push(("lattice.generate.ns_per_candidate", ns_per(d, candidates)));

    // `Cube::build_with_threads` is `build_with_config` with a default
    // config, which would inherit INCOGNITO_MEM_BUDGET; the pinned config
    // runs the same build with the budget fixed.
    let build = |threads: usize| {
        let cfg = pinned_config(2, Engine::Cube, threads, None, spill_dir);
        repeat("Cube::build_with_threads", || {
            Cube::build_with_config(t, ADULTS_QI8, &cfg)
                .expect("cube build")
                .len()
        })
        .0
    };
    let serial = build(1);
    let parallel = build(2);
    out.push((
        "exec.cube_build_speedup",
        serial.as_secs_f64() / parallel.as_secs_f64(),
    ));
}
