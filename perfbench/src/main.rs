//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload's table is generated from
//! `--seed`; then one client runs samples back to back (a closed loop)
//! for `--seconds`, and every output is checked. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate run that records the
//! benchmark's spans around each layer call, reads the program's own
//! counters, probes single layers on fixed inputs and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the exit code is 0 only if every check passed. README.md in
//! this directory explains the workloads and metrics.

mod probes;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use incognito_core::verify::verify_soundness;
use incognito_core::SearchStats;
use incognito_table::Table;

use workloads::{Kind, ModelRun, Search, Workload};

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("search_s", "s"),
    ("search_cpu_s", "s"),
    ("peak_heap_bytes", "B"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name, unit, layer.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("table.scans", "count", "table"),
    ("table.rows_scanned", "rows", "table"),
    ("table.scan_s", "s", "table"),
    ("table.rollup_s", "s", "table"),
    ("table.scan.dense.ns_per_row", "ns/row", "table"),
    ("table.scan.packed.ns_per_row", "ns/row", "table"),
    ("table.rollup.ns_per_group_in", "ns/group", "table"),
    ("table.project.ns_per_group_in", "ns/group", "table"),
    ("spill.build.ns_per_row", "ns/row", "table.external"),
    ("spill.rollup.ns_per_group_in", "ns/group", "table.external"),
    ("spill.search_s", "s", "table.external"),
    ("spill.bytes_written", "B", "table.external"),
    ("spill.sets", "count", "table.external"),
    ("spill.upgrades", "count", "table.external"),
    ("lattice.candidates", "count", "lattice"),
    ("lattice.generate_s", "s", "lattice"),
    ("lattice.generate.ns_per_candidate", "ns/node", "lattice"),
    ("core.nodes_checked", "count", "core"),
    ("core.nodes_marked", "count", "core"),
    ("core.checked_frac", "ratio", "core"),
    ("core.iteration2_s", "s", "core"),
    ("core.cube_build_s", "s", "core"),
    ("core.other_s", "s", "core"),
    ("exec.cpu_util", "ratio", "exec"),
    ("exec.cube_build_speedup", "x", "exec"),
    ("models.subgraph_s", "s", "models"),
    ("models.cell_generalization_s", "s", "models"),
    ("models.cell_suppression_s", "s", "models"),
    ("models.other_s", "s", "models"),
    ("trace.search_s", "s", "bench"),
    ("trace.overhead_s", "s", "bench"),
];

/// Set-up is timed in batches: the table is generated back to back for
/// at least this long, and the batch's mean time per generation is one
/// set-up value. One batch runs before the loop and one after every
/// sample, so the set-up median spans the whole run, as the search median
/// does, and a 0.3 ms generation is timed over 20 ms of work, not alone.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let int = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let name = get("--workload")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seconds = int("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed: int("--seed")?,
        seconds,
        trace,
    })
}

/// One closed-loop sample.
#[derive(Default)]
struct Sample {
    wall: f64,
    cpu: f64,
    peak_heap: f64,
    /// Why the sample failed (error, panic or output check), if it did.
    failure: Option<String>,
    /// The search's own counters (search workloads).
    stats: Option<SearchStats>,
    /// Per-model timings (`adults-models`).
    models: Vec<ModelRun>,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Time `f` as one sample: wall, process CPU and peak live heap above the
/// level before it. A panic becomes the sample's failure.
fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (Result<R, String>, Sample) {
    incognito_obs::mem::reset_peak();
    let live0 = incognito_obs::mem::live_bytes();
    let cpu0 = sys::process_cpu_time();
    let (out, wall) = trace::time(span, || catch_unwind(AssertUnwindSafe(f)));
    let cpu = sys::process_cpu_time().saturating_sub(cpu0);
    let peak = incognito_obs::mem::peak_live_bytes().saturating_sub(live0);
    let sample = Sample {
        wall: wall.as_secs_f64(),
        cpu: cpu.as_secs_f64(),
        peak_heap: peak as f64,
        ..Sample::default()
    };
    (out.map_err(panic_message), sample)
}

/// Everything a workload's samples share.
struct Run<'a> {
    w: &'a Workload,
    seed: u64,
    table: Table,
    /// Mean generation time of each set-up batch.
    setup_times: Vec<f64>,
    spill_dir: PathBuf,
    /// Reference generalization set (search workloads), computed once by
    /// another engine outside the timed region.
    reference: Option<Vec<Vec<u8>>>,
    /// Fingerprints of the first sample's releases (`adults-models`).
    first_models: Option<Vec<u64>>,
}

impl Run<'_> {
    /// Generate the workload's table back to back for at least
    /// [`SETUP_BATCH`], dropping each table, and record the batch's mean
    /// time per generation.
    fn time_setup(&mut self) {
        let (reps, took) = trace::time("setup.batch", || {
            let started = Instant::now();
            let mut reps = 0u32;
            while reps == 0 || started.elapsed() < SETUP_BATCH {
                drop(self.w.dataset.generate(self.w.rows, self.seed));
                reps += 1;
            }
            reps
        });
        self.setup_times.push(took.as_secs_f64() / f64::from(reps));
    }

    fn sample(&mut self) -> Sample {
        match &self.w.kind {
            Kind::Search(s) => self.search_sample(s),
            Kind::Models => self.models_sample(),
        }
    }

    fn search_sample(&self, s: &Search) -> Sample {
        let cfg = workloads::pinned_config(self.w.k, s.engine, s.threads, None, &self.spill_dir);
        let (out, mut sample) = timed("sample.search", || {
            workloads::run_search(&self.table, self.w.qi, s.engine, &cfg)
        });
        let reference = self
            .reference
            .as_ref()
            .expect("search runs compute a reference");
        match out {
            Err(panic) => sample.failure = Some(format!("panicked: {panic}")),
            Ok(Err(e)) => sample.failure = Some(format!("error: {e}")),
            Ok(Ok(result)) => {
                let set = workloads::generalization_set(&result);
                if &set != reference {
                    sample.failure = Some(format!(
                        "generalization set {:016x} ({} nodes) differs from the reference {:016x} ({} nodes)",
                        workloads::set_fingerprint(&set),
                        set.len(),
                        workloads::set_fingerprint(reference),
                        reference.len()
                    ));
                }
                sample.stats = Some(result.stats().clone());
            }
        }
        sample
    }

    fn models_sample(&mut self) -> Sample {
        let (out, mut sample) = timed("sample.models", || {
            workloads::run_models(&self.table, self.w.qi, self.w.k)
        });
        match out {
            Err(panic) => sample.failure = Some(format!("panicked: {panic}")),
            Ok(runs) => {
                let prints: Vec<u64> = runs
                    .iter()
                    .map(|r| *r.outcome.as_ref().unwrap_or(&0))
                    .collect();
                let first = self.first_models.get_or_insert_with(|| prints.clone());
                for (i, r) in runs.iter().enumerate() {
                    let problem = match &r.outcome {
                        Err(why) => Some(why.clone()),
                        Ok(p) if *p != first[i] => {
                            Some("release differs from the first sample's".to_string())
                        }
                        Ok(_) => None,
                    };
                    if let Some(why) = problem {
                        sample.failure.get_or_insert(format!("{}: {why}", r.model));
                    }
                }
                sample.models = runs;
            }
        }
        sample
    }
}

/// Samples back to back until `budget` has passed (at least one), with a
/// batch of timed set-ups after each, outside the sample.
fn closed_loop(run: &mut Run<'_>, budget: Duration, first_id: u64) -> Vec<Sample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || started.elapsed() < budget {
        trace::set_sample(first_id + samples.len() as u64);
        samples.push(run.sample());
        run.time_setup();
    }
    trace::set_sample(0);
    samples
}

fn med_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<f64>>())
}

/// Per-layer metrics from traced samples, the untraced baseline and the
/// probes.
fn per_layer(
    w: &Workload,
    rows: usize,
    traced: &[Sample],
    untraced: &[Sample],
    probes: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = probes.iter().copied().collect();
    let stat =
        |f: &dyn Fn(&SearchStats) -> f64| med_of(traced, |s| s.stats.as_ref().map_or(0.0, f));
    let secs = |d: Duration| d.as_secs_f64();
    m.insert("table.scans", stat(&|st| st.table_scans as f64));
    m.insert(
        "table.rows_scanned",
        stat(&|st| (st.table_scans * rows) as f64),
    );
    m.insert("table.scan_s", stat(&|st| secs(st.timings.scan)));
    m.insert("table.rollup_s", stat(&|st| secs(st.timings.rollup)));
    m.insert("lattice.candidates", stat(&|st| st.candidates() as f64));
    m.insert(
        "lattice.generate_s",
        stat(&|st| secs(st.timings.candidate_gen)),
    );
    m.insert("core.nodes_checked", stat(&|st| st.nodes_checked() as f64));
    m.insert("core.nodes_marked", stat(&|st| st.nodes_marked() as f64));
    m.insert(
        "core.checked_frac",
        stat(&|st| st.nodes_checked() as f64 / st.candidates().max(1) as f64),
    );
    m.insert(
        "core.iteration2_s",
        stat(&|st| st.iterations.get(1).map_or(0.0, |i| secs(i.wall))),
    );
    m.insert(
        "core.cube_build_s",
        stat(&|st| st.timings.cube_build.map_or(0.0, secs)),
    );
    // `timings.total` excludes the cube build, so the whole search is
    // total + cube build. Scan and rollup are summed worker seconds, so at
    // more than one thread this remainder can go negative.
    m.insert(
        "core.other_s",
        stat(&|st| {
            let t = &st.timings;
            secs(t.total) - secs(t.scan) - secs(t.rollup) - secs(t.candidate_gen)
        }),
    );
    let wall = med_of(traced, |s| s.wall);
    let cpu = med_of(traced, |s| s.cpu);
    m.insert("exec.cpu_util", cpu / (wall * w.threads() as f64));
    let model_secs = |pick: &dyn Fn(&str) -> bool| {
        med_of(traced, |s| {
            s.models
                .iter()
                .filter(|r| pick(r.model))
                .map(|r| r.secs)
                .fold(0.0, |a, b| a + b)
        })
    };
    let named = [
        "full_subgraph_anonymize",
        "cell_generalization_anonymize",
        "cell_suppression_anonymize",
    ];
    m.insert("models.subgraph_s", model_secs(&|m| m == named[0]));
    m.insert(
        "models.cell_generalization_s",
        model_secs(&|m| m == named[1]),
    );
    m.insert("models.cell_suppression_s", model_secs(&|m| m == named[2]));
    m.insert("models.other_s", model_secs(&|m| !named.contains(&m)));
    m.insert("trace.search_s", wall);
    m.insert("trace.overhead_s", wall - med_of(untraced, |s| s.wall));
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("perfbench").is_dir() {
        eprintln!("perfbench: run from the repository root (no perfbench/ directory here)");
        return ExitCode::from(2);
    }
    let out_dir = root.join("perfbench").join("out");
    let spill_dir = out_dir.join("spill");
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        eprintln!("perfbench: cannot create {}: {e}", spill_dir.display());
        return ExitCode::from(2);
    }
    let w = args.workload;

    let mut lines: Vec<String> = Vec::new();
    let mut say = |line: String| {
        println!("{line}");
        lines.push(line);
    };
    say(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    ));
    let threads = w.threads();
    let provenance = format!(
        "provenance: commit={} nproc={} spill_dir={} ({}) dataset={} rows={} seed={} threads={}",
        sys::git_commit(&root),
        sys::nproc(),
        spill_dir.display(),
        sys::fs_type(&spill_dir),
        w.dataset.name(),
        w.rows,
        args.seed,
        threads
    );
    say(provenance);
    say(format!(
        "env: {} (every knob below is pinned)",
        sys::engine_env().join(" ")
    ));
    match &w.kind {
        Kind::Search(s) => say(format!(
            "config: engine={} qi={:?} k={} threads={} memory=unlimited spill_dir={} reference={}",
            s.engine.name(),
            w.qi,
            w.k,
            s.threads,
            spill_dir.display(),
            s.reference.name()
        )),
        Kind::Models => say(format!(
            "config: models={} qi={:?} k={} threads=1",
            workloads::MODELS
                .iter()
                .map(|m| m.0)
                .collect::<Vec<_>>()
                .join(", "),
            w.qi,
            w.k
        )),
    }
    say("loop: closed, 1 client".to_string());

    incognito_obs::trace::set_enabled(args.trace);

    // Set-up: generate the table once here; then time set-up batches,
    // one now and one after every sample.
    let (table, _) = trace::time("setup.generate", || w.dataset.generate(w.rows, args.seed));
    let mut run = Run {
        w,
        seed: args.seed,
        table,
        setup_times: Vec::new(),
        spill_dir: spill_dir.clone(),
        reference: None,
        first_models: None,
    };
    let mut run_failures: Vec<String> = Vec::new();

    // Reference result by another engine, in memory, outside the timed
    // region; then soundness of that set against the table.
    if let Kind::Search(s) = &w.kind {
        let cfg = workloads::pinned_config(w.k, s.reference, s.threads, None, &spill_dir);
        let (reference, took) = trace::time("reference", || {
            workloads::run_search(&run.table, w.qi, s.reference, &cfg)
        });
        match reference {
            Ok(r) => {
                let set = workloads::generalization_set(&r);
                let (verdict, vtook) =
                    trace::time("verify_soundness", || verify_soundness(&run.table, &r));
                say(format!(
                    "reference: {} -> {} generalizations, fingerprint {:016x} ({:.3} s); soundness {} ({:.3} s)",
                    s.reference.name(),
                    set.len(),
                    workloads::set_fingerprint(&set),
                    took.as_secs_f64(),
                    if verdict.is_ok() { "ok" } else { "FAILED" },
                    vtook.as_secs_f64()
                ));
                if let Err(e) = verdict {
                    run_failures.push(format!("verify_soundness: {e}"));
                }
                run.reference = Some(set);
            }
            Err(e) => {
                say(format!("reference: {} failed: {e}", s.reference.name()));
                run_failures.push(format!("reference run: {e}"));
            }
        }
    }

    run.time_setup();
    let budget = Duration::from_secs(args.seconds);
    let (samples, untraced) = if run_failures.is_empty() {
        if args.trace {
            // Half the time untraced, half traced with the program's own
            // metrics switched on too; the difference is the overhead.
            incognito_obs::trace::set_enabled(false);
            let untraced = closed_loop(&mut run, budget / 2, 1);
            incognito_obs::trace::set_enabled(true);
            incognito_obs::set_enabled(true);
            let traced = closed_loop(&mut run, budget / 2, untraced.len() as u64 + 1);
            (traced, untraced)
        } else {
            (closed_loop(&mut run, budget, 1), Vec::new())
        }
    } else {
        (Vec::new(), Vec::new())
    };
    let probes = if args.trace {
        match probes::run(args.seed, &spill_dir) {
            Ok(p) => p,
            Err(why) => {
                run_failures.push(format!("probe: {why}"));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    let all: Vec<&Sample> = untraced.iter().chain(&samples).collect();
    let attempted = all.len().max(1);
    let mut failed = all.iter().filter(|s| s.failure.is_some()).count();
    if !run_failures.is_empty() {
        // Every sample's output is suspect when the run-level checks fail.
        failed = attempted;
    }
    for (i, s) in all.iter().enumerate() {
        if let Some(why) = &s.failure {
            say(format!("FAILED sample {}: {why}", i + 1));
        }
    }
    for why in &run_failures {
        say(format!("FAILED check: {why}"));
    }
    let correct = failed == 0;
    let n = samples.len();

    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    if args.trace {
        let values = per_layer(w, run.table.num_rows(), &samples, &untraced, &probes);
        for &(name, unit, _) in PER_LAYER {
            // A failed probe leaves its metrics out; the run is already
            // marked failed.
            let v = values.get(name).copied().unwrap_or(0.0);
            let count = if probes.iter().any(|(p, _)| *p == name) {
                probes::REPS
            } else {
                n
            };
            metrics.push((name, unit, v, count));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let (v, count) = match name {
                "search_s" => (med_of(&samples, |s| s.wall), n),
                "search_cpu_s" => (med_of(&samples, |s| s.cpu), n),
                "peak_heap_bytes" => (med_of(&samples, |s| s.peak_heap), n),
                "setup_s" => (median(&mut run.setup_times.clone()), run.setup_times.len()),
                other => unreachable!("end-to-end metric {other} has no value"),
            };
            metrics.push((name, unit, v, count));
        }
    }
    let failed_frac = failed as f64 / attempted as f64;
    let walls: Vec<String> = all.iter().map(|s| format!("{:.4}", s.wall)).collect();
    say(format!(
        "sample wall times (s, in order): {}",
        walls.join(" ")
    ));
    let setups: Vec<String> = run
        .setup_times
        .iter()
        .map(|t| format!("{:.4}", t * 1e3))
        .collect();
    say(format!(
        "set-up batch means (ms, in order): {}",
        setups.join(" ")
    ));
    for &(name, unit, v, count) in &metrics {
        let layer = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map_or("end-to-end", |m| m.2);
        say(format!(
            "{name:<36} {v:>16.6} {unit:<9} n={count:<5} [{layer}]"
        ));
    }
    say(format!(
        "{:<36} {failed_frac:>16.6} {:<9} n={attempted:<5} [end-to-end] ({failed} of {attempted} failed)",
        "failed_frac", "ratio"
    ));

    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, args.trace as u8);
    if args.trace {
        let path = out_dir.join(format!("trace-{stem}.json"));
        let spans = incognito_obs::trace::drain();
        match trace::write(&path, &spans) {
            Ok(()) => say(format!(
                "trace: {} spans -> {}",
                spans.len(),
                path.display()
            )),
            Err(e) => say(format!("trace: cannot write {}: {e}", path.display())),
        }
    }
    let report = out_dir.join(format!("report-{stem}.txt"));
    if let Err(e) = std::fs::write(&report, lines.join("\n") + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", report.display());
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, v, _)| {
            // A run whose checks failed has no samples, and a ratio over
            // them is NaN, which JSON cannot carry.
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program emits, with the same units.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = incognito_obs::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(listed("per_layer"), own(&per_layer));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
