//! E5 — Figure 12: the combined cost of Cube Incognito, split into the
//! zero-generalization cube build and the anonymization phase that runs on
//! top of it, for k = 2 and varied quasi-identifier size (Adults 3–9,
//! Lands End 3–8).
//!
//! The paper's observation to reproduce: on the small Adults table the
//! cube is cheap to build and Cube Incognito beats Basic; on the large
//! Lands End table the build dominates, but the *marginal* anonymization
//! cost once the cube is materialized is lower than Basic Incognito.
//!
//! Usage: `cargo run -p incognito-bench --release --bin fig12_cube_breakdown
//!         [--rows-adults N] [--rows-landsend N] [--threads N]
//!         [--mem-budget BYTES] [--quick] [--trace [path]]`

use std::time::Instant;

use incognito_bench::{apply_budget, init_tracing, secs, write_trace, BenchReport, Cli, Series};
use incognito_core::cube::{anonymize_with_cube, Cube};
use incognito_core::{incognito, Config};
use incognito_data::{adults, landsend};
use incognito_table::Table;

fn panel(
    name: &str,
    dataset: &str,
    table: &Table,
    sizes: &[usize],
    threads: usize,
    mem_budget: Option<u64>,
    report: &mut BenchReport,
) {
    let mut series = Series::new(
        name,
        &["QI size", "Cube build", "Anonymization", "Cube total", "Basic Incognito"],
    );
    for &n in sizes {
        let qi: Vec<usize> = (0..n).collect();
        let cfg = apply_budget(Config::new(2).with_threads(threads), mem_budget);

        let t0 = Instant::now();
        let cube = Cube::build_with_config(table, &qi, &cfg).expect("valid workload");
        let build = t0.elapsed();
        let t1 = Instant::now();
        let r = anonymize_with_cube(table, &cube, &cfg).expect("valid workload");
        let anon = t1.elapsed();
        drop(cube);
        report.record_run("Cube Incognito", dataset, cfg.k, n, &r, build + anon);

        let t2 = Instant::now();
        let basic = incognito(table, &qi, &cfg).expect("valid workload");
        let basic_time = t2.elapsed();
        assert_eq!(r.generalizations(), basic.generalizations(), "variants agree");
        report.record_run("Basic Incognito", dataset, cfg.k, n, &basic, basic_time);

        series.push(vec![
            n.to_string(),
            secs(build),
            secs(anon),
            secs(build + anon),
            secs(basic_time),
        ]);
        eprintln!(
            "  {name} qi={n}: build={} anon={} basic={}",
            secs(build),
            secs(anon),
            secs(basic_time)
        );
    }
    series.emit();
}

fn main() {
    let cli = Cli::from_env();
    let quick = cli.has("quick");
    let adults_cfg = cli.adults_config();
    let landsend_cfg = cli.landsend_config(100_000);

    let threads = cli.threads();
    let mem_budget = cli.mem_budget();
    let trace = init_tracing(&cli, "fig12_cube_breakdown");
    let mut report = BenchReport::new("fig12_cube_breakdown");
    report.set("rows_adults", adults_cfg.rows);
    report.set("rows_landsend", landsend_cfg.rows);
    report.set("quick", quick);
    report.set("threads", threads);
    report.set_mem_budget(mem_budget);

    eprintln!("generating Adults ({} rows)...", adults_cfg.rows);
    let a = adults::adults(&adults_cfg);
    let adult_sizes: Vec<usize> = if quick { (3..=6).collect() } else { (3..=9).collect() };
    panel("fig12_adults_k2", "adults", &a, &adult_sizes, threads, mem_budget, &mut report);
    drop(a);

    eprintln!("generating Lands End ({} rows)...", landsend_cfg.rows);
    let l = landsend::lands_end(&landsend_cfg);
    let lands_sizes: Vec<usize> = if quick { (3..=5).collect() } else { (3..=8).collect() };
    panel("fig12_landsend_k2", "landsend", &l, &lands_sizes, threads, mem_budget, &mut report);

    if cli.has("mem") {
        report.print_memory_table();
    }
    report.finish();
    if let Some(path) = trace {
        write_trace(&path);
    }
}
