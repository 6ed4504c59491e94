//! Quickstart: the paper's running example end to end.
//!
//! Reproduces the Figure 1 joining attack, then walks Basic Incognito over
//! the Patients table exactly as Examples 3.1/3.2 describe, prints every
//! search decision from the run's trace spans, and materializes the
//! minimal 2-anonymous view.
//!
//! Run with: `cargo run --release --example quickstart`

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{patients, voter_registration};
use incognito::obs::trace::{self, TraceRecord};
use incognito::obs::Json;

fn main() {
    let patients = patients();
    let voters = voter_registration();

    // --- The joining attack (Figure 1) --------------------------------
    println!("Patients table (quasi-identifier: Birthdate, Sex, Zipcode):");
    for row in 0..patients.num_rows() {
        println!(
            "  {:8} {:6} {:5}  {}",
            patients.label(row, 0),
            patients.label(row, 1),
            patients.label(row, 2),
            patients.label(row, 3),
        );
    }
    println!("\nJoining with the public voter registration list re-identifies:");
    for vr in 0..voters.num_rows() {
        for pr in 0..patients.num_rows() {
            if voters.label(vr, 1) == patients.label(pr, 0)
                && voters.label(vr, 2) == patients.label(pr, 1)
                && voters.label(vr, 3) == patients.label(pr, 2)
            {
                println!(
                    "  {} -> {} (via ⟨{}, {}, {}⟩)",
                    voters.label(vr, 0),
                    patients.label(pr, 3),
                    voters.label(vr, 1),
                    voters.label(vr, 2),
                    voters.label(vr, 3),
                );
            }
        }
    }

    // --- Incognito search (Examples 3.1 / 3.2) -------------------------
    let qi = [0usize, 1, 2];
    let k = 2;
    println!("\nRunning Basic Incognito (k = {k}) over ⟨Birthdate, Sex, Zipcode⟩...");
    trace::set_enabled(true);
    let result = run_incognito(&patients, &qi, &Config::new(k)).expect("valid workload");
    trace::set_enabled(false);
    let spans = trace::drain();
    let schema = patients.schema();
    // Span args name a node by its `a<attribute>L<level>` parts, e.g.
    // `a1L0,a2L2`; print it in the paper's ⟨S0,Z2⟩ notation.
    let show = |label: &str| -> String {
        let parts: Vec<String> = label
            .split(',')
            .map(|part| {
                let (a, l) = part[1..].split_once('L').expect("a<attribute>L<level>");
                let a: usize = a.parse().expect("attribute index");
                format!("{}{}", initial(schema.attribute(a).name()), l)
            })
            .collect();
        format!("⟨{}⟩", parts.join(","))
    };
    let int = |r: &TraceRecord, key: &str| r.arg(key).and_then(Json::as_int).unwrap_or(0);
    let text = |r: &TraceRecord, key: &str| {
        r.arg(key).and_then(Json::as_str).unwrap_or("?").to_owned()
    };
    for search in trace::build_tree(&spans) {
        for iteration in &search.children {
            let it = &spans[iteration.index];
            if it.name != "iteration" {
                continue;
            }
            println!(
                "  iteration {}: {} candidate nodes, {} edges",
                int(it, "arity"),
                int(it, "candidates"),
                int(it, "edges")
            );
            // Checks and marks in the order they opened; with more than one
            // thread a wave's checks run inside `exec.task` spans.
            let decisions = iteration.children.iter().flat_map(|c| {
                match spans[c.index].name.as_str() {
                    "exec.task" => c.children.iter().collect(),
                    _ => vec![c],
                }
            });
            for d in decisions {
                let r = &spans[d.index];
                match r.name.as_str() {
                    "check" => {
                        let anonymous = r.arg("anonymous").and_then(Json::as_bool) == Some(true);
                        println!(
                            "    check {:10} via {}: {}",
                            show(&text(r, "node")),
                            text(r, "via"),
                            if anonymous { "k-anonymous" } else { "NOT k-anonymous" }
                        );
                    }
                    "mark" => println!(
                        "    mark  {:10} (implied by {})",
                        show(&text(r, "node")),
                        show(&text(r, "implied_by"))
                    ),
                    _ => {}
                }
            }
            println!("    -> {} nodes survive", int(it, "survivors"));
        }
    }

    println!("\nAll {} k-anonymous full-domain generalizations:", result.len());
    for g in result.generalizations() {
        println!("  {}  (height {})", g.describe(schema, result.qi()), g.height());
    }
    let minimal = result.minimal_by_height();
    println!("\nMinimal (height-optimal) generalization(s):");
    for g in &minimal {
        println!("  {}", g.describe(schema, result.qi()));
    }

    let (view, suppressed) =
        result.materialize(&patients, minimal[0]).expect("reported gens are valid");
    println!("\nReleased view under {} ({suppressed} tuples suppressed):", minimal[0].describe(schema, result.qi()));
    for row in 0..view.num_rows() {
        println!(
            "  {:8} {:6} {:5}  {}",
            view.label(row, 0),
            view.label(row, 1),
            view.label(row, 2),
            view.label(row, 3),
        );
    }
    println!("\nThe join key ⟨Birthdate, Sex, Zipcode⟩ now matches ≥ {k} patients per voter: the attack is blunted.");
}

fn initial(name: &str) -> char {
    name.chars().next().unwrap_or('?')
}
