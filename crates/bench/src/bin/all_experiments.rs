//! Run every table, figure driver, and ablation; write RESULTS.md.
//!
//! ```sh
//! PKGM_SCALE=standard cargo run --release -p pkgm-bench --bin all_experiments
//! ```
//!
//! The report goes to `RESULTS.md` in the working directory, a file this
//! binary owns and rewrites whole. EXPERIMENTS.md, the hand-kept
//! performance ledger beside it, is never written.

use pkgm_bench::{ablations, figures, tables, Scale, World};
use std::fmt::Write as _;

/// The file the report is written to, relative to the working directory.
const OUTPUT: &str = "RESULTS.md";

fn main() {
    let scale = Scale::from_env();
    let start = std::time::Instant::now();
    let world = World::build(scale);

    let mut md = String::new();
    writeln!(md, "# RESULTS — paper vs measured\n").unwrap();
    writeln!(
        md,
        "Regenerated with `PKGM_SCALE={} cargo run --release -p pkgm-bench --bin all_experiments`.\n",
        scale.name()
    )
    .unwrap();
    writeln!(
        md,
        "Substrate: synthetic catalog (proprietary-Taobao substitute, see DESIGN.md §2), \
         from-scratch Transformer encoder instead of BERT_BASE, PKGM d = {} with k = {} \
         key relations. Absolute numbers are not comparable to the paper; the comparison \
         target is the *shape* of each table (who wins, by roughly how much, where the \
         exceptions sit). Paper rows are quoted inside each section.\n",
        world.dim,
        world.service.k()
    )
    .unwrap();

    eprintln!("== Table I ==");
    md.push_str(&tables::table1());
    md.push('\n');
    eprintln!("== Table II ==");
    md.push_str(&tables::table2(&world));
    md.push('\n');
    eprintln!("== Table III ==");
    md.push_str(&tables::table3(&world, scale));
    md.push('\n');
    eprintln!("== Table IV ==");
    md.push_str(&tables::table4(&world, scale));
    md.push('\n');
    eprintln!("== Tables V-VII (alignment) ==");
    let alignment = tables::alignment_experiment(&world, scale);
    md.push_str(&alignment.table5());
    md.push('\n');
    md.push_str(&alignment.table6());
    md.push('\n');
    md.push_str(&alignment.table7());
    md.push('\n');
    eprintln!("== Tables VIII-IX (recommendation) ==");
    let data = tables::interactions(&world, scale);
    md.push_str(&tables::table9(&data));
    md.push('\n');
    md.push_str(&tables::table8(&world, &data, scale));
    md.push('\n');

    eprintln!("== Figures ==");
    md.push_str(&figures::fig1(&world));
    md.push('\n');
    md.push_str(&figures::fig2(&world));
    md.push('\n');
    md.push_str(&figures::fig3(&world));
    md.push('\n');
    md.push_str(&figures::fig456_note());
    md.push('\n');

    eprintln!("== Ablations ==");
    md.push_str(&ablations::margin_sweep());
    md.push('\n');
    md.push_str(&ablations::dim_sweep());
    md.push('\n');
    md.push_str(&ablations::key_relation_sweep());
    md.push('\n');
    md.push_str(&ablations::incompleteness_sweep());
    md.push('\n');
    md.push_str(&ablations::baseline_comparison());
    md.push('\n');
    md.push_str(&ablations::service_vs_symbolic());

    writeln!(
        md,
        "\n---\nTotal wall time: {:.1}s at scale `{}`.",
        start.elapsed().as_secs_f64(),
        scale.name()
    )
    .unwrap();

    std::fs::write(OUTPUT, &md).expect("write RESULTS.md");
    println!("{md}");
    eprintln!("\nWrote {OUTPUT} ({:.1}s)", start.elapsed().as_secs_f64());
}
