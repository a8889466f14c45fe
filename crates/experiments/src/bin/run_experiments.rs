//! Runs experiments and prints their tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gcs-experiments --bin run_experiments            # all, quick scale
//! cargo run --release -p gcs-experiments --bin run_experiments e11       # just E11
//! GCS_SCALE=full cargo run --release -p gcs-experiments --bin run_experiments
//! GCS_OUT=target/experiments cargo run --release -p gcs-experiments --bin run_experiments
//! ```
//!
//! Positional arguments select experiments by id (`e1` … `e15`); with none
//! given, every experiment runs. With `GCS_OUT` set, each table is
//! additionally written as CSV into the given directory, along with
//! `cell_metrics.json`, the reference sweep's per-cell telemetry (see
//! `gcs_experiments::reference_cell_metrics_json`).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use gcs_experiments::{reference_cell_metrics_json, run_all, run_selected, Scale, SweepRunner};

fn main() {
    let scale = Scale::from_env();
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();

    let tables = if ids.is_empty() {
        eprintln!("running all experiments at {scale:?} scale…");
        run_all(scale)
    } else {
        eprintln!("running {} at {scale:?} scale…", ids.join(", "));
        run_selected(scale, &ids)
    };

    let out_dir = std::env::var("GCS_OUT").ok().map(PathBuf::from);
    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).expect("create output directory");
    }

    let mut counters: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for table in &tables {
        println!("{table}");
        if let Some(dir) = &out_dir {
            let n = counters.entry(table.id().to_string()).or_insert(0);
            *n += 1;
            let path = dir.join(format!("{}_{}.csv", table.id(), n));
            fs::write(&path, table.to_csv()).expect("write CSV");
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(dir) = &out_dir {
        let path = dir.join("cell_metrics.json");
        fs::write(&path, reference_cell_metrics_json(&SweepRunner::new()))
            .expect("write cell metrics");
        eprintln!("wrote {}", path.display());
    }

    eprintln!(
        "done: {} tables in {:.1}s",
        tables.len(),
        started.elapsed().as_secs_f64()
    );
}
