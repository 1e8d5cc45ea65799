//! The one entry point for every paper artefact: executes any experiment
//! manifest from `experiments/` (or anywhere else) through the spec-driven
//! driver. Every figure, table and sensitivity study of the paper is a
//! committed manifest; Tables I, II–III and V (`paper_tables.json`) run no
//! sweep and reject the execution flags and `--app`.
//!
//! Usage:
//!
//! ```text
//! experiments --spec <path> [--scale-down] [--app <name>] [--threads <n>]
//!             [--store <dir>] [--resume] [--json <path>]
//! ```
//!
//! The manifest picks the artefact, the workload/mix list, the scenario
//! axes and the output artefacts declaratively — see
//! [`ava_bench::spec`] for the schema. The shared execution flags mean what
//! they mean everywhere; where the manifest's `execution` block sets the
//! same option, the command line wins field by field, so one manifest can
//! be run single-threaded locally and against a result store on CI without
//! editing it. `--json <path>` likewise overrides the manifest's
//! `output.json`.
//!
//! `--scale-down` shrinks the experiment to smoke size (first workload,
//! first value of every axis, reduced system lists) so CI can validate
//! every committed manifest end to end in seconds. `--app <name>`
//! overrides the manifest's `app` filter.

use std::process::ExitCode;

use ava_bench::cli::{usage_error, BenchArgs};
use ava_bench::driver;
use ava_bench::spec::{ArtefactKind, ExperimentSpec};

const USAGE: &str = "experiments --spec <path> [--scale-down] [--app <name>] [--threads <n>] \
                     [--store <dir>] [--resume] [--json <path>]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => usage_error(USAGE, &e),
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = BenchArgs::parse()?;
    let spec_path = args
        .take_value("--spec")?
        .ok_or("--spec <path> is required")?;
    let scale_down = args.take_switch("--scale-down");
    let app = args.take_value("--app")?;
    args.finish()?;

    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read manifest {spec_path}: {e}"))?;
    let mut spec = ExperimentSpec::parse(&spec_path, &text)?;
    if app.is_some() {
        spec.app = app;
    }
    if scale_down {
        spec.scale_down();
    }
    // The tables artefact runs no sweep and rejects the execution flags
    // itself: open no store for it, so a rejected `--store` creates nothing.
    if spec.artefact != ArtefactKind::Tables {
        args.apply_execution(&spec.execution)?;
    }
    driver::run(&spec, &args)
}
