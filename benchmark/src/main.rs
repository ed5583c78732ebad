//! Helper binary of the end-to-end midas benchmark (`benchmark/run.py`).
//!
//! ```text
//! midas-e2e gen   WORKLOAD SEED DIR [--small]
//! midas-e2e trace WORKLOAD DIR NPROC [--small]
//! midas-e2e calib THREADS
//! ```
//!
//! `gen` writes a workload's inputs from its seed with the in-repo
//! generators: `facts.tsv`, `kb.tsv`, the CLI argument list `argv.txt` the
//! driver invokes `midas` with, `planted.tsv` (the §IV-D optimal slices a
//! `discover-giant` report must contain) and `inputs.json` (input size).
//! For `augment-loop` it also fills the snapshot cache `DIR/cache`.
//!
//! `trace` times calls into each layer's public functions on those inputs,
//! with the program's telemetry enabled, and prints the spans, their self
//! times, the telemetry snapshot and every per-layer metric as one JSON
//! line.
//!
//! `calib` runs the fixed host-speed calibration kernel on THREADS threads.

mod calib;
mod trace;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let pos: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--small")
        .collect();
    let result = match pos.as_slice() {
        ["gen", name, seed, dir] => workload::Workload::parse(name, small).and_then(|w| {
            let seed = seed
                .parse()
                .map_err(|e| format!("bad seed {seed:?}: {e}"))?;
            w.generate(seed, dir.as_ref())
        }),
        ["trace", name, dir, nproc] => workload::Workload::parse(name, small).and_then(|w| {
            let nproc = nproc
                .parse()
                .map_err(|e| format!("bad nproc {nproc:?}: {e}"))?;
            trace::run(&w, dir.as_ref(), nproc)
        }),
        ["calib", threads] => threads
            .parse()
            .map(calib::run)
            .map_err(|e| format!("bad thread count {threads:?}: {e}")),
        _ => Err("usage: midas-e2e gen WORKLOAD SEED DIR [--small] | \
             midas-e2e trace WORKLOAD DIR NPROC [--small] | midas-e2e calib THREADS"
            .to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("midas-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
