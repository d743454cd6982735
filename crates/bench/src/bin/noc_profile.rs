//! Reads the suite's JSON artifacts.
//!
//! ```text
//! noc_profile summary <trace.json>
//! noc_profile check <artifact.json> [--same-as <other.json>]
//! ```
//!
//! `summary` prints a Chrome-trace telemetry artifact (written by any
//! figure binary's `--trace <path>` flag) as a per-phase wall-time
//! breakdown: the share of the root spans' wall time (first root's start
//! to last root's end; a figure has one root, its `figure` span) covered
//! by named phases (merged intervals), each phase category's self time (its
//! spans' durations minus their direct children's), each thread's busy
//! time, and the recorded counters.
//!
//! `check` is the artifact checker CI runs: the envelope and schema
//! version, then the figure's invariants from its registry entry
//! (`noc_bench::figures::FIGURES`), or for a trace its well-formedness and
//! at least 95 % of the root spans' wall time attributed to named phases.
//! `--same-as` also requires the artifact to equal another one, key order
//! included, with the figure's measured fields (fig_faults' `wall_ms`,
//! fig_scale's timings) masked.
//!
//! Both exit 1 when the file is missing, malformed or fails its checks.

use noc_bench::check::{check, same_as, CheckError};
use noc_flow::json::SCHEMA_VERSION;
use noc_flow::TraceSummary;
use std::process::ExitCode;

const USAGE: &str = "usage: noc_profile summary <trace.json>\n       \
noc_profile check <artifact.json> [--same-as <other.json>]";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))
}

fn summary(path: &str) -> Result<(), String> {
    let summary = TraceSummary::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", summary.render_table());
    Ok(())
}

fn check_file(path: &str, other: Option<&str>) -> Result<(), String> {
    let text = read(path)?;
    let checked = check(&text).and_then(|figure| match other {
        Some(other) => {
            let theirs = read(other).map_err(CheckError::Failed)?;
            same_as(&text, &theirs)
                .map_err(|e| CheckError::Failed(format!("{e} from {other}")))
                .map(|()| figure)
        }
        None => Ok(figure),
    });
    match checked {
        Ok(figure) => {
            println!("{path}: ok ({figure}, schema {SCHEMA_VERSION})");
            Ok(())
        }
        Err(error) => Err(format!("{path}: FAIL — {error}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["summary", path] => summary(path),
        ["check", path] => check_file(path, None),
        ["check", path, "--same-as", other] => check_file(path, Some(other)),
        ["--help" | "-h"] => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("noc_profile: {message}");
            ExitCode::FAILURE
        }
    }
}
