//! `carpool-lint` binary: scans the workspace and exits nonzero on any
//! un-waived finding. See the crate docs for the rule list and waiver
//! syntax.
#![allow(
    clippy::print_stderr,
    reason = "tool binary: reports usage errors on stderr"
)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match carpool_lint::LintOptions::parse(args) {
        Ok(opts) => opts,
        Err(usage) => {
            eprintln!("carpool-lint: {usage}");
            return ExitCode::from(2);
        }
    };
    match carpool_lint::run(&opts) {
        0 => ExitCode::SUCCESS,
        1 => ExitCode::from(1),
        _ => ExitCode::from(2),
    }
}
