//! `aos` — the command-line front end of the reproduction.
//!
//! ```text
//! aos attacks                          stage the §VII attack gallery
//! aos run <workload> [options]         one workload on one system
//! aos compare <workload> [--scale f]   all five systems, normalized
//! aos stats [options]                  merged pipeline telemetry counters
//! aos campaign [options]               parallel workload x system matrix
//! aos ablate [options]                 MCQ depth x BWB size geometry sweep
//! aos faults [options]                 seeded fault-injection sweep
//! aos fuzz [options]                   adversarial differential fuzzing
//! aos lint [options]                   static protocol verification
//! aos matrix [options]                 cross-policy detection matrix
//! aos table <1|2|3|4> [--scale f]      reproduce a paper table
//! aos fig <11|14|15|16|17|18> [--scale f]   reproduce a paper figure
//! aos repro (--out d | --check d)      every results/ file, written or diffed
//! aos pac [--allocations n] [--bits b] the Fig. 11 microbenchmark
//! aos serve [options]                  long-running NDJSON job service
//! aos corpus record|replay|verify      persistent CRC-checked corpora
//! aos params                           the Table IV machine
//! aos workloads                        list the calibrated workloads
//! ```
//!
//! Exit codes (documented in `aos help`): 0 success, 1 a strict gate
//! found real findings, 2 unusable invocation or execution error.

use std::process::ExitCode;

mod args;
mod commands;

use commands::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{}", commands::usage());
        return ExitCode::from(2);
    };
    let rest = &argv[1..];
    let outcome: Result<(), CliError> = match command.as_str() {
        "attacks" => commands::attacks().map_err(CliError::from),
        "run" => commands::run(rest).map_err(CliError::from),
        "compare" => commands::compare(rest).map_err(CliError::from),
        "stats" => commands::stats(rest).map_err(CliError::from),
        "campaign" => commands::campaign(rest).map_err(CliError::from),
        "ablate" => commands::ablate(rest),
        "faults" => commands::faults(rest),
        "fuzz" => commands::fuzz(rest),
        "lint" => commands::lint(rest),
        "matrix" => commands::matrix_cmd(rest),
        "table" | "fig" => commands::report(command, rest).map_err(CliError::from),
        "repro" => commands::repro(rest),
        "pac" => commands::pac(rest).map_err(CliError::from),
        "serve" => commands::serve(rest),
        "corpus" => commands::corpus(rest),
        "params" => commands::params().map_err(CliError::from),
        "workloads" => commands::workloads().map_err(CliError::from),
        "help" | "--help" | "-h" => {
            print!("{}", commands::usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // Findings: the command ran to completion and its gate
        // reported real findings — no usage dump, the gate already
        // explained itself.
        Err(CliError::Findings(message)) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprint!("{}", commands::usage());
            ExitCode::from(2)
        }
    }
}
