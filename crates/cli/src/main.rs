//! `glitch-cli`: the paper's full analysis pipeline on external netlists.
//!
//! Parse a BLIF or structural-Verilog circuit, validate it, simulate it
//! with seeded random stimuli under a chosen delay model, classify every
//! node's transitions into useful work and glitches by parity evaluation,
//! estimate the three-component dynamic power and, for combinational
//! circuits, explore cutset retiming — with DOT and VCD export along the
//! way.

#[macro_use]
mod out;

mod args;
mod commands;
mod telemetry;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = commands::dispatch(&raw);
    out::flush();
    match result {
        Ok(()) if out::failed() => ExitCode::FAILURE,
        Ok(()) => ExitCode::SUCCESS,
        Err(commands::CliError::Usage(message)) => {
            eprintln!("glitch-cli: {message}");
            eprintln!("{}", commands::USAGE);
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("glitch-cli: {err}");
            ExitCode::FAILURE
        }
    }
}
