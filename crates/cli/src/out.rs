//! The one writer every command's standard output goes through.
//!
//! `println!` panics when standard output is gone, as when the command is
//! piped into `head`. The `outln!` and `out!` macros write through
//! [`write()`] instead: once a write fails, later output is dropped and the
//! command runs on to its end, so it still writes its files. A reader
//! that went away (`BrokenPipe`) ends the output quietly; any other write
//! error is reported once on standard error and fails the command
//! ([`failed`]).

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set at the first failed write: nothing more goes to standard output.
static CLOSED: AtomicBool = AtomicBool::new(false);
/// Set when a write failed for another reason than a closed reader.
static FAILED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to standard output, unless an earlier write failed.
pub(crate) fn write(args: fmt::Arguments<'_>) {
    if !CLOSED.load(Ordering::Relaxed) {
        if let Err(err) = io::stdout().lock().write_fmt(args) {
            close(&err);
        }
    }
}

/// Flushes standard output, unless an earlier write failed.
pub(crate) fn flush() {
    if !CLOSED.load(Ordering::Relaxed) {
        if let Err(err) = io::stdout().flush() {
            close(&err);
        }
    }
}

/// Drops all later output after `err`, reporting it unless the reader
/// went away.
fn close(err: &io::Error) {
    CLOSED.store(true, Ordering::Relaxed);
    if err.kind() != io::ErrorKind::BrokenPipe {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("glitch-cli: cannot write to standard output: {err}");
    }
}

/// Whether a write to standard output failed for another reason than a
/// reader that went away.
pub(crate) fn failed() -> bool {
    FAILED.load(Ordering::Relaxed)
}

/// `print!` through [`write()`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write()`].
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
