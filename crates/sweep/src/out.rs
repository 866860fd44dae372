//! Standard output of the `sweep` CLI.
//!
//! Every line the CLI prints — campaign preambles, summary renderers, the
//! `--progress json` event stream, `list`/`describe` — goes through
//! [`write()`], by way of this crate's [`print!`](crate::print!) and
//! [`println!`](crate::println!), which the printing modules import in place
//! of the standard ones. A reader that has gone away (`sweep table2 --quick |
//! head -2`) ends the process quietly with success: nobody is left to print
//! for, and the reports and cache entries already written stay valid (a
//! rerun over the same cache recomputes only the unfinished points, as
//! after a kill). Any other write error
//! still panics, as the standard macros do.

use std::fmt;
use std::io::{ErrorKind, Write};

/// Writes `args` to standard output and flushes them, ending the process
/// quietly if the reader has closed the pipe.
///
/// # Panics
///
/// Panics on any write error other than a broken pipe.
pub fn write(args: fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// The standard `print!`, written through [`write()`].
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// The standard `println!`, written through [`write()`].
#[macro_export]
macro_rules! println {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
