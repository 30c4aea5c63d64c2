//! Command-line plumbing shared by the crate's binaries: the flag-value
//! helpers every `main` parses its arguments with, and the SIGTERM flag
//! the daemons poll to drain gracefully.

use std::sync::atomic::{AtomicBool, Ordering};

/// The value following the flag at `args[*i]`; advances `i` onto it.
/// Exits with status 2, naming the flag, when the value is missing.
pub fn take(args: &[String], i: &mut usize) -> String {
    let flag = &args[*i];
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        std::process::exit(2);
    })
}

/// [`take`], parsed as `T`. Exits with status 2, naming the flag, when
/// the value does not parse.
pub fn parse<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let v = take(args, i);
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{v}` for {}", args[*i - 1]);
        std::process::exit(2);
    })
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler (once) and returns the flag it sets —
/// the graceful-drain trigger for `sprout_served` (either backend) and
/// `sprout_fleet`. On non-Unix platforms the flag simply never fires.
pub fn sigterm_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            extern "C" fn handler(_sig: i32) {
                // Only the async-signal-safe atomic store happens here.
                SIGTERM.store(true, Ordering::SeqCst);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGTERM_NO: i32 = 15;
            let f: extern "C" fn(i32) = handler;
            #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
            unsafe {
                signal(SIGTERM_NO, f as usize);
            }
        });
    }
    &SIGTERM
}
