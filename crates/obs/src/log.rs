//! Leveled stderr event sink replacing ad-hoc `eprintln!` progress and
//! debug lines.
//!
//! The level is process-global, initialized lazily from the
//! environment and overridable by the CLI (`--quiet`):
//!
//! * `DSOLVE_LOG=error|warn|info|debug` picks the level explicitly;
//! * otherwise the default is `warn`, matching the pipeline's historic
//!   silent-by-default behavior.
//!
//! Call sites guard on [`enabled`] before formatting, so a disabled
//! level costs one relaxed atomic load.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures the user must see.
    Error = 0,
    /// Suspicious but recoverable conditions.
    Warn = 1,
    /// Progress reporting (solve headers, round summaries).
    Info = 2,
    /// Per-iteration internals (weakening dumps).
    Debug = 3,
}

const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn parse_level(s: &str) -> Option<Level> {
    match s.trim().to_ascii_lowercase().as_str() {
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" | "trace" => Some(Level::Debug),
        _ => None,
    }
}

fn level_from_env() -> Level {
    std::env::var("DSOLVE_LOG")
        .ok()
        .and_then(|v| parse_level(&v))
        .unwrap_or(Level::Warn)
}

fn current() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != UNINIT {
        return l;
    }
    let init = level_from_env() as u8;
    // Racing initializers compute the same value; last store wins.
    LEVEL.store(init, Ordering::Relaxed);
    init
}

/// Overrides the level (e.g. `--quiet` sets [`Level::Error`]).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether messages at `l` are currently emitted.
#[inline]
pub fn enabled(l: Level) -> bool {
    (l as u8) <= current()
}

/// Writes one message to stderr if the level passes the filter.
pub fn emit(l: Level, msg: &str) {
    if enabled(l) {
        eprintln!("{msg}");
    }
}

/// Logs at error level (always shown, even under `--quiet`).
#[macro_export]
macro_rules! log_error {
    ($($t:tt)*) => {
        $crate::log::emit($crate::log::Level::Error, &format!($($t)*))
    };
}

/// Logs at warn level.
#[macro_export]
macro_rules! log_warn {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::emit($crate::log::Level::Warn, &format!($($t)*));
        }
    };
}

/// Logs at info level (progress reporting).
#[macro_export]
macro_rules! log_info {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::emit($crate::log::Level::Info, &format!($($t)*));
        }
    };
}

/// Logs at debug level (per-iteration internals).
#[macro_export]
macro_rules! log_debug {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::emit($crate::log::Level::Debug, &format!($($t)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Debug);
        assert_eq!(parse_level("INFO"), Some(Level::Info));
        assert_eq!(parse_level("trace"), Some(Level::Debug));
        assert_eq!(parse_level("bogus"), None);
    }

    #[test]
    fn set_level_filters() {
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
    }
}
