//! Leveled diagnostics on stderr, filtered by `ARCHDSE_LOG`.
//!
//! [`crate::log!`] replaces bare `eprintln!` across the workspace: each
//! message carries a level (`error`, `warn`, `info`, `debug`) and is
//! emitted only when at or above the configured threshold. The default
//! threshold is [`Level::Warn`], so tests and pipelines stay quiet;
//! `ARCHDSE_LOG=info` (or `debug`) turns progress reporting on, and
//! `ARCHDSE_LOG=off` silences everything. Any other value is an error
//! naming the variable, raised the first time a level is checked.
//!
//! Messages below the threshold cost one relaxed atomic load; the format
//! arguments are never evaluated.

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the log threshold
/// (`off|error|warn|info|debug`, default `warn`).
pub const LOG_ENV: &str = "ARCHDSE_LOG";

/// Severity of a [`crate::log!`] message, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or wrong-answer conditions.
    Error = 1,
    /// Suspicious but survivable conditions (the default threshold).
    Warn = 2,
    /// Progress and milestone reporting.
    Info = 3,
    /// High-volume diagnostic detail.
    Debug = 4,
}

impl Level {
    /// The lowercase name (`"warn"` etc.) used in message prefixes.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 0 = unresolved (consult the environment), 1..=4 = a [`Level`]
/// threshold, 5 ([`OFF`]) = nothing passes.
static THRESHOLD: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 5;

/// Parses an `ARCHDSE_LOG` value into a threshold: `off`/`none`,
/// `error`, `warn`, `info` or `debug`, in any case, surrounding
/// whitespace allowed. The error names the variable and the bad value.
fn parse_threshold(value: &str) -> Result<u8, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(OFF),
        "error" => Ok(Level::Error as u8),
        "warn" => Ok(Level::Warn as u8),
        "info" => Ok(Level::Info as u8),
        "debug" => Ok(Level::Debug as u8),
        _ => Err(format!(
            "{LOG_ENV}={value:?} is not one of off, none, error, warn, info, debug"
        )),
    }
}

fn resolve() -> u8 {
    let t = match std::env::var_os(LOG_ENV) {
        Some(v) => parse_threshold(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
        None => Level::Warn as u8,
    };
    THRESHOLD.store(t, Ordering::Relaxed);
    t
}

/// Whether messages at `level` currently pass the threshold.
///
/// # Panics
///
/// The first call panics, naming the variable and its value, when
/// `ARCHDSE_LOG` is set to anything but a level or `off`/`none`.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    let t = match THRESHOLD.load(Ordering::Relaxed) {
        0 => resolve(),
        t => t,
    };
    t != OFF && level as u8 <= t
}

/// Overrides the threshold (`None` = off), bypassing `ARCHDSE_LOG`.
pub fn set_level(level: Option<Level>) {
    THRESHOLD.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Implementation detail of [`crate::log!`]: writes one formatted line
/// to stderr with a `[level]` prefix.
pub fn emit(level: Level, args: std::fmt::Arguments<'_>) {
    eprintln!("[{}] {}", level.name(), args);
}

/// Logs one line at the given level: `log!(warn, "fmt {}", x)`.
///
/// The level is a bare identifier (`error`, `warn`, `info`, `debug`).
/// When the level is below the `ARCHDSE_LOG` threshold the format
/// arguments are not evaluated.
#[macro_export]
macro_rules! log {
    (error, $($arg:tt)*) => { $crate::log_at!($crate::log::Level::Error, $($arg)*) };
    (warn, $($arg:tt)*) => { $crate::log_at!($crate::log::Level::Warn, $($arg)*) };
    (info, $($arg:tt)*) => { $crate::log_at!($crate::log::Level::Info, $($arg)*) };
    (debug, $($arg:tt)*) => { $crate::log_at!($crate::log::Level::Debug, $($arg)*) };
}

/// Logs at a runtime [`Level`] value; prefer [`crate::log!`].
#[macro_export]
macro_rules! log_at {
    ($level:expr, $($arg:tt)*) => {
        if $crate::log::level_enabled($level) {
            $crate::log::emit($level, ::std::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_order_correctly() {
        set_level(Some(Level::Warn));
        assert!(level_enabled(Level::Error));
        assert!(level_enabled(Level::Warn));
        assert!(!level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));

        set_level(Some(Level::Debug));
        assert!(level_enabled(Level::Debug));

        set_level(None);
        assert!(!level_enabled(Level::Error));

        // Restore the default for other tests in this process.
        set_level(Some(Level::Warn));
    }

    #[test]
    fn parse_threshold_accepts_level_names_only() {
        for (text, want) in [
            ("off", OFF),
            ("NONE", OFF),
            ("error", Level::Error as u8),
            ("WARN", Level::Warn as u8),
            (" Info\n", Level::Info as u8),
            ("debug", Level::Debug as u8),
        ] {
            assert_eq!(parse_threshold(text), Ok(want), "{text:?}");
        }
        for bad in ["verbose", "", "trace", "1", "warn info"] {
            let err = parse_threshold(bad).unwrap_err();
            assert!(
                err.contains(LOG_ENV) && err.contains(&format!("{bad:?}")),
                "error for {bad:?} must name the variable and value: {err}"
            );
        }
    }

    #[test]
    fn below_threshold_skips_format_args() {
        set_level(Some(Level::Warn));
        let mut ran = false;
        crate::log!(debug, "{}", {
            ran = true;
            "x"
        });
        assert!(!ran, "format args must not evaluate below threshold");
        crate::log!(warn, "one warn line from dse-obs tests: {}", 1);
    }
}
