//! The one error type the redesigned facade returns.
//!
//! Before PR 4 every layer grew its own failure enum — `EngineError`
//! in the engine layer, `CliError` in the command-line tool, stringly
//! `Result<_, String>` in the spec parser — and callers matched on
//! whichever one their entry point happened to surface. The
//! [`Corrector`](crate::Corrector) facade and the serving layer both
//! return [`Error`]; the older types stay (they are good diagnostics)
//! and convert in via `From`.
//!
//! The enum is `#[non_exhaustive]` so new failure classes (the serve
//! layer's admission verdicts were the first) can be added without a
//! major version; match on [`Error::kind`] when you only care about
//! the class.

use std::fmt;

use crate::core::engine::EngineError;

/// Any failure the `fisheye` facade can report.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An engine could not be built or refused a frame
    /// (wraps [`EngineError`] with its diagnostics intact).
    Engine(EngineError),
    /// User-supplied configuration was invalid: builder misuse, an
    /// unknown backend string, inconsistent dimensions. Never a
    /// panic — every public constructor reports bad input this way.
    Config(String),
    /// The serving layer refused a new session: the capacity budget
    /// is spent. Retry after an existing session disconnects.
    Rejected {
        /// Sessions currently admitted.
        active: usize,
        /// The admission budget they exhausted.
        capacity: usize,
    },
    /// A runtime failure outside engine execution (file I/O in the
    /// CLI, a closed pipeline channel, …).
    Runtime(String),
}

/// Coarse classification of an [`Error`], stable across new variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Engine construction or execution failed.
    Engine,
    /// The caller's configuration was invalid.
    Config,
    /// Admission was refused by a capacity budget.
    Rejected,
    /// Something failed at runtime outside the engines.
    Runtime,
}

impl Error {
    /// Build a [`Error::Config`] from anything stringifiable.
    pub fn config(message: impl Into<String>) -> Error {
        Error::Config(message.into())
    }

    /// Build a [`Error::Runtime`] from anything stringifiable.
    pub fn runtime(message: impl Into<String>) -> Error {
        Error::Runtime(message.into())
    }

    /// The coarse class of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Engine(_) => ErrorKind::Engine,
            Error::Config(_) => ErrorKind::Config,
            Error::Rejected { .. } => ErrorKind::Rejected,
            Error::Runtime(_) => ErrorKind::Runtime,
        }
    }

    /// True when this is an admission rejection (the retryable class).
    pub fn is_rejected(&self) -> bool {
        self.kind() == ErrorKind::Rejected
    }

    /// The wrapped engine diagnostics, when the engine layer failed.
    pub fn as_engine(&self) -> Option<&EngineError> {
        match self {
            Error::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Engine(e) => write!(f, "{e}"),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Rejected { active, capacity } => {
                write!(f, "session rejected: {active}/{capacity} slots in use")
            }
            Error::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Error {
        Error::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify_every_variant() {
        let engine: Error = EngineError::unsupported("cell", "no float path").into();
        assert_eq!(engine.kind(), ErrorKind::Engine);
        assert!(engine.as_engine().is_some());
        assert_eq!(Error::config("bad").kind(), ErrorKind::Config);
        assert_eq!(Error::runtime("io").kind(), ErrorKind::Runtime);
        let rejected = Error::Rejected {
            active: 4,
            capacity: 4,
        };
        assert!(rejected.is_rejected());
        assert_eq!(rejected.to_string(), "session rejected: 4/4 slots in use");
    }

    #[test]
    fn engine_error_display_passes_through() {
        let e: Error = EngineError::backend("gpu", "bad dims").into();
        assert_eq!(e.to_string(), "backend 'gpu' failed: bad dims");
        assert!(std::error::Error::source(&e).is_some());
    }
}
