//! CLI error type: one-line messages and meaningful exit codes
//! instead of panic backtraces.

use crate::args::ArgError;

/// What went wrong, classified by whose fault it is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong (unknown option, bad value, unknown
    /// backend …) — exit code 2, the conventional usage-error code.
    Usage(String),
    /// The command line is fine but the operation failed (missing
    /// file, unreadable image, …) — exit code 1.
    Runtime(String),
}

impl CliError {
    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<fisheye::Error> for CliError {
    /// Classify a library error by whose fault it is: configuration
    /// mistakes and unsupported engine requests are usage errors (the
    /// command line asked for something impossible); backend failures,
    /// rejections and runtime faults happen after a valid command.
    fn from(e: fisheye::Error) -> Self {
        match e.kind() {
            fisheye::ErrorKind::Config => CliError::Usage(e.to_string()),
            fisheye::ErrorKind::Engine => match e.as_engine() {
                Some(fisheye::core::engine::EngineError::Unsupported { .. }) => {
                    CliError::Usage(e.to_string())
                }
                _ => CliError::Runtime(e.to_string()),
            },
            _ => CliError::Runtime(e.to_string()),
        }
    }
}

/// Attach a file path to an I/O-ish error, keeping it to one line.
pub fn with_path<E: std::fmt::Display>(path: &str) -> impl Fn(E) -> CliError + '_ {
    move |e| CliError::Runtime(format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Runtime("x".into()).exit_code(), 1);
    }

    #[test]
    fn library_errors_classify_by_kind() {
        let e: CliError = fisheye::Error::config("bad geometry").into();
        assert_eq!(e.exit_code(), 2, "config errors are usage errors: {e}");
        let e: CliError = fisheye::Error::from(fisheye::core::engine::EngineError::unsupported(
            "cell",
            "no float path",
        ))
        .into();
        assert_eq!(e.exit_code(), 2, "unsupported engine is a usage error: {e}");
        let e: CliError = fisheye::Error::Rejected {
            active: 4,
            capacity: 4,
        }
        .into();
        assert_eq!(e.exit_code(), 1, "rejection is a runtime error: {e}");
        assert!(e.to_string().contains("4/4"), "{e}");
    }

    #[test]
    fn arg_errors_are_usage_errors() {
        let e: CliError = ArgError("bad flag".into()).into();
        assert_eq!(e, CliError::Usage("bad flag".into()));
        assert_eq!(e.to_string(), "bad flag");
    }

    #[test]
    fn with_path_prefixes() {
        let f = with_path("a.pgm");
        assert_eq!(
            f("no such file"),
            CliError::Runtime("a.pgm: no such file".into())
        );
    }
}
