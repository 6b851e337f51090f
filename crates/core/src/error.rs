//! The crate-wide error type of the reconstruction pipeline.

use marioh_hypergraph::HypergraphError;
use std::fmt;
use std::io;

/// Everything that can go wrong across the MARIOH pipeline: invalid
/// configuration, I/O, malformed model files, substrate errors, and
/// cooperative cancellation.
///
/// `Display` renders the bare, user-facing message (no variant prefix),
/// so frontends can print `error: {e}` directly.
#[derive(Debug)]
pub enum MariohError {
    /// An invalid hyperparameter, flag, or usage error. The message is
    /// the complete user-facing text.
    Config(String),
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed trained-model file.
    ModelFormat(String),
    /// An error from the hypergraph substrate (parsing, invalid edges).
    Hypergraph(HypergraphError),
    /// The run was cancelled through a [`crate::CancelToken`].
    Cancelled,
    /// A bug, not a bad input: e.g. a panic caught at a job boundary.
    Internal(String),
}

impl MariohError {
    /// Shorthand for a [`MariohError::Config`] with a formatted message.
    pub fn config(msg: impl Into<String>) -> Self {
        MariohError::Config(msg.into())
    }

    /// Maps an I/O error from the model reader: data-level corruption
    /// becomes [`MariohError::ModelFormat`], transport-level failures stay
    /// [`MariohError::Io`].
    pub fn from_model_io(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::InvalidData {
            MariohError::ModelFormat(e.to_string())
        } else {
            MariohError::Io(e)
        }
    }

    /// The process exit code the CLI uses for this error:
    ///
    /// | variant | code | |
    /// |---|---|---|
    /// | [`MariohError::Config`] | 2 | invalid flags or hyperparameters |
    /// | [`MariohError::Io`] (incl. substrate-wrapped I/O) | 3 | file or network I/O failure |
    /// | [`MariohError::Cancelled`] | 130 | interrupted, after `128 + SIGINT` convention |
    /// | everything else | 1 | generic runtime failure |
    pub fn exit_code(&self) -> i32 {
        match self {
            MariohError::Config(_) => 2,
            MariohError::Io(_) | MariohError::Hypergraph(HypergraphError::Io(_)) => 3,
            MariohError::Cancelled => 130,
            MariohError::ModelFormat(_) | MariohError::Hypergraph(_) => 1,
            MariohError::Internal(_) => 1,
        }
    }
}

impl fmt::Display for MariohError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MariohError::Config(msg) => f.write_str(msg),
            MariohError::Io(e) => write!(f, "{e}"),
            MariohError::ModelFormat(msg) => f.write_str(msg),
            MariohError::Hypergraph(e) => write!(f, "{e}"),
            MariohError::Cancelled => f.write_str("reconstruction cancelled"),
            MariohError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for MariohError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MariohError::Io(e) => Some(e),
            MariohError::Hypergraph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MariohError {
    fn from(e: io::Error) -> Self {
        MariohError::Io(e)
    }
}

impl From<HypergraphError> for MariohError {
    fn from(e: HypergraphError) -> Self {
        MariohError::Hypergraph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_bare_message() {
        assert_eq!(
            MariohError::config("theta_init must be in (0, 1]").to_string(),
            "theta_init must be in (0, 1]"
        );
        assert_eq!(
            MariohError::Cancelled.to_string(),
            "reconstruction cancelled"
        );
        let io_err = io::Error::new(io::ErrorKind::NotFound, "gone");
        assert_eq!(MariohError::from(io_err).to_string(), "gone");
    }

    #[test]
    fn conversions_preserve_messages() {
        let he = HypergraphError::InvalidEdge("too small".into());
        let text = he.to_string();
        let me: MariohError = he.into();
        assert_eq!(me.to_string(), text);
        use std::error::Error as _;
        assert!(me.source().is_some());
    }

    #[test]
    fn exit_codes_distinguish_config_io_and_cancellation() {
        assert_eq!(MariohError::config("bad flag").exit_code(), 2);
        assert_eq!(
            MariohError::from(io::Error::new(io::ErrorKind::NotFound, "gone")).exit_code(),
            3
        );
        assert_eq!(MariohError::Cancelled.exit_code(), 130);
        assert_eq!(MariohError::ModelFormat("corrupt".into()).exit_code(), 1);
        assert_eq!(MariohError::Internal("bug".into()).exit_code(), 1);
        assert_eq!(
            MariohError::from(HypergraphError::InvalidEdge("e".into())).exit_code(),
            1
        );
        // I/O failures wrapped by the hypergraph substrate (file loads in
        // the CLI) still count as I/O.
        let wrapped = HypergraphError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert_eq!(MariohError::from(wrapped).exit_code(), 3);
    }

    #[test]
    fn model_io_mapping_distinguishes_corruption_from_transport() {
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, "not a marioh model file");
        assert!(matches!(
            MariohError::from_model_io(corrupt),
            MariohError::ModelFormat(_)
        ));
        let transport = io::Error::new(io::ErrorKind::NotFound, "missing");
        assert!(matches!(
            MariohError::from_model_io(transport),
            MariohError::Io(_)
        ));
    }
}
