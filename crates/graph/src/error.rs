//! Error type shared by graph construction and I/O.

use std::fmt;

/// Errors produced while building, loading or storing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A text edge list contained a token that is not a node id.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what went wrong.
        msg: String,
    },
    /// A binary graph file had a bad magic number or inconsistent sizes.
    Format(String),
    /// An operation referenced a node id `>= num_nodes`.
    NodeOutOfRange {
        /// The offending id.
        node: u64,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// A generator was asked for an impossible configuration
    /// (e.g. more edges than the complete graph holds).
    InvalidParameter(String),
    /// A part of a `.hkg` snapshot failed its integrity checksum (FNV-1a
    /// for the section table, the lane sum for a section) — the file was
    /// corrupted or partially written.
    ChecksumMismatch {
        /// Which part failed ("section table", "offsets", "neighbors",
        /// "degrees").
        section: &'static str,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            GraphError::Format(msg) => write!(f, "bad graph file: {msg}"),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node id {node} out of range (graph has {num_nodes} nodes)"
                )
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GraphError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "checksum mismatch in {section}: file records {expected:#018x}, \
                     bytes hash to {actual:#018x} (corrupted file)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = GraphError::Parse {
            line: 3,
            msg: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = GraphError::NodeOutOfRange {
            node: 9,
            num_nodes: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = GraphError::InvalidParameter("p must be in [0,1]".into());
        assert!(e.to_string().contains("p must be"));
        let e = GraphError::ChecksumMismatch {
            section: "neighbors",
            expected: 0xabc,
            actual: 0xdef,
        };
        assert!(e.to_string().contains("neighbors"));
        assert!(e.to_string().contains("0x0000000000000abc"));
    }

    #[test]
    fn io_error_source_preserved() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e = GraphError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("nope"));
    }
}
