//! Error type shared across the ADM crate.

use std::fmt;

/// Errors produced while parsing, validating, encoding or decoding ADM data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmError {
    /// Text parser error with byte offset and message.
    Parse { offset: usize, message: String },
    /// A value did not conform to a declared datatype.
    TypeCheck(String),
    /// A physical record was malformed.
    Corrupt(String),
    /// A requested field/path does not exist.
    NoSuchField(String),
    /// Query execution failed for a non-data reason (e.g. a partition
    /// worker panicked). The query fails; the process does not.
    Execution(String),
    /// A storage-layer fault surfaced through the data path: a failed
    /// device operation (`transient: true` means a bounded retry may
    /// succeed) or detected on-disk corruption (`transient: false`). The
    /// operation fails with this typed error; the process never panics on
    /// rotten bytes.
    Storage { message: String, transient: bool },
}

impl AdmError {
    pub fn corrupt(msg: impl Into<String>) -> Self {
        AdmError::Corrupt(msg.into())
    }

    pub fn type_check(msg: impl Into<String>) -> Self {
        AdmError::TypeCheck(msg.into())
    }

    /// A record refused on its way into storage for nesting more than
    /// [`MAX_NESTING`](crate::MAX_NESTING) containers deep.
    pub fn nests_too_deep() -> Self {
        AdmError::type_check(format!("record nests deeper than {} levels", crate::MAX_NESTING))
    }

    pub fn execution(msg: impl Into<String>) -> Self {
        AdmError::Execution(msg.into())
    }

    pub fn storage(msg: impl Into<String>, transient: bool) -> Self {
        AdmError::Storage { message: msg.into(), transient }
    }

    /// True for storage faults where a bounded retry with backoff may
    /// succeed (feeds use this to retry per-record inserts).
    pub fn is_transient(&self) -> bool {
        matches!(self, AdmError::Storage { transient: true, .. })
    }
}

impl fmt::Display for AdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            AdmError::TypeCheck(m) => write!(f, "type check failed: {m}"),
            AdmError::Corrupt(m) => write!(f, "corrupt record: {m}"),
            AdmError::NoSuchField(m) => write!(f, "no such field: {m}"),
            AdmError::Execution(m) => write!(f, "query execution failed: {m}"),
            AdmError::Storage { message, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "storage fault ({class}): {message}")
            }
        }
    }
}

impl std::error::Error for AdmError {}
