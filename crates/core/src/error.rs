//! Error types shared by every FCBench-rs crate.

use std::fmt;

/// Errors that can occur while compressing, decompressing, or framing data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The compressed stream is malformed or truncated.
    Corrupt(String),
    /// The codec does not support the requested precision
    /// (e.g. pFPC and GFC are double-only, per Table 1 of the paper).
    UnsupportedPrecision {
        codec: &'static str,
        precision: crate::data::Precision,
    },
    /// The data description is inconsistent (dims product != element count,
    /// byte length not a multiple of the element size, ...).
    BadDescriptor(String),
    /// The input violates a codec-specific constraint
    /// (e.g. BUFF's precision table bounds).
    Unsupported(String),
    /// A name lookup in a [`CodecRegistry`](crate::registry::CodecRegistry)
    /// found no such codec. Carries the registry's available names so the
    /// boundary that surfaces the error (CLI, network reply) can say what
    /// *would* have worked.
    UnknownCodec {
        requested: String,
        available: Vec<String>,
    },
    /// A codec name longer than the frame format's 255-byte name field.
    NameTooLong { len: usize },
    /// More dimensions than the frame format's single-byte dim count.
    TooManyDims { ndims: usize },
    /// Decompressed output did not match the original input byte-for-byte.
    LosslessViolation { codec: String },
    /// A codec panicked inside a worker-pool job; the panic was caught and
    /// the pool kept running, but the job is lost.
    WorkerPanic(String),
    /// An I/O error from the on-disk container (message only, to stay `Clone`).
    Io(String),
    /// The server is saturated and shed this request instead of queueing
    /// it unboundedly. Carries the server's backoff hint; retrying after
    /// (at least) that long is expected to succeed. The only error variant
    /// that *invites* an automatic retry — see `RetryPolicy` in
    /// `fcbench-serve`.
    Busy {
        /// Suggested minimum wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A stored checksum did not match the recomputed one — corruption
    /// *inside* the committed region of a container. (A torn tail after the
    /// last commit point is recovered, not errored; see `fcbench-dbsim`.)
    ChecksumMismatch {
        /// What was being validated ("container prologue", "chunk record", ...).
        context: String,
        stored: u32,
        computed: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Corrupt(msg) => write!(f, "corrupt compressed stream: {msg}"),
            Error::UnsupportedPrecision { codec, precision } => {
                write!(f, "codec {codec} does not support {precision:?} precision")
            }
            Error::BadDescriptor(msg) => write!(f, "bad data descriptor: {msg}"),
            Error::Unsupported(msg) => write!(f, "unsupported input: {msg}"),
            Error::UnknownCodec {
                requested,
                available,
            } => {
                write!(
                    f,
                    "codec {requested:?} is not registered (available: {})",
                    available.join(", ")
                )
            }
            Error::NameTooLong { len } => {
                write!(f, "codec name is {len} bytes; frames allow at most 255")
            }
            Error::TooManyDims { ndims } => {
                write!(
                    f,
                    "descriptor has {ndims} dimensions; frames allow at most 255"
                )
            }
            Error::LosslessViolation { codec } => {
                write!(
                    f,
                    "codec {codec} violated losslessness (round-trip mismatch)"
                )
            }
            Error::WorkerPanic(msg) => {
                write!(f, "codec panicked in a pool worker: {msg}")
            }
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::Busy { retry_after_ms } => {
                write!(f, "server is busy; retry after {retry_after_ms}ms")
            }
            Error::ChecksumMismatch {
                context,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "checksum mismatch in {context}: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Precision;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::Corrupt("truncated header".into());
        assert!(e.to_string().contains("truncated header"));

        let e = Error::UnsupportedPrecision {
            codec: "gfc",
            precision: Precision::Single,
        };
        assert!(e.to_string().contains("gfc"));
        assert!(e.to_string().contains("Single"));

        let e = Error::LosslessViolation {
            codec: "spdp".into(),
        };
        assert!(e.to_string().contains("spdp"));
    }

    #[test]
    fn frame_limit_errors_name_the_limit() {
        let e = Error::NameTooLong { len: 300 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("255"));
        let e = Error::TooManyDims { ndims: 1000 };
        assert!(e.to_string().contains("1000"));
        assert!(e.to_string().contains("255"));
    }

    #[test]
    fn worker_panic_names_the_payload() {
        let e = Error::WorkerPanic("index out of bounds".into());
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("index out of bounds"));
    }

    #[test]
    fn unknown_codec_lists_the_alternatives() {
        let e = Error::UnknownCodec {
            requested: "zstd".into(),
            available: vec!["gorilla".into(), "chimp128".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("\"zstd\""));
        assert!(msg.contains("gorilla, chimp128"));
    }

    #[test]
    fn checksum_mismatch_names_context_and_both_values() {
        let e = Error::ChecksumMismatch {
            context: "commit directory".into(),
            stored: 0xDEAD_BEEF,
            computed: 0x0000_0001,
        };
        let msg = e.to_string();
        assert!(msg.contains("commit directory"));
        assert!(msg.contains("0xdeadbeef"));
        assert!(msg.contains("0x00000001"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.to_string().contains("missing file"));
    }
}
