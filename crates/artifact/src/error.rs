//! The typed model-loading error hierarchy.
//!
//! Every way a model can fail to load — a file that is not an artifact, a
//! version from the future, bit rot, a short read, a manifest that does not
//! describe its own tensor section — maps to one [`ModelError`] variant.
//! `bnff-train` wraps it as `TrainError::Model` and `bnff-serve` as
//! `ServeError::Model`, so callers match on one hierarchy no matter which
//! layer detected the problem.

use std::fmt;

/// A typed model-artifact loading error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The file does not start with the artifact magic `b"BNFF"`.
    BadMagic {
        /// The first four bytes actually found.
        found: [u8; 4],
    },
    /// The file declares a format version this build does not read.
    UnsupportedVersion {
        /// The version the file declares (the header word, or the
        /// manifest's `provenance.source_format_version`).
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A CRC-checksummed section does not hash to the value the header
    /// recorded — the file was corrupted after it was written.
    ChecksumMismatch {
        /// Which section failed: `"manifest"` or `"tensors"`.
        section: &'static str,
        /// The checksum the header recorded at write time.
        expected: u32,
        /// The checksum computed over the bytes actually present.
        computed: u32,
    },
    /// The file ends before the bytes its header (or manifest) promises.
    Truncated {
        /// Bytes the layout requires.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The manifest JSON is malformed or fails schema validation.
    Manifest(String),
    /// The manifest is well-formed but describes an impossible byte layout
    /// (misaligned or overlapping tensor, wrong byte length for a shape,
    /// dangling tensor reference).
    Layout(String),
    /// An I/O error while reading or writing the artifact file.
    Io(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadMagic { found } => {
                write!(
                    f,
                    "not a bnff model artifact: file starts with {found:?}, expected b\"BNFF\""
                )
            }
            ModelError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported model format version {found} (this build reads version {supported}); \
                 re-export the model with a matching toolchain"
            ),
            ModelError::ChecksumMismatch { section, expected, computed } => write!(
                f,
                "{section} checksum mismatch: header records {expected:#010x}, bytes hash to \
                 {computed:#010x} — the file is corrupted"
            ),
            ModelError::Truncated { needed, available } => {
                write!(
                    f,
                    "model file truncated: layout needs {needed} bytes, only {available} present"
                )
            }
            ModelError::Manifest(msg) => write!(f, "model manifest error: {msg}"),
            ModelError::Layout(msg) => write!(f, "model layout error: {msg}"),
            ModelError::Io(msg) => write!(f, "model i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_diagnostic_details() {
        let e = ModelError::BadMagic { found: *b"JSON" };
        assert!(e.to_string().contains("BNFF"));
        let e = ModelError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains("version 9"));
        let e = ModelError::ChecksumMismatch { section: "manifest", expected: 1, computed: 2 };
        assert!(e.to_string().contains("manifest checksum"));
        let e = ModelError::Truncated { needed: 100, available: 7 };
        assert!(e.to_string().contains("100"));
        assert!(ModelError::Manifest("x".into()).to_string().contains("manifest"));
        assert!(ModelError::Layout("x".into()).to_string().contains("layout"));
        assert!(ModelError::Io("x".into()).to_string().contains("i/o"));
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ModelError>();
    }
}
