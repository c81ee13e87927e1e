//! The compression scheme a dataset's page store is configured with.

use crate::snappy;

/// Page compression configuration (paper §2.4: page-level compression is a
/// per-dataset storage option; the evaluation uses Snappy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionScheme {
    /// Pages are stored raw.
    #[default]
    None,
    /// Pages are compressed with the Snappy block format.
    Snappy,
}

/// Error from decompression.
#[derive(Debug)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn codec_error(e: snappy::SnappyError) -> CodecError {
    CodecError(e.to_string())
}

impl CompressionScheme {
    /// Compress a page image. `None` returns the input verbatim.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        self.compress_reserving(data, 0)
    }

    /// Compress a page image into a buffer with room for `footer` more bytes
    /// behind it, so appending a footer (a page checksum) never regrows it.
    pub fn compress_reserving(&self, data: &[u8], footer: usize) -> Vec<u8> {
        match self {
            CompressionScheme::None => {
                let mut out = Vec::with_capacity(data.len() + footer);
                out.extend_from_slice(data);
                out
            }
            CompressionScheme::Snappy => {
                let mut out = Vec::with_capacity(snappy::max_compressed_len(data.len()) + footer);
                snappy::compress_into(data, &mut out);
                out
            }
        }
    }

    /// Decompress a stored image whose original size is known to be
    /// `expected_len`; an image that would produce any other size is an
    /// error, and is refused before anything of its declared size is
    /// allocated.
    pub fn decompress_exact(
        &self,
        data: &[u8],
        expected_len: usize,
    ) -> Result<Vec<u8>, CodecError> {
        match self {
            CompressionScheme::None if data.len() == expected_len => Ok(data.to_vec()),
            CompressionScheme::None => {
                Err(CodecError(format!("stored {} bytes, expected {expected_len}", data.len())))
            }
            CompressionScheme::Snappy => {
                snappy::decompress(data, expected_len).map_err(codec_error)
            }
        }
    }

    /// Decompress a stored image back to the size it declares (for callers
    /// that do not know it; prefer [`decompress_exact`](Self::decompress_exact)).
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        match self {
            CompressionScheme::None => Ok(data.to_vec()),
            CompressionScheme::Snappy => snappy::decompressed_len(data)
                .and_then(|n| snappy::decompress(data, n))
                .map_err(codec_error),
        }
    }

    pub fn is_none(&self) -> bool {
        matches!(self, CompressionScheme::None)
    }

    pub fn name(&self) -> &'static str {
        match self {
            CompressionScheme::None => "none",
            CompressionScheme::Snappy => "snappy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let data = b"some page bytes".to_vec();
        let c = CompressionScheme::None.compress(&data);
        assert_eq!(c, data);
        assert_eq!(CompressionScheme::None.decompress(&c).unwrap(), data);
    }

    #[test]
    fn snappy_roundtrips_through_scheme() {
        let data = b"page page page page page page".repeat(100);
        let c = CompressionScheme::Snappy.compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(CompressionScheme::Snappy.decompress(&c).unwrap(), data);
    }

    #[test]
    fn snappy_decompress_error_maps() {
        assert!(CompressionScheme::Snappy.decompress(&[]).is_err());
    }

    #[test]
    fn decompress_exact_refuses_other_lengths() {
        let data = b"page page page page".repeat(10);
        for scheme in [CompressionScheme::None, CompressionScheme::Snappy] {
            let c = scheme.compress_reserving(&data, 4);
            assert!(c.capacity() >= c.len() + 4, "{}: room for the footer", scheme.name());
            assert_eq!(scheme.decompress_exact(&c, data.len()).unwrap(), data);
            assert!(scheme.decompress_exact(&c, data.len() + 1).is_err(), "{}", scheme.name());
        }
    }
}
