//! Byte-level I/O shared by the durable files ([`crate::wal`],
//! [`crate::snapshot`], [`crate::durable`]'s manifest).
//!
//! [`Reader`] is the one little-endian cursor the decoders read through:
//! every fixed-width read is checked, so a short or corrupt input becomes an
//! `(offset, reason)` error and never a panic. The `put_*` writers are its
//! encoding side. [`write_atomic`] is the one tmp + fsync + rename publish,
//! and [`read_if_exists`] the one whole-file read.

use crate::error::GraphStoreError;
use std::io::Write;
use std::path::Path;

/// Where decoding failed (byte offset into the input) and why.
pub(crate) type DecodeError = (u64, String);

/// Sequential little-endian reader that tracks its offset for errors.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes, at: 0 }
    }

    /// Byte offset of the next read.
    pub(crate) fn offset(&self) -> u64 {
        self.at as u64
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn truncated(&self, n: usize, what: &str) -> DecodeError {
        (self.at as u64, format!("truncated {what}: need {n} bytes, {} left", self.rest.len()))
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.truncated(n, what));
        };
        self.rest = rest;
        self.at += n;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub(crate) fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N, what));
        };
        self.rest = rest;
        self.at += N;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        self.array(what).map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        self.array(what).map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A count about to size an allocation: bounded by the bytes that could
    /// possibly back it, so corrupt lengths cannot trigger huge allocations.
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &str,
    ) -> Result<usize, DecodeError> {
        let offset = self.at as u64;
        let n = self.u64(what)?;
        let left = self.rest.len() as u64;
        if n > left / min_elem_bytes.max(1) as u64 {
            return Err((offset, format!("implausible {what} count {n} ({left} bytes left)")));
        }
        Ok(n as usize)
    }
}

#[inline]
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Publishes `bytes` at `path` atomically: a `.tmp` sibling is written and
/// fsynced, renamed over the target, and the directory is fsynced
/// (best-effort) so the rename itself persists. `what` names the file in
/// errors.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], what: &str) -> Result<(), GraphStoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| GraphStoreError::io(&tmp, &format!("create {what} tmp"), &e))?;
    file.write_all(bytes).map_err(|e| GraphStoreError::io(&tmp, &format!("write {what}"), &e))?;
    file.sync_all().map_err(|e| GraphStoreError::io(&tmp, &format!("sync {what}"), &e))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| GraphStoreError::io(path, &format!("rename {what} into place"), &e))?;
    if let Some(dir) = path.parent().and_then(|d| std::fs::File::open(d).ok()) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// The whole file at `path`, or `None` if it does not exist.
pub(crate) fn read_if_exists(path: &Path, what: &str) -> Result<Option<Vec<u8>>, GraphStoreError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(GraphStoreError::io(path, &format!("read {what}"), &e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_at_offset() {
        let bytes = [0xFFu8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("tag"), Ok(0xFF));
        assert_eq!(r.u64("id"), Ok(0x0807_0605_0403_0201));
        assert_eq!(r.u16("label"), Ok(0x0A09));
        assert_eq!(r.offset(), 11);
        assert_eq!(r.u32("crc"), Ok(0x0E0D_0C0B));
        assert_eq!(r.remaining(), 0);
        let mut out = vec![0xFF];
        put_u64(&mut out, 0x0807_0605_0403_0201);
        put_u16(&mut out, 0x0A09);
        put_u32(&mut out, 0x0E0D_0C0B);
        assert_eq!(out, bytes);
    }

    #[test]
    fn errors_when_out_of_bounds() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        assert_eq!(r.u8("tag"), Ok(1));
        assert_eq!(r.u64("id"), Err((1, "truncated id: need 8 bytes, 3 left".to_string())));
        // A failed read consumes nothing.
        assert_eq!(r.take(3, "rest"), Ok(&[2, 3, 4][..]));
        assert!(r.u8("past the end").is_err());
        let implausible = [5, 0, 0, 0, 0, 0, 0, 0, 1, 2];
        assert_eq!(
            Reader::new(&implausible).count(1, "row"),
            Err((0, "implausible row count 5 (2 bytes left)".to_string()))
        );
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0, 0, 0, 0, 1, 2]).count(1, "row"), Ok(2));
    }
}
