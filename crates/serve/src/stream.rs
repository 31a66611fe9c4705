//! Chunked transfer encoding for streaming answer sets.
//!
//! Answers stream out as one node id per line, flushed in fixed-size row
//! batches via HTTP/1.1 chunked encoding — the full answer is never
//! materialized into a single response buffer, so a `//`-style descendant
//! query over a large document starts arriving at the client while the
//! tail is still being encoded.

use std::collections::BTreeSet;
use std::io::{self, Write};

/// An HTTP/1.1 chunked-encoding body writer.
///
/// Each [`write_chunk`](ChunkedWriter::write_chunk) emits one
/// `size-in-hex CRLF data CRLF` frame; [`finish`](ChunkedWriter::finish)
/// emits the `0` terminator and returns how many data chunks were written
/// (the caller records that into the engine's `stream_chunks` counter).
pub struct ChunkedWriter<'w> {
    out: &'w mut dyn Write,
    chunks: usize,
}

impl<'w> ChunkedWriter<'w> {
    /// Wrap `out`, which must already have the response head (including
    /// `Transfer-Encoding: chunked`) written to it.
    pub fn new(out: &'w mut dyn Write) -> Self {
        ChunkedWriter { out, chunks: 0 }
    }

    /// Emit one chunk frame; empty data is skipped (an empty chunk would
    /// terminate the body early under chunked encoding).
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", data.len())?;
        self.out.write_all(data)?;
        self.out.write_all(b"\r\n")?;
        self.chunks += 1;
        Ok(())
    }

    /// Emit the terminating `0` chunk, flush, and return the number of data
    /// chunks written.
    pub fn finish(self) -> io::Result<usize> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()?;
        Ok(self.chunks)
    }
}

/// Stream `answers` as newline-separated ids in batches of `rows_per_chunk`
/// rows per chunk. Returns the number of chunks emitted.
pub fn stream_answers(
    out: &mut dyn Write,
    answers: &BTreeSet<u32>,
    rows_per_chunk: usize,
) -> io::Result<usize> {
    let rows_per_chunk = rows_per_chunk.max(1);
    let mut writer = ChunkedWriter::new(out);
    let mut buf = String::new();
    let mut rows = 0usize;
    for id in answers {
        buf.push_str(&id.to_string());
        buf.push('\n');
        rows += 1;
        if rows == rows_per_chunk {
            writer.write_chunk(buf.as_bytes())?;
            buf.clear();
            rows = 0;
        }
    }
    writer.write_chunk(buf.as_bytes())?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chunk_when_under_batch_size() {
        let answers: BTreeSet<u32> = [3, 1, 2].into_iter().collect();
        let mut out = Vec::new();
        let chunks = stream_answers(&mut out, &answers, 100).unwrap();
        assert_eq!(chunks, 1);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "6\r\n1\n2\n3\n\r\n0\r\n\r\n");
    }

    #[test]
    fn batches_split_into_multiple_chunks() {
        let answers: BTreeSet<u32> = (0..10).collect();
        let mut out = Vec::new();
        let chunks = stream_answers(&mut out, &answers, 3).unwrap();
        // 10 rows in batches of 3 → 3 full chunks + 1 remainder chunk
        assert_eq!(chunks, 4);
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with("0\r\n\r\n"));
    }

    #[test]
    fn empty_answer_set_is_a_bare_terminator() {
        let answers = BTreeSet::new();
        let mut out = Vec::new();
        let chunks = stream_answers(&mut out, &answers, 4).unwrap();
        assert_eq!(chunks, 0);
        assert_eq!(String::from_utf8(out).unwrap(), "0\r\n\r\n");
    }

    #[test]
    fn zero_rows_per_chunk_is_clamped() {
        let answers: BTreeSet<u32> = (0..4).collect();
        let mut out = Vec::new();
        let chunks = stream_answers(&mut out, &answers, 0).unwrap();
        assert_eq!(chunks, 4, "clamped to one row per chunk");
    }

    /// A sink that accepts `room` bytes, then fails like a socket whose
    /// client hung up.
    struct HangsUp {
        written: Vec<u8>,
        room: usize,
    }

    impl Write for HangsUp {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.written.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_error_mid_stream_is_returned_without_a_terminator() {
        let answers: BTreeSet<u32> = (0..100).collect();
        let mut out = HangsUp {
            written: Vec::new(),
            room: 40,
        };
        let err = stream_answers(&mut out, &answers, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(out.written.len(), 40, "wrote up to the failure");
        assert!(
            !out.written.ends_with(b"0\r\n\r\n"),
            "a torn body is never terminated: {:?}",
            String::from_utf8_lossy(&out.written)
        );
    }
}
