//! Shared persistence machinery for warm-state images and wire frames.
//!
//! Two kinds of warm state survive engine restarts: the memo cache
//! ([`crate::MemoCache`]) and the surrogate-registry store. The network
//! layer (`crates/net`) speaks the same framing over sockets. All of them
//! want the same plumbing:
//!
//! * **atomic replacement** ([`write_atomic`]) — bytes land in a uniquely
//!   named temp file in the target directory, then rename into place, so a
//!   crash mid-save or a concurrent saver never leaves a torn image;
//! * **checksummed framing** ([`write_frame`] / [`read_frame`]) — an
//!   8-byte magic (carrying a format version), a little-endian `u64`
//!   payload length, the payload, and a trailing XXH64 checksum of the
//!   payload, so any corruption is detected instead of
//!   decoded. The
//!   streaming forms work over any `io::Read` / `io::Write` (a socket, a
//!   file, an in-memory buffer); [`frame`] / [`parse_frame`] are the
//!   whole-buffer forms. [`frame`] is the only routine that lays out a
//!   frame; [`write_frame`] hands its bytes to the writer in one
//!   `write_all`, so a socket never sends a frame's header apart from
//!   its body;
//! * **tolerant loading** ([`load_frame`]) — a missing file or a corrupt
//!   image is the expected cold-start case (`Ok(None)`), while real I/O
//!   failures (permissions, a directory at the path) stay errors.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame overhead in bytes: magic (8) + payload length (8) + checksum (8).
const FRAME_OVERHEAD: usize = 24;

/// Writes `image` to `path` atomically: the bytes land in a uniquely
/// named temp file in the same directory, then rename into place. A crash
/// mid-write leaves the previous image intact, and two concurrent savers
/// each publish a complete (if last-writer-wins) file — never a torn one.
///
/// # Errors
/// Propagates I/O errors from writing the temp file or renaming it into
/// place.
pub fn write_atomic(path: &Path, image: &[u8]) -> std::io::Result<()> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "image".into());
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        // detlint-allow(atomics): process-local uniqueness counter for temp-file names; never persisted, never ordered
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, image)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// The frame checksum: XXH64 with seed 0 (Collet's xxHash, 64-bit), which
/// reads the payload eight bytes at a time in four independent lanes
/// instead of a byte at a time. It guards against corruption, not
/// tampering; keys use [`crate::Fingerprinter`].
fn checksum(payload: &[u8]) -> u64 {
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    }
    // Only ever handed whole 8-byte chunks, so the default never shows.
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or_default());
    let stripes = payload.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if payload.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, bytes) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(bytes));
            }
        }
        let [v1, v2, v3, v4] = v;
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        v.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(payload.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for bytes in words {
        h = (h ^ round(0, word(bytes)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if let (Some(half), Some(bytes)) = (rest.get(..4), rest.get(4..)) {
        let half = u32::from_le_bytes(half.try_into().unwrap_or_default());
        h = (h ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = bytes;
    }
    for &byte in rest {
        h = (h ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Writes one checksummed frame — `magic ++ len ++ payload ++
/// checksum(payload)` — to any `io::Write` (a socket, a file, a
/// `Vec<u8>`). The length prefix makes frames self-delimiting, so a
/// stream can carry many of them back to back.
///
/// The frame is assembled by [`frame`] and handed over in **one**
/// `write_all`. On an unbuffered `TcpStream` every `write` is a send
/// call: four small ones per frame would leave as four segments, and
/// with Nagle's algorithm on (RFC 896) the later ones wait for the
/// peer's delayed ACK (RFC 1122 §4.2.3.2) — tens of milliseconds per
/// frame on loopback.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, magic: &[u8; 8], payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(magic, payload))?;
    w.flush()
}

/// Reads one checksummed frame from any `io::Read`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF before the first
/// magic byte) — the "no more frames" case. A frame that *starts* but
/// doesn't check out is an error: `UnexpectedEof` for truncation
/// mid-frame, `InvalidData` for a wrong magic, a length above
/// `max_payload` (the allocation guard — a corrupt length field must not
/// drive an unbounded allocation), or a checksum mismatch.
///
/// # Errors
/// Propagates I/O errors from the reader, plus the validation errors
/// above.
pub fn read_frame<R: Read>(
    r: &mut R,
    magic: &[u8; 8],
    max_payload: u64,
) -> io::Result<Option<Vec<u8>>> {
    let mut got = [0u8; 8];
    // Distinguish "stream ended cleanly" (0 bytes) from "died mid-magic".
    let mut filled = 0;
    while filled < got.len() {
        // detlint-allow(panic-safety): `filled < got.len()` is the loop condition, so the range start is in bounds
        match r.read(&mut got[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "frame truncated inside magic",
                ))
            }
            n => filled += n,
        }
    }
    if &got != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame magic mismatch",
        ));
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes);
    if len > max_payload {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload length {len} exceeds limit {max_payload}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored)?;
    if checksum(&payload) != u64::from_le_bytes(stored) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Wraps `payload` in one checksummed frame, in memory — the only
/// routine that lays out frame bytes; [`write_frame`] sends its result.
pub fn frame(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    image.extend_from_slice(magic);
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(payload);
    image.extend_from_slice(&checksum(payload).to_le_bytes());
    image
}

/// Validates a framed image and returns its payload; `None` on a wrong
/// magic, truncation, trailing garbage, or checksum mismatch — the
/// whole-buffer form of [`read_frame`].
pub fn parse_frame<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Option<&'a [u8]> {
    bytes.get(payload_range(magic, bytes)?)
}

/// [`parse_frame`] as the payload's position in `bytes`, for callers
/// that keep the frame's buffer instead of copying its payload out.
pub fn payload_range(magic: &[u8; 8], bytes: &[u8]) -> Option<std::ops::Range<usize>> {
    if bytes.get(..8)? != magic {
        return None;
    }
    let len = u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?) as usize;
    if bytes.len() != FRAME_OVERHEAD.checked_add(len)? {
        return None;
    }
    let payload = bytes.get(16..16 + len)?;
    let stored = u64::from_le_bytes(bytes.get(16 + len..)?.try_into().ok()?);
    (checksum(payload) == stored).then_some(16..16 + len)
}

/// Reads and validates a framed image. A missing file or any corruption
/// (wrong magic, truncation, checksum mismatch) is the cold-start case —
/// `Ok(None)` — never an error.
///
/// # Errors
/// Propagates I/O errors from reading an *existing* file (permission
/// failures, `path` being a directory, …).
pub fn load_frame(path: &Path, magic: &[u8; 8]) -> std::io::Result<Option<Vec<u8>>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_frame(magic, &bytes).map(<[u8]>::to_vec))
}

/// [`frame`] + [`write_atomic`] in one call.
///
/// # Errors
/// Propagates I/O errors from writing the temp file or renaming it into
/// place.
pub fn save_frame(path: &Path, magic: &[u8; 8], payload: &[u8]) -> std::io::Result<()> {
    write_atomic(path, &frame(magic, payload))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const MAGIC: &[u8; 8] = b"HASCOTST";

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hasco-persist-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn checksum_is_xxh64() {
        // Reference vectors of XXH64 with seed 0: the empty input, one
        // short tail, and 39 bytes (one 32-byte stripe, then 4 + 3 bytes).
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn frames_round_trip() {
        let path = temp_path("roundtrip");
        save_frame(&path, MAGIC, b"hello warm state").unwrap();
        let payload = load_frame(&path, MAGIC).unwrap().expect("valid frame");
        assert_eq!(payload, b"hello warm state");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_and_wrong_magic_are_cold_starts() {
        let path = temp_path("corrupt");
        save_frame(&path, MAGIC, b"payload bytes").unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        let mut short = good.clone();
        short.truncate(good.len() - 3);
        for image in [flipped, short, b"tiny".to_vec()] {
            std::fs::write(&path, &image).unwrap();
            assert_eq!(load_frame(&path, MAGIC).unwrap(), None);
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load_frame(&path, b"WRONGMAG").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_cold_start_but_directories_error() {
        assert_eq!(
            load_frame(Path::new("/nonexistent/hasco.img"), MAGIC).unwrap(),
            None
        );
        let dir = temp_path("dir");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_frame(&dir, MAGIC).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_writes_leave_no_temp_files() {
        let dir = temp_path("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.bin");
        save_frame(&path, MAGIC, b"one").unwrap();
        save_frame(&path, MAGIC, b"two").unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["image.bin".to_string()], "temp files leaked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_frames_stack_on_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, b"first").unwrap();
        write_frame(&mut buf, MAGIC, b"").unwrap();
        write_frame(&mut buf, MAGIC, b"third frame").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAGIC, 1024).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r, MAGIC, 1024).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r, MAGIC, 1024).unwrap().unwrap(),
            b"third frame"
        );
        // Clean end of stream: no more frames, not an error.
        assert!(read_frame(&mut r, MAGIC, 1024).unwrap().is_none());
    }

    #[test]
    fn streaming_truncation_and_short_reads_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, b"will be cut short").unwrap();
        // Truncation at every interior boundary: inside the magic, inside
        // the length, inside the payload, inside the checksum. All died
        // mid-frame, so all must surface as UnexpectedEof — never a
        // silent `None`.
        for cut in [3, 12, 20, buf.len() - 2] {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r, MAGIC, 1024).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn streaming_corruption_is_invalid_data() {
        let mut good = Vec::new();
        write_frame(&mut good, MAGIC, b"checksummed payload").unwrap();

        // Wrong magic.
        let err = read_frame(&mut &good[..], b"WRONGMAG", 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flipped payload byte -> checksum mismatch.
        let mut flipped = good.clone();
        flipped[18] ^= 0xff;
        let err = read_frame(&mut &flipped[..], MAGIC, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A corrupt (huge) length field must hit the allocation guard,
        // not attempt a multi-exabyte Vec.
        let mut huge = good.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut &huge[..], MAGIC, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Payload over the caller's limit is rejected before reading it.
        let err = read_frame(&mut &good[..], MAGIC, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_frame_rejects_trailing_garbage() {
        let mut image = frame(MAGIC, b"exact");
        assert_eq!(parse_frame(MAGIC, &image).unwrap(), b"exact");
        image.push(0);
        assert_eq!(parse_frame(MAGIC, &image), None);
    }

    /// An `io::Write` that records every call it sees.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_and_one_flush() {
        for payload in [&b""[..], b"x", b"one frame, one segment"] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, MAGIC, payload).unwrap();
            assert_eq!((w.writes, w.flushes), (1, 1), "payload {payload:?}");
            assert_eq!(w.bytes, frame(MAGIC, payload));
        }
    }

    /// Byte soup for the frame decoders, biased towards inputs that get
    /// past the early checks: `mode` 0 is raw bytes, 1 prefixes the
    /// magic, 2 prefixes the magic and a small length, and 3 corrupts a
    /// valid frame (one byte overwritten, then truncated).
    fn fuzzed_image(mode: u8, bytes: Vec<u8>, knob: u64) -> Vec<u8> {
        let mut image = Vec::new();
        match mode {
            0 => {}
            1 => image.extend_from_slice(MAGIC),
            2 => {
                image.extend_from_slice(MAGIC);
                image.extend_from_slice(&(knob % 96).to_le_bytes());
            }
            _ => {
                let mut good = frame(MAGIC, &bytes);
                let at = (knob as usize) % good.len();
                good[at] = (knob >> 32) as u8;
                good.truncate(good.len() - (knob as usize >> 8) % 3);
                return good;
            }
        }
        image.extend_from_slice(&bytes);
        image
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn frame_decoders_never_panic_on_arbitrary_bytes(
            mode in 0u8..4,
            bytes in prop::collection::vec(any::<u8>(), 0..160),
            knob in any::<u64>(),
            max_payload in 0u64..256,
        ) {
            let image = fuzzed_image(mode, bytes, knob);
            if let Some(payload) = parse_frame(MAGIC, &image) {
                prop_assert_eq!(frame(MAGIC, payload), image);
            }
            // Every successful read consumes at least one whole frame, so
            // the loop ends at a clean end of stream or the first error.
            let mut r = &image[..];
            while let Ok(Some(payload)) = read_frame(&mut r, MAGIC, max_payload) {
                prop_assert!(payload.len() as u64 <= max_payload);
            }
        }
    }
}
