//! Trace serialization: a compact, versioned binary format for workload
//! traces, so expensive generators (or traces captured elsewhere) can be
//! saved once and replayed many times — the trace-driven mode classic
//! DSM studies rely on.
//!
//! ## Format (`PRTR` v1, little-endian)
//!
//! ```text
//! magic  "PRTR"            4 bytes
//! version u32              currently 1
//! name    len:u32 + utf8
//! segments count:u32, each: name(len:u32+utf8), va_base:u64, bytes:u64
//! lanes   count:u32, each: ops count:u64, each op:
//!           tag:u8 (0=Read 1=Write 2=Compute 3=Barrier 4=Lock 5=Unlock)
//!           payload: u64 for addresses, u32 otherwise
//! crc     u64 (FNV-1a of everything before it)
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use crate::addr::VirtAddr;
use crate::trace::{Op, SegmentSpec, Trace};

const MAGIC: &[u8; 4] = b"PRTR";
const VERSION: u32 = 1;

/// Errors from reading a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a PRTR trace.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// An op tag byte was invalid.
    BadOpTag(u8),
    /// The checksum did not match (truncated or corrupted file).
    BadChecksum,
    /// A declared length is implausible (corrupted file).
    BadLength(u64),
    /// A trace or segment name is not valid UTF-8.
    BadName,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a PRTR trace file"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadOpTag(t) => write!(f, "invalid op tag {t}"),
            TraceIoError::BadChecksum => write!(f, "trace checksum mismatch"),
            TraceIoError::BadLength(l) => write!(f, "implausible length {l} in trace"),
            TraceIoError::BadName => write!(f, "trace name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// Incremental FNV-1a checksum over the serialized bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    crc: Fnv,
}

impl<W: Write> CountingWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)
    }
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.put(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn str(&mut self, s: &str) -> io::Result<()> {
        self.u32(s.len() as u32)?;
        self.put(s.as_bytes())
    }
}

/// Writes a trace in PRTR format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
/// use prism_mem::trace_io::{read_trace, write_trace};
/// use prism_mem::addr::VirtAddr;
///
/// let trace = Trace {
///     name: "demo".into(),
///     segments: vec![SegmentSpec { name: "d".into(), va_base: SHARED_BASE, bytes: 4096 }],
///     lanes: vec![vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)]],
/// };
/// let mut buf = Vec::new();
/// write_trace(&trace, &mut buf)?;
/// let back = read_trace(&mut buf.as_slice())?;
/// assert_eq!(back.lanes, trace.lanes);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace<W: Write>(trace: &Trace, writer: &mut W) -> Result<(), TraceIoError> {
    let mut w = CountingWriter {
        inner: writer,
        crc: Fnv::new(),
    };
    w.put(MAGIC)?;
    w.u32(VERSION)?;
    w.str(&trace.name)?;
    w.u32(trace.segments.len() as u32)?;
    for seg in &trace.segments {
        w.str(&seg.name)?;
        w.u64(seg.va_base)?;
        w.u64(seg.bytes)?;
    }
    w.u32(trace.lanes.len() as u32)?;
    for lane in &trace.lanes {
        w.u64(lane.len() as u64)?;
        for op in lane {
            match *op {
                Op::Read(va) => {
                    w.u8(0)?;
                    w.u64(va.0)?;
                }
                Op::Write(va) => {
                    w.u8(1)?;
                    w.u64(va.0)?;
                }
                Op::Compute(c) => {
                    w.u8(2)?;
                    w.u32(c)?;
                }
                Op::Barrier(b) => {
                    w.u8(3)?;
                    w.u32(b)?;
                }
                Op::Lock(l) => {
                    w.u8(4)?;
                    w.u32(l)?;
                }
                Op::Unlock(l) => {
                    w.u8(5)?;
                    w.u32(l)?;
                }
            }
        }
    }
    let crc = w.crc.0;
    w.inner.write_all(&crc.to_le_bytes())?;
    Ok(())
}

struct CountingReader<'a, R: Read> {
    inner: &'a mut R,
    crc: Fnv,
}

impl<R: Read> CountingReader<'_, R> {
    fn get(&mut self, buf: &mut [u8]) -> Result<(), TraceIoError> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }
    fn u8(&mut self) -> Result<u8, TraceIoError> {
        let mut b = [0u8; 1];
        self.get(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32, TraceIoError> {
        let mut b = [0u8; 4];
        self.get(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, TraceIoError> {
        let mut b = [0u8; 8];
        self.get(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn str(&mut self) -> Result<String, TraceIoError> {
        let len = self.u32()? as u64;
        if len > 1 << 20 {
            return Err(TraceIoError::BadLength(len));
        }
        let mut buf = vec![0u8; len as usize];
        self.get(&mut buf)?;
        String::from_utf8(buf).map_err(|_| TraceIoError::BadName)
    }
}

/// Reads a PRTR trace, verifying the checksum.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed or corrupted input.
pub fn read_trace<R: Read>(reader: &mut R) -> Result<Trace, TraceIoError> {
    let mut r = CountingReader {
        inner: reader,
        crc: Fnv::new(),
    };
    let mut magic = [0u8; 4];
    r.get(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let name = r.str()?;
    let seg_count = r.u32()?;
    if seg_count > 1 << 16 {
        return Err(TraceIoError::BadLength(seg_count as u64));
    }
    let mut segments = Vec::with_capacity(seg_count as usize);
    for _ in 0..seg_count {
        let name = r.str()?;
        let va_base = r.u64()?;
        let bytes = r.u64()?;
        segments.push(SegmentSpec {
            name,
            va_base,
            bytes,
        });
    }
    let lane_count = r.u32()?;
    if lane_count > 1 << 16 {
        return Err(TraceIoError::BadLength(lane_count as u64));
    }
    let mut lanes = Vec::with_capacity(lane_count as usize);
    for _ in 0..lane_count {
        let ops = r.u64()?;
        if ops > 1 << 28 {
            return Err(TraceIoError::BadLength(ops));
        }
        // Never trust an untrusted length for preallocation.
        let mut lane = Vec::with_capacity(ops.min(1 << 16) as usize);
        for _ in 0..ops {
            let tag = r.u8()?;
            let op = match tag {
                0 => Op::Read(VirtAddr(r.u64()?)),
                1 => Op::Write(VirtAddr(r.u64()?)),
                2 => Op::Compute(r.u32()?),
                3 => Op::Barrier(r.u32()?),
                4 => Op::Lock(r.u32()?),
                5 => Op::Unlock(r.u32()?),
                t => return Err(TraceIoError::BadOpTag(t)),
            };
            lane.push(op);
        }
        lanes.push(lane);
    }
    let computed = r.crc.0;
    let mut crc_bytes = [0u8; 8];
    r.inner.read_exact(&mut crc_bytes)?;
    if u64::from_le_bytes(crc_bytes) != computed {
        return Err(TraceIoError::BadChecksum);
    }
    Ok(Trace {
        name,
        segments,
        lanes,
    })
}

/// Writes a trace to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_trace(trace: &Trace, path: &std::path::Path) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_trace(trace, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Reads a trace from a file path.
///
/// # Errors
///
/// Propagates file-open errors and format errors.
pub fn load_trace(path: &std::path::Path) -> Result<Trace, TraceIoError> {
    let file = std::fs::File::open(path)?;
    read_trace(&mut io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SHARED_BASE;

    fn sample() -> Trace {
        Trace {
            name: "sample".into(),
            segments: vec![
                SegmentSpec {
                    name: "a".into(),
                    va_base: SHARED_BASE,
                    bytes: 8192,
                },
                SegmentSpec {
                    name: "b".into(),
                    va_base: SHARED_BASE + 8192,
                    bytes: 4096,
                },
            ],
            lanes: vec![
                vec![
                    Op::Read(VirtAddr(SHARED_BASE)),
                    Op::Write(VirtAddr(SHARED_BASE + 64)),
                    Op::Compute(17),
                    Op::Barrier(3),
                    Op::Lock(5),
                    Op::Unlock(5),
                ],
                vec![Op::Barrier(3)],
                vec![],
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.segments, t.segments);
        assert_eq!(back.lanes, t.lanes);
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadMagic)
        ));
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceIoError::BadChecksum
                    | TraceIoError::BadOpTag(_)
                    | TraceIoError::BadLength(_)
                    | TraceIoError::Io(_)
                    | TraceIoError::BadName
            ),
            "{err}"
        );
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("prism-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.prtr");
        save_trace(&sample(), &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.lanes, sample().lanes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_name_is_a_bad_name() {
        let mut t = sample();
        t.name = "ab".into();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // The name's bytes follow the magic, version and length fields.
        buf[12] = 0xFF;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadName)
        ));
    }

    #[test]
    fn segment_past_the_address_space_reads_back_and_fails_validation() {
        let geom = crate::addr::Geometry::default();
        let top = u64::MAX - geom.page_bytes() + 1;
        let t = Trace {
            name: "top".into(),
            segments: vec![SegmentSpec {
                name: "s".into(),
                va_base: top,
                bytes: 3 * geom.page_bytes(),
            }],
            lanes: vec![vec![Op::Read(VirtAddr(top))]],
        };
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.segments, t.segments);
        assert_eq!(
            back.validate(&geom),
            Err(crate::trace::TraceError::BadSegments)
        );
    }

    #[test]
    fn errors_display() {
        assert!(TraceIoError::BadMagic.to_string().contains("PRTR"));
        assert!(TraceIoError::BadVersion(7).to_string().contains('7'));
    }
}
