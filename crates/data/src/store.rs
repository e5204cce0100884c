//! The chunked on-disk dataset store (`MUDS` format): column-major SoA
//! chunks behind a memory map, read through [`geom::DataSource`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MUDS"
//! 4       4     format version (u32, currently 1)
//! 8       4     dim (u32, > 0)
//! 12      4     chunk_cap (u32, > 0; points per full chunk)
//! 16      8     n (u64, total points; must fit PointId = u32)
//! 24      8     n_chunks (u64, = ceil(n / chunk_cap))
//! 32      32    reserved, zero
//! 64      —     payload: n_chunks chunks of chunk_cap*dim f64 (LE)
//! ```
//!
//! Within chunk `c`, column `k` occupies the `chunk_cap` doubles at
//! payload offset `(c*dim + k) * chunk_cap` — the exact
//! [`geom::PointBlock`] stride layout, so a mapped chunk feeds
//! [`geom::kernels::dist_sq_batch`] with zero copies. Every chunk is
//! written at full stride (the last chunk's tail rows are zero padding),
//! which keeps chunk offsets a pure multiplication and makes the file
//! size a closed-form validation check.
//!
//! The 64-byte header keeps the payload 8-byte aligned in the mapping
//! (`mmap` returns page-aligned addresses), so the f64 reinterpretation
//! is alignment-safe. On non-unix or big-endian targets the store falls
//! back to a validating heap read of the same bytes.

use geom::{Cols, DataSource, Dataset, PointId, SourceChunk};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"MUDS";
/// Current format version written by [`StoreWriter`].
pub const STORE_VERSION: u32 = 1;
const HEADER_BYTES: u64 = 64;
const F64_BYTES: u64 = std::mem::size_of::<f64>() as u64;

/// Typed failure of the chunked store (creation, validation, mapping).
///
/// `Clone + PartialEq + Eq` so it can ride inside
/// `mudbscan::MuDbscanError` (which derives the same).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level IO operation failed; `op` names it, `msg` is the
    /// stringified `io::Error`.
    Io {
        /// The failing operation ("open", "read", "write", "mmap", …).
        op: &'static str,
        /// Stringified OS error.
        msg: String,
    },
    /// The file does not start with the `MUDS` magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u32),
    /// A header field is inconsistent (zero dim, bad chunk count,
    /// trailing bytes, …).
    BadHeader(String),
    /// The payload is shorter than the header promises — a torn write
    /// or truncated copy.
    Truncated {
        /// Total file size the header implies.
        expected_bytes: u64,
        /// Actual file size.
        actual_bytes: u64,
    },
    /// A pushed point's dimensionality does not match the store's.
    DimMismatch {
        /// The store's dimensionality.
        expected: usize,
        /// The offending point's length.
        got: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, msg } => write!(f, "store {op} failed: {msg}"),
            StoreError::BadMagic => write!(f, "not a MUDS store (bad magic)"),
            StoreError::BadVersion(v) => {
                write!(f, "unsupported MUDS version {v} (supported: {STORE_VERSION})")
            }
            StoreError::BadHeader(why) => write!(f, "corrupt MUDS header: {why}"),
            StoreError::Truncated { expected_bytes, actual_bytes } => write!(
                f,
                "truncated MUDS store: header implies {expected_bytes} bytes, file has {actual_bytes}"
            ),
            StoreError::DimMismatch { expected, got } => {
                write!(f, "point dimensionality {got} does not match store dim {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str) -> impl Fn(io::Error) -> StoreError {
    move |e| StoreError::Io { op, msg: e.to_string() }
}

/// Streaming writer for the `MUDS` format. Points are staged
/// column-major and flushed one full-stride chunk at a time; `finish`
/// seals the header. Dropping a writer without `finish` leaves a file
/// that [`ChunkedStore::open`] rejects (placeholder header).
pub struct StoreWriter {
    file: BufWriter<File>,
    dim: usize,
    chunk_cap: usize,
    n: u64,
    n_chunks: u64,
    /// Column-major staging buffer, `dim * chunk_cap` doubles.
    buf: Vec<f64>,
    buf_len: usize,
}

impl StoreWriter {
    /// Create (truncate) `path` and return a writer for `dim`-dimensional
    /// points with the given chunk capacity.
    pub fn create(path: &Path, dim: usize, chunk_cap: usize) -> Result<Self, StoreError> {
        if dim == 0 {
            return Err(StoreError::BadHeader("dim must be positive".into()));
        }
        if chunk_cap == 0 {
            return Err(StoreError::BadHeader("chunk_cap must be positive".into()));
        }
        let mut file = BufWriter::new(File::create(path).map_err(io_err("create"))?);
        // Placeholder header: all zeros (bad magic), replaced by finish().
        file.write_all(&[0u8; HEADER_BYTES as usize]).map_err(io_err("write"))?;
        Ok(Self {
            file,
            dim,
            chunk_cap,
            n: 0,
            n_chunks: 0,
            buf: vec![0.0; dim * chunk_cap],
            buf_len: 0,
        })
    }

    /// Point dimensionality of the store being written.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Points written so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no point has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        for &x in &self.buf {
            self.file.write_all(&x.to_le_bytes()).map_err(io_err("write"))?;
        }
        self.buf.iter_mut().for_each(|x| *x = 0.0); // deterministic padding
        self.buf_len = 0;
        self.n_chunks += 1;
        Ok(())
    }

    /// Append one point.
    pub fn push(&mut self, p: &[f64]) -> Result<(), StoreError> {
        if p.len() != self.dim {
            return Err(StoreError::DimMismatch { expected: self.dim, got: p.len() });
        }
        for (k, &x) in p.iter().enumerate() {
            self.buf[k * self.chunk_cap + self.buf_len] = x;
        }
        self.buf_len += 1;
        self.n += 1;
        if self.buf_len == self.chunk_cap {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Append every point of `data` in id order.
    pub fn push_dataset(&mut self, data: &Dataset) -> Result<(), StoreError> {
        for (_, p) in data.iter() {
            self.push(p)?;
        }
        Ok(())
    }

    /// Flush the trailing partial chunk, seal the header, and sync the
    /// file to disk.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if self.buf_len > 0 {
            self.flush_chunk()?;
        }
        if self.n > u32::MAX as u64 {
            return Err(StoreError::BadHeader(format!(
                "{} points exceed the u32 PointId space",
                self.n
            )));
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&STORE_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(self.dim as u32).to_le_bytes());
        header[12..16].copy_from_slice(&(self.chunk_cap as u32).to_le_bytes());
        header[16..24].copy_from_slice(&self.n.to_le_bytes());
        header[24..32].copy_from_slice(&self.n_chunks.to_le_bytes());
        self.file.flush().map_err(io_err("write"))?;
        let f = self.file.get_mut();
        f.seek(SeekFrom::Start(0)).map_err(io_err("seek"))?;
        f.write_all(&header).map_err(io_err("write"))?;
        f.sync_all().map_err(io_err("sync"))?;
        Ok(())
    }
}

/// Write `data` to `path` as a `MUDS` store with the given chunk
/// capacity (use [`geom::DEFAULT_CHUNK_CAP`] when unsure).
pub fn write_store(data: &Dataset, path: &Path, chunk_cap: usize) -> Result<(), StoreError> {
    let mut w = StoreWriter::create(path, data.dim(), chunk_cap)?;
    w.push_dataset(data)?;
    w.finish()
}

#[cfg(all(unix, target_endian = "little"))]
mod mapping {
    //! Read-only `mmap` of a file via raw syscalls (std links libc on
    //! unix, so the extern declarations resolve without a new crate).
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    pub struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // Read-only mapping of an immutable file: safe to share.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn map(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                return Ok(Self { ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(), len: 0 });
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr: ptr as *const u8, len })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
            }
        }
    }
}

enum Backing {
    /// Payload doubles borrowed from a live memory map.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(mapping::Mmap),
    /// Payload doubles decoded onto the heap (fallback targets, or a
    /// mapping whose alignment could not be proven).
    Heap(Box<[f64]>),
}

/// A validated, opened `MUDS` store. Implements [`DataSource`], handing
/// out chunk columns **borrowed straight from the mapping** — opening a
/// store costs one header read plus an `mmap`, independent of `n`.
pub struct ChunkedStore {
    path: PathBuf,
    dim: usize,
    chunk_cap: usize,
    n: usize,
    n_chunks: usize,
    backing: Backing,
}

impl ChunkedStore {
    /// Open and validate `path`. Every header field is cross-checked
    /// against the file size before any point is touched, so a torn or
    /// corrupt store fails here with a typed [`StoreError`] instead of
    /// panicking mid-run.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path).map_err(io_err("open"))?;
        let file_len = file.metadata().map_err(io_err("stat"))?.len();
        if file_len < HEADER_BYTES {
            return Err(StoreError::Truncated {
                expected_bytes: HEADER_BYTES,
                actual_bytes: file_len,
            });
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header).map_err(io_err("read"))?;
        if &header[0..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != STORE_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let dim = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let chunk_cap = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let n = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let n_chunks = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if dim == 0 {
            return Err(StoreError::BadHeader("zero dimension".into()));
        }
        if chunk_cap == 0 {
            return Err(StoreError::BadHeader("zero chunk capacity".into()));
        }
        if n > u32::MAX as u64 {
            return Err(StoreError::BadHeader(format!("{n} points exceed the u32 PointId space")));
        }
        let want_chunks = n.div_ceil(chunk_cap as u64);
        if n_chunks != want_chunks {
            return Err(StoreError::BadHeader(format!(
                "chunk count {n_chunks} inconsistent with n={n}, chunk_cap={chunk_cap} (want {want_chunks})"
            )));
        }
        if header[32..64].iter().any(|&b| b != 0) {
            return Err(StoreError::BadHeader("reserved header bytes not zero".into()));
        }
        let payload_f64s = n_chunks
            .checked_mul(chunk_cap as u64)
            .and_then(|c| c.checked_mul(dim as u64))
            .ok_or_else(|| StoreError::BadHeader("payload size overflows".into()))?;
        let expected_bytes = HEADER_BYTES + payload_f64s * F64_BYTES;
        if file_len < expected_bytes {
            return Err(StoreError::Truncated { expected_bytes, actual_bytes: file_len });
        }
        if file_len > expected_bytes {
            return Err(StoreError::BadHeader(format!(
                "{} trailing bytes past the payload",
                file_len - expected_bytes
            )));
        }
        let backing = Self::back(&mut file, expected_bytes, payload_f64s as usize)?;
        Ok(Self {
            path: path.to_path_buf(),
            dim,
            chunk_cap,
            n: n as usize,
            n_chunks: n_chunks as usize,
            backing,
        })
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn back(file: &mut File, file_len: u64, payload_f64s: usize) -> Result<Backing, StoreError> {
        match mapping::Mmap::map(file, file_len as usize) {
            Ok(m) => {
                let data = &m.bytes()[HEADER_BYTES as usize..];
                // Page-aligned base + 64-byte header keeps f64 alignment;
                // fall back to a heap read rather than assume it.
                if (data.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>()) {
                    Ok(Backing::Mapped(m))
                } else {
                    Self::heap_back(file, payload_f64s)
                }
            }
            Err(_) => Self::heap_back(file, payload_f64s),
        }
    }

    #[cfg(not(all(unix, target_endian = "little")))]
    fn back(file: &mut File, _file_len: u64, payload_f64s: usize) -> Result<Backing, StoreError> {
        Self::heap_back(file, payload_f64s)
    }

    fn heap_back(file: &mut File, payload_f64s: usize) -> Result<Backing, StoreError> {
        file.seek(SeekFrom::Start(HEADER_BYTES)).map_err(io_err("seek"))?;
        let mut r = io::BufReader::new(file);
        let mut floats = Vec::with_capacity(payload_f64s);
        let mut b8 = [0u8; 8];
        for _ in 0..payload_f64s {
            r.read_exact(&mut b8).map_err(io_err("read"))?;
            floats.push(f64::from_le_bytes(b8));
        }
        Ok(Backing::Heap(floats.into_boxed_slice()))
    }

    /// All payload doubles (every chunk at full stride, concatenated).
    fn floats(&self) -> &[f64] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(m) => {
                let data = &m.bytes()[HEADER_BYTES as usize..];
                // Alignment was checked at open time.
                unsafe { std::slice::from_raw_parts(data.as_ptr() as *const f64, data.len() / 8) }
            }
            Backing::Heap(h) => h,
        }
    }

    /// The path this store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when the payload is served by a live memory map (as opposed
    /// to the heap-decoded fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(_) => true,
            Backing::Heap(_) => false,
        }
    }

    /// File bytes the store occupies on disk.
    pub fn file_bytes(&self) -> u64 {
        HEADER_BYTES
            + (self.n_chunks as u64) * (self.chunk_cap as u64) * (self.dim as u64) * F64_BYTES
    }
}

impl DataSource for ChunkedStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.n
    }

    fn chunk_cap(&self) -> usize {
        self.chunk_cap
    }

    fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    fn chunk(&self, c: usize) -> SourceChunk<'_> {
        assert!(c < self.n_chunks, "chunk index out of range");
        let base = c * self.chunk_cap;
        let len = self.chunk_cap.min(self.n - base);
        let per_chunk = self.chunk_cap * self.dim;
        let cols = &self.floats()[c * per_chunk..(c + 1) * per_chunk];
        SourceChunk {
            base: base as PointId,
            len,
            dim: self.dim,
            stride: self.chunk_cap,
            cols: Cols::Borrowed(cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gaussian_mixture;
    use geom::gather_dense;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mudbscan_store_{name}_{}", std::process::id()))
    }

    #[test]
    fn round_trip_matches_dataset() {
        let d = gaussian_mixture(1000, 3, 4, 2.0, 0.3, 11);
        let path = tmp("roundtrip");
        write_store(&d, &path, 128).unwrap();
        let s = ChunkedStore::open(&path).unwrap();
        assert_eq!(DataSource::len(&s), d.len());
        assert_eq!(DataSource::dim(&s), 3);
        assert_eq!(s.n_chunks(), 1000usize.div_ceil(128));
        let back = gather_dense(&s);
        assert_eq!(back, d);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(s.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_columns_are_zero_copy_kernel_ready() {
        let d = gaussian_mixture(300, 2, 2, 1.0, 0.2, 7);
        let path = tmp("kernel");
        write_store(&d, &path, 64).unwrap();
        let s = ChunkedStore::open(&path).unwrap();
        let q = [0.5, -0.5];
        for c in 0..s.n_chunks() {
            let ch = s.chunk(c);
            let mut out = vec![0.0; ch.len];
            ch.dist_sq_batch(&q, &mut out);
            for (i, got) in out.iter().enumerate() {
                let want = geom::dist_sq(d.point(ch.base + i as u32), &q);
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_chunk_is_rejected() {
        let d = gaussian_mixture(200, 3, 2, 1.0, 0.2, 3);
        let path = tmp("trunc");
        write_store(&d, &path, 64).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 100).unwrap(); // tear the last chunk
        drop(f);
        match ChunkedStore::open(&path).err() {
            Some(StoreError::Truncated { expected_bytes, actual_bytes }) => {
                assert_eq!(expected_bytes, full);
                assert_eq!(actual_bytes, full - 100);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let path = tmp("dim");
        let mut w = StoreWriter::create(&path, 3, 16).unwrap();
        w.push(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(w.push(&[1.0, 2.0]), Err(StoreError::DimMismatch { expected: 3, got: 2 }));
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_and_corrupt_files_are_rejected() {
        // Missing file → Io.
        match ChunkedStore::open(Path::new("/nonexistent/mudbscan.muds")).err() {
            Some(StoreError::Io { op, .. }) => assert_eq!(op, "open"),
            other => panic!("expected Io, got {other:?}"),
        }
        // Wrong magic → BadMagic.
        let path = tmp("magic");
        std::fs::write(&path, [b'X'; 64]).unwrap();
        assert!(matches!(ChunkedStore::open(&path), Err(StoreError::BadMagic)));
        // Unfinished writer leaves a zeroed header → BadMagic too.
        let unfinished = tmp("unfinished");
        let mut w = StoreWriter::create(&unfinished, 2, 8).unwrap();
        w.push(&[0.0, 0.0]).unwrap();
        drop(w); // no finish()
        assert!(matches!(ChunkedStore::open(&unfinished), Err(StoreError::BadMagic)));
        // Bad version.
        let vpath = tmp("version");
        let mut hdr = [0u8; 64];
        hdr[0..4].copy_from_slice(b"MUDS");
        hdr[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&vpath, hdr).unwrap();
        assert!(matches!(ChunkedStore::open(&vpath), Err(StoreError::BadVersion(99))));
        for p in [path, unfinished, vpath] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn header_inconsistencies_are_rejected() {
        let d = gaussian_mixture(50, 2, 1, 1.0, 0.2, 5);
        let path = tmp("hdr");
        write_store(&d, &path, 16).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the chunk count.
        bytes[24..32].copy_from_slice(&7u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(ChunkedStore::open(&path), Err(StoreError::BadHeader(_))));
        // Trailing garbage past the payload.
        write_store(&d, &path, 16).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 9]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(ChunkedStore::open(&path), Err(StoreError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let path = tmp("empty");
        StoreWriter::create(&path, 4, 32).unwrap().finish().unwrap();
        let s = ChunkedStore::open(&path).unwrap();
        assert!(DataSource::is_empty(&s));
        assert_eq!(s.n_chunks(), 0);
        assert!(gather_dense(&s).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn display_messages_name_the_failure() {
        let e = StoreError::Truncated { expected_bytes: 100, actual_bytes: 50 };
        assert!(e.to_string().contains("truncated"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::DimMismatch { expected: 3, got: 2 }.to_string().contains("3"));
    }
}
