//! A persistent, CRC-checked trace-corpus store.
//!
//! Traces were previously regenerated from seeds on every run; a
//! corpus file banks them so campaigns replay *bit-identically* across
//! sessions (corpus-driven regression suites, fuzzer finds, the
//! `aos serve` replay jobs). The design goal is graceful degradation
//! under hostile bytes: every structure that crosses the disk boundary
//! is length-prefixed and CRC-32 checksummed, so a flipped bit or a
//! truncated write surfaces as a typed [`AosError::Corruption`] that
//! *quarantines one entry* — never a panic, never a silently
//! mis-replayed op.
//!
//! On-disk layout (`aos-corpus/v1`, all integers little-endian):
//!
//! ```text
//! offset 0   magic "AOSC"
//! offset 4   version u16 = 1
//! offset 6   reserved u16 = 0
//! offset 8   index_offset u64   (patched by finish(); 0 = unfinished)
//! offset 16  entry_count u32    (patched by finish())
//! offset 20  frames...
//!
//! frame      [len u32][crc32 u32][kind u8][payload: len-1 bytes]
//!            crc32 covers kind + payload
//! kind 0     entry header: name_len u32, name, meta_len u32, metadata
//! kind 1     op block: op records (≤ BLOCK_OPS ops)
//! kind 2     entry trailer: op_count u64, block_count u32
//!
//! index      per entry: name_len u32, name, meta_len u32, metadata,
//!            offset u64, op_count u64, block_count u32;
//!            then crc32 u32 over all index bytes
//! ```
//!
//! The header's `index_offset` makes the index a random-access jump
//! (mmap-friendly: entry frames are contiguous from their recorded
//! offsets); the per-entry trailer cross-checks the streamed frame
//! sequence against the op/block counts the writer committed, so a
//! corpus truncated mid-entry is detected even when every surviving
//! frame checks clean.
//!
//! # Examples
//!
//! ```
//! use aos_isa::{corpus, Op};
//! use aos_util::Telemetry;
//!
//! let dir = aos_util::scratch::ScratchDir::new("corpus-doc")?;
//! let path = dir.join("demo.aosc");
//! let ops = vec![Op::IntAlu, Op::Load { pointer: 0x40, bytes: 8, chained: false }];
//!
//! let mut writer = corpus::CorpusWriter::create(&path, Telemetry::disabled())?;
//! writer.record("mcf-aos", "workload=mcf system=AOS", ops.iter().copied())?;
//! writer.finish()?;
//!
//! let reader = corpus::CorpusReader::open(&path, Telemetry::disabled())?;
//! let entry = reader.find("mcf-aos").unwrap().clone();
//! let replayed: Vec<Op> = reader.replay(&entry)?.collect::<Result<_, _>>()?;
//! assert_eq!(replayed, ops);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use aos_util::{AosError, Counter, Telemetry};

use crate::Op;

/// File magic: "AOSC".
const MAGIC: [u8; 4] = *b"AOSC";
/// Format version.
const VERSION: u16 = 1;
/// Header bytes before the first frame.
const HEADER_LEN: u64 = 20;

/// Frame kinds.
const KIND_ENTRY_HEADER: u8 = 0;
const KIND_OP_BLOCK: u8 = 1;
const KIND_ENTRY_TRAILER: u8 = 2;

/// Ops per CRC-framed block (the streaming granule; a corrupt block
/// quarantines at most this many ops' worth of frame).
pub const BLOCK_OPS: usize = 4096;

/// Sanity bound on any single frame's length prefix: a corrupt length
/// must produce a typed error, not an allocation storm.
const MAX_FRAME_LEN: u32 = 1 << 26;
/// Sanity bound on name/metadata strings.
const MAX_STRING_LEN: u32 = 1 << 20;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One recorded trace in a corpus: its identity plus where its frames
/// live, straight from the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Caller-chosen entry name, unique within the corpus.
    pub name: String,
    /// Free-form provenance string (workload/system/scale/fault).
    pub metadata: String,
    /// Byte offset of the entry's header frame.
    pub offset: u64,
    /// Ops the entry holds.
    pub op_count: u64,
    /// Frames the entry's ops span (trailer and header excluded).
    pub block_count: u32,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> AosError {
    AosError::Io {
        context: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(path: &Path, detail: impl std::fmt::Display) -> AosError {
    AosError::corruption(format!("corpus {}", path.display()), detail)
}

// ------------------------------------------------------------ op records

// Op record tags: one byte per record, then little-endian operands.
const TAG_INT_ALU: u8 = 0;
const TAG_INT_MUL: u8 = 1;
const TAG_FP_ALU: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_LOAD: u8 = 4;
const TAG_STORE: u8 = 5;
const TAG_PACMA: u8 = 6;
const TAG_XPACM: u8 = 7;
const TAG_AUTM: u8 = 8;
const TAG_PAC_CRYPTO: u8 = 9;
const TAG_BNDSTR: u8 = 10;
const TAG_BNDCLR: u8 = 11;
const TAG_WDCHECK: u8 = 12;
const TAG_WDMETA: u8 = 13;

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes one op record: its tag byte, then its operands.
fn write_op<W: Write>(w: &mut W, op: &Op) -> io::Result<()> {
    match *op {
        Op::IntAlu => w.write_all(&[TAG_INT_ALU]),
        Op::IntMul => w.write_all(&[TAG_INT_MUL]),
        Op::FpAlu => w.write_all(&[TAG_FP_ALU]),
        Op::Branch {
            pc,
            taken,
            mispredicted,
        } => {
            w.write_all(&[TAG_BRANCH, taken as u8, mispredicted as u8])?;
            write_u64(w, pc)
        }
        Op::Load {
            pointer,
            bytes,
            chained,
        } => {
            w.write_all(&[TAG_LOAD, chained as u8])?;
            w.write_all(&bytes.to_le_bytes())?;
            write_u64(w, pointer)
        }
        Op::Store { pointer, bytes } => {
            w.write_all(&[TAG_STORE])?;
            w.write_all(&bytes.to_le_bytes())?;
            write_u64(w, pointer)
        }
        Op::Pacma { pointer, size } => {
            w.write_all(&[TAG_PACMA])?;
            write_u64(w, pointer)?;
            write_u64(w, size)
        }
        Op::Xpacm => w.write_all(&[TAG_XPACM]),
        Op::Autm { pointer } => {
            w.write_all(&[TAG_AUTM])?;
            write_u64(w, pointer)
        }
        Op::PacCrypto => w.write_all(&[TAG_PAC_CRYPTO]),
        Op::BndStr { pointer, size } => {
            w.write_all(&[TAG_BNDSTR])?;
            write_u64(w, pointer)?;
            write_u64(w, size)
        }
        Op::BndClr { pointer } => {
            w.write_all(&[TAG_BNDCLR])?;
            write_u64(w, pointer)
        }
        Op::WdCheck { pointer } => {
            w.write_all(&[TAG_WDCHECK])?;
            write_u64(w, pointer)
        }
        Op::WdMeta { pointer, is_store } => {
            w.write_all(&[TAG_WDMETA, is_store as u8])?;
            write_u64(w, pointer)
        }
    }
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Decodes one op record whose tag byte has already been consumed.
fn read_op<R: Read>(tag: u8, reader: &mut R) -> io::Result<Op> {
    Ok(match tag {
        TAG_INT_ALU => Op::IntAlu,
        TAG_INT_MUL => Op::IntMul,
        TAG_FP_ALU => Op::FpAlu,
        TAG_BRANCH => {
            let mut flags = [0u8; 2];
            reader.read_exact(&mut flags)?;
            Op::Branch {
                taken: flags[0] != 0,
                mispredicted: flags[1] != 0,
                pc: read_u64(reader)?,
            }
        }
        TAG_LOAD => {
            let mut chained = [0u8; 1];
            reader.read_exact(&mut chained)?;
            let bytes = read_u32(reader)?;
            Op::Load {
                chained: chained[0] != 0,
                bytes,
                pointer: read_u64(reader)?,
            }
        }
        TAG_STORE => {
            let bytes = read_u32(reader)?;
            Op::Store {
                bytes,
                pointer: read_u64(reader)?,
            }
        }
        TAG_PACMA => Op::Pacma {
            pointer: read_u64(reader)?,
            size: read_u64(reader)?,
        },
        TAG_XPACM => Op::Xpacm,
        TAG_AUTM => Op::Autm {
            pointer: read_u64(reader)?,
        },
        TAG_PAC_CRYPTO => Op::PacCrypto,
        TAG_BNDSTR => Op::BndStr {
            pointer: read_u64(reader)?,
            size: read_u64(reader)?,
        },
        TAG_BNDCLR => Op::BndClr {
            pointer: read_u64(reader)?,
        },
        TAG_WDCHECK => Op::WdCheck {
            pointer: read_u64(reader)?,
        },
        TAG_WDMETA => {
            let mut is_store = [0u8; 1];
            reader.read_exact(&mut is_store)?;
            Op::WdMeta {
                is_store: is_store[0] != 0,
                pointer: read_u64(reader)?,
            }
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown op tag {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------- writer

/// Streams entries into a new corpus file. Entries are recorded one at
/// a time ([`CorpusWriter::record`] drains its op iterator in
/// `BLOCK_OPS` granules, never materializing the trace); `finish`
/// writes the index and patches the header, making the file valid —
/// a writer dropped without `finish` leaves `index_offset = 0`, which
/// readers reject as an unfinished corpus.
#[derive(Debug)]
pub struct CorpusWriter {
    path: PathBuf,
    file: io::BufWriter<std::fs::File>,
    written: u64,
    entries: Vec<EntryMeta>,
    telemetry: Telemetry,
}

impl CorpusWriter {
    /// Creates `path` and writes the (unfinished) header.
    ///
    /// # Errors
    ///
    /// [`AosError::Io`] when the file cannot be created or written.
    pub fn create(path: impl AsRef<Path>, telemetry: Telemetry) -> Result<Self, AosError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut writer = Self {
            file: io::BufWriter::new(file),
            written: 0,
            entries: Vec::new(),
            telemetry,
            path,
        };
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // index_offset, patched
        header.extend_from_slice(&0u32.to_le_bytes()); // entry_count, patched
        writer.write_bytes(&header)?;
        Ok(writer)
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), AosError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Writes one `[len][crc][kind][payload]` frame.
    fn write_frame(&mut self, kind: u8, payload: &[u8]) -> Result<(), AosError> {
        let mut body = Vec::with_capacity(payload.len() + 1);
        body.push(kind);
        body.extend_from_slice(payload);
        let mut frame = Vec::with_capacity(body.len() + 8);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.write_bytes(&frame)?;
        self.telemetry.count(Counter::CorpusBlocksWritten);
        Ok(())
    }

    /// Records one entry: streams `ops` into CRC-framed blocks and
    /// commits the op/block counts in the entry trailer. Returns the
    /// entry's index record.
    ///
    /// # Errors
    ///
    /// [`AosError::InvalidInput`] for a duplicate or oversized
    /// name/metadata, [`AosError::Io`] on write failure.
    pub fn record(
        &mut self,
        name: &str,
        metadata: &str,
        ops: impl Iterator<Item = Op>,
    ) -> Result<EntryMeta, AosError> {
        if self.entries.iter().any(|e| e.name == name) {
            return Err(AosError::invalid_input(
                "corpus entry",
                format!("duplicate entry name '{name}'"),
            ));
        }
        if name.len() as u32 > MAX_STRING_LEN || metadata.len() as u32 > MAX_STRING_LEN {
            return Err(AosError::invalid_input(
                "corpus entry",
                "name/metadata exceed 1 MiB",
            ));
        }
        let offset = self.written;
        let mut header = Vec::with_capacity(name.len() + metadata.len() + 8);
        header.extend_from_slice(&(name.len() as u32).to_le_bytes());
        header.extend_from_slice(name.as_bytes());
        header.extend_from_slice(&(metadata.len() as u32).to_le_bytes());
        header.extend_from_slice(metadata.as_bytes());
        self.write_frame(KIND_ENTRY_HEADER, &header)?;

        let mut op_count = 0u64;
        let mut block_count = 0u32;
        let mut payload = Vec::new();
        let mut ops_in_block = 0usize;
        for op in ops {
            write_op(&mut payload, &op).map_err(|e| io_err(&self.path, e))?;
            op_count += 1;
            ops_in_block += 1;
            if ops_in_block == BLOCK_OPS {
                self.write_frame(KIND_OP_BLOCK, &payload)?;
                block_count += 1;
                payload.clear();
                ops_in_block = 0;
            }
        }
        if ops_in_block > 0 {
            self.write_frame(KIND_OP_BLOCK, &payload)?;
            block_count += 1;
        }

        let mut trailer = Vec::with_capacity(12);
        trailer.extend_from_slice(&op_count.to_le_bytes());
        trailer.extend_from_slice(&block_count.to_le_bytes());
        self.write_frame(KIND_ENTRY_TRAILER, &trailer)?;

        let meta = EntryMeta {
            name: name.to_string(),
            metadata: metadata.to_string(),
            offset,
            op_count,
            block_count,
        };
        self.entries.push(meta.clone());
        Ok(meta)
    }

    /// Writes the index, patches the header, and flushes. Returns the
    /// recorded entries.
    ///
    /// # Errors
    ///
    /// [`AosError::Io`] on write/seek failure.
    pub fn finish(mut self) -> Result<Vec<EntryMeta>, AosError> {
        let index_offset = self.written;
        let mut index = Vec::new();
        for e in &self.entries {
            index.extend_from_slice(&(e.name.len() as u32).to_le_bytes());
            index.extend_from_slice(e.name.as_bytes());
            index.extend_from_slice(&(e.metadata.len() as u32).to_le_bytes());
            index.extend_from_slice(e.metadata.as_bytes());
            index.extend_from_slice(&e.offset.to_le_bytes());
            index.extend_from_slice(&e.op_count.to_le_bytes());
            index.extend_from_slice(&e.block_count.to_le_bytes());
        }
        let crc = crc32(&index);
        self.write_bytes(&index)?;
        let crc_bytes = crc.to_le_bytes();
        self.write_bytes(&crc_bytes)?;

        let path = self.path.clone();
        let entry_count = self.entries.len() as u32;
        // Flush buffered frames before seeking under the buffer.
        self.file.flush().map_err(|e| io_err(&path, e))?;
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(8))
            .map_err(|e| io_err(&path, e))?;
        file.write_all(&index_offset.to_le_bytes())
            .map_err(|e| io_err(&path, e))?;
        file.write_all(&entry_count.to_le_bytes())
            .map_err(|e| io_err(&path, e))?;
        file.sync_all().map_err(|e| io_err(&path, e))?;
        Ok(self.entries)
    }
}

// ---------------------------------------------------------------- reader

/// One decoded frame: its kind and payload.
struct Frame {
    kind: u8,
    payload: Vec<u8>,
}

/// Reads and CRC-validates the frame at the reader's position.
fn read_frame<R: Read>(r: &mut R, path: &Path, telemetry: &Telemetry) -> Result<Frame, AosError> {
    let mut fixed = [0u8; 8];
    r.read_exact(&mut fixed).map_err(|_| {
        telemetry.count(Counter::CorpusCrcFailures);
        corrupt(path, "truncated frame header")
    })?;
    let len = u32::from_le_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]);
    let crc = u32::from_le_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
    if len == 0 || len > MAX_FRAME_LEN {
        telemetry.count(Counter::CorpusCrcFailures);
        return Err(corrupt(path, format!("implausible frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|_| {
        telemetry.count(Counter::CorpusCrcFailures);
        corrupt(path, "frame truncated mid-payload")
    })?;
    if crc32(&body) != crc {
        telemetry.count(Counter::CorpusCrcFailures);
        return Err(corrupt(path, "frame CRC mismatch"));
    }
    telemetry.count(Counter::CorpusBlocksRead);
    Ok(Frame {
        kind: body[0],
        payload: body[1..].to_vec(),
    })
}

fn take_u32(bytes: &[u8], at: &mut usize, path: &Path) -> Result<u32, AosError> {
    let end = *at + 4;
    if end > bytes.len() {
        return Err(corrupt(path, "index record truncated"));
    }
    let v = u32::from_le_bytes([bytes[*at], bytes[*at + 1], bytes[*at + 2], bytes[*at + 3]]);
    *at = end;
    Ok(v)
}

fn take_u64(bytes: &[u8], at: &mut usize, path: &Path) -> Result<u64, AosError> {
    let end = *at + 8;
    if end > bytes.len() {
        return Err(corrupt(path, "index record truncated"));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u64::from_le_bytes(b))
}

fn take_string(bytes: &[u8], at: &mut usize, path: &Path) -> Result<String, AosError> {
    let len = take_u32(bytes, at, path)?;
    if len > MAX_STRING_LEN {
        return Err(corrupt(path, format!("implausible string length {len}")));
    }
    let end = *at + len as usize;
    if end > bytes.len() {
        return Err(corrupt(path, "string truncated"));
    }
    let s = std::str::from_utf8(&bytes[*at..end])
        .map_err(|_| corrupt(path, "string is not UTF-8"))?
        .to_string();
    *at = end;
    Ok(s)
}

/// One entry's verification outcome.
#[derive(Debug, Clone)]
pub struct EntryCheck {
    /// The entry's index record.
    pub entry: EntryMeta,
    /// `Ok` when every frame validated and the trailer counts match;
    /// the quarantining [`AosError`] otherwise.
    pub status: Result<(), AosError>,
}

/// Opens and replays a finished corpus. Every read path is typed:
/// malformed bytes become [`AosError::Corruption`] naming the file,
/// never a panic.
#[derive(Debug)]
pub struct CorpusReader {
    path: PathBuf,
    entries: Vec<EntryMeta>,
    telemetry: Telemetry,
}

impl CorpusReader {
    /// Opens `path`: validates magic/version, requires a finished
    /// index, and CRC-checks the index bytes.
    ///
    /// # Errors
    ///
    /// [`AosError::Io`] when the file cannot be read,
    /// [`AosError::Corruption`] for bad magic, an unsupported version,
    /// an unfinished corpus, or an index that fails its CRC.
    pub fn open(path: impl AsRef<Path>, telemetry: Telemetry) -> Result<Self, AosError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::open(&path).map_err(|e| io_err(&path, e))?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|_| corrupt(&path, "file shorter than the corpus header"))?;
        if header[0..4] != MAGIC {
            return Err(corrupt(&path, "not an AOS corpus (bad magic)"));
        }
        if u16::from_le_bytes([header[4], header[5]]) != VERSION {
            return Err(corrupt(&path, "unsupported corpus version"));
        }
        let index_offset = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let entry_count = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        if index_offset == 0 {
            return Err(corrupt(
                &path,
                "unfinished corpus (writer never reached finish())",
            ));
        }
        let file_len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        if index_offset + 4 > file_len {
            return Err(corrupt(&path, "index offset beyond end of file"));
        }
        file.seek(SeekFrom::Start(index_offset))
            .map_err(|e| io_err(&path, e))?;
        let mut index = vec![0u8; (file_len - index_offset) as usize];
        file.read_exact(&mut index).map_err(|e| io_err(&path, e))?;
        let (index, crc_bytes) = index.split_at(index.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(index) != stored {
            return Err(corrupt(&path, "index CRC mismatch"));
        }
        let mut entries = Vec::with_capacity(entry_count as usize);
        let mut at = 0usize;
        for _ in 0..entry_count {
            let name = take_string(index, &mut at, &path)?;
            let metadata = take_string(index, &mut at, &path)?;
            let offset = take_u64(index, &mut at, &path)?;
            let op_count = take_u64(index, &mut at, &path)?;
            let block_count = take_u32(index, &mut at, &path)?;
            entries.push(EntryMeta {
                name,
                metadata,
                offset,
                op_count,
                block_count,
            });
        }
        if at != index.len() {
            return Err(corrupt(&path, "index has trailing bytes"));
        }
        Ok(Self {
            path,
            entries,
            telemetry,
        })
    }

    /// The corpus path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every entry, in record order.
    pub fn entries(&self) -> &[EntryMeta] {
        &self.entries
    }

    /// The entry named `name`, if present.
    pub fn find(&self, name: &str) -> Option<&EntryMeta> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Streams every frame of `entry`, validating CRCs and the trailer
    /// counts, without decoding ops. One pass, `O(block)` memory.
    ///
    /// # Errors
    ///
    /// The quarantining [`AosError::Corruption`] of the first bad
    /// frame, or [`AosError::Io`] when the file cannot be read.
    pub fn verify_entry(&self, entry: &EntryMeta) -> Result<(), AosError> {
        let mut replay = self.replay(entry)?;
        for op in &mut replay {
            op?;
        }
        Ok(())
    }

    /// Verifies every entry; per-entry status, corrupt entries
    /// quarantined individually (one bad entry never hides another).
    pub fn verify(&self) -> Vec<EntryCheck> {
        self.entries
            .iter()
            .map(|entry| EntryCheck {
                entry: entry.clone(),
                status: self.verify_entry(entry),
            })
            .collect()
    }

    /// Opens a streaming replay of `entry`: an iterator of
    /// `Result<Op, AosError>` that CRC-validates each block *before*
    /// yielding any op from it, so a corrupt block can never feed a
    /// machine — the iterator yields the typed error once and ends.
    ///
    /// # Errors
    ///
    /// Opening fails with [`AosError::Io`] / [`AosError::Corruption`]
    /// when the file cannot be opened or the entry's header frame is
    /// bad.
    pub fn replay(&self, entry: &EntryMeta) -> Result<Replay, AosError> {
        let file = std::fs::File::open(&self.path).map_err(|e| io_err(&self.path, e))?;
        let mut reader = io::BufReader::new(file);
        reader
            .seek(SeekFrom::Start(entry.offset))
            .map_err(|e| io_err(&self.path, e))?;
        let header = read_frame(&mut reader, &self.path, &self.telemetry)?;
        if header.kind != KIND_ENTRY_HEADER {
            self.telemetry.count(Counter::CorpusCrcFailures);
            return Err(corrupt(
                &self.path,
                format!("entry '{}' does not start with a header frame", entry.name),
            ));
        }
        Ok(Replay {
            path: self.path.clone(),
            entry: entry.clone(),
            reader,
            telemetry: self.telemetry.clone(),
            block: Vec::new().into_iter(),
            blocks_seen: 0,
            ops_seen: 0,
            peak_block: 0,
            done: false,
        })
    }
}

/// The streaming replay handle returned by [`CorpusReader::replay`].
#[derive(Debug)]
pub struct Replay {
    path: PathBuf,
    entry: EntryMeta,
    reader: io::BufReader<std::fs::File>,
    telemetry: Telemetry,
    block: std::vec::IntoIter<Op>,
    blocks_seen: u32,
    ops_seen: u64,
    /// The longest op block decoded so far.
    peak_block: usize,
    done: bool,
}

impl Replay {
    /// Decodes the next frame into the block buffer; `Ok(false)` on a
    /// clean trailer.
    fn refill(&mut self) -> Result<bool, AosError> {
        let frame = read_frame(&mut self.reader, &self.path, &self.telemetry)?;
        match frame.kind {
            KIND_OP_BLOCK => {
                let mut ops = Vec::new();
                let mut cursor = &frame.payload[..];
                while let Some((&tag, rest)) = cursor.split_first() {
                    let mut rest = rest;
                    let op = read_op(tag, &mut rest).map_err(|e| {
                        self.telemetry.count(Counter::CorpusCrcFailures);
                        corrupt(&self.path, format!("op block decode failed: {e}"))
                    })?;
                    ops.push(op);
                    cursor = rest;
                }
                self.blocks_seen += 1;
                self.ops_seen += ops.len() as u64;
                self.peak_block = self.peak_block.max(ops.len());
                self.block = ops.into_iter();
                Ok(true)
            }
            KIND_ENTRY_TRAILER => {
                if frame.payload.len() != 12 {
                    self.telemetry.count(Counter::CorpusCrcFailures);
                    return Err(corrupt(&self.path, "entry trailer has the wrong size"));
                }
                let op_count = u64::from_le_bytes(frame.payload[0..8].try_into().expect("8 bytes"));
                let block_count =
                    u32::from_le_bytes(frame.payload[8..12].try_into().expect("4 bytes"));
                if op_count != self.ops_seen || block_count != self.blocks_seen {
                    self.telemetry.count(Counter::CorpusCrcFailures);
                    return Err(corrupt(
                        &self.path,
                        format!(
                            "entry '{}' trailer mismatch: trailer says {op_count} ops / \
                             {block_count} blocks, stream carried {} / {}",
                            self.entry.name, self.ops_seen, self.blocks_seen
                        ),
                    ));
                }
                Ok(false)
            }
            other => {
                self.telemetry.count(Counter::CorpusCrcFailures);
                Err(corrupt(
                    &self.path,
                    format!("unexpected frame kind {other} inside entry"),
                ))
            }
        }
    }
}

/// A replay holds one decoded op block at a time.
impl crate::stream::BufferedOps for Replay {
    fn peak_buffered_ops(&self) -> usize {
        self.peak_block
    }
}

impl Iterator for Replay {
    type Item = Result<Op, AosError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if let Some(op) = self.block.next() {
                return Some(Ok(op));
            }
            match self.refill() {
                Ok(true) => continue,
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_util::scratch::ScratchDir;

    fn sample_ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| match i % 5 {
                0 => Op::IntAlu,
                1 => Op::Load {
                    pointer: 0x4000 + i as u64,
                    bytes: 8,
                    chained: false,
                },
                2 => Op::Store {
                    pointer: 0x8000 + i as u64,
                    bytes: 4,
                },
                3 => Op::Pacma {
                    pointer: 0x4000_0000 + i as u64,
                    size: 64,
                },
                _ => Op::Branch {
                    pc: i as u64,
                    taken: i % 2 == 0,
                    mispredicted: false,
                },
            })
            .collect()
    }

    /// A private scratch directory holding `name`; the guard removes it
    /// when the test drops it.
    fn temp_corpus(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(name).expect("scratch dir");
        let path = dir.join(name);
        (dir, path)
    }

    /// One op of each of the 14 kinds.
    fn every_op_kind() -> Vec<Op> {
        vec![
            Op::IntAlu,
            Op::IntMul,
            Op::FpAlu,
            Op::Branch {
                pc: 0x400100,
                taken: true,
                mispredicted: false,
            },
            Op::Load {
                pointer: 0xABCD_0000_1234,
                bytes: 8,
                chained: true,
            },
            Op::Store {
                pointer: 0x4000_0010,
                bytes: 4,
            },
            Op::Pacma {
                pointer: 0x4000_0010,
                size: 64,
            },
            Op::Xpacm,
            Op::Autm { pointer: 0x77 },
            Op::PacCrypto,
            Op::BndStr {
                pointer: 0x4000_0010,
                size: 64,
            },
            Op::BndClr {
                pointer: 0x4000_0010,
            },
            Op::WdCheck { pointer: 0x9 },
            Op::WdMeta {
                pointer: 0x9,
                is_store: true,
            },
        ]
    }

    /// Records `ops` as the only entry of a fresh corpus at `path`
    /// and replays it back.
    fn record_and_replay(path: &Path, ops: &[Op]) -> Result<Vec<Op>, AosError> {
        let mut w = CorpusWriter::create(path, Telemetry::disabled())?;
        w.record("entry", "", ops.iter().copied())?;
        w.finish()?;
        let r = CorpusReader::open(path, Telemetry::disabled())?;
        let entry = r.find("entry").expect("entry").clone();
        r.replay(&entry)?.collect()
    }

    /// Overwrites the payload of `entry`'s first op block with
    /// `payload` (same length) and re-seals the frame's CRC, so the
    /// frame checks clean but its op records are whatever the test
    /// wrote.
    fn reseal_first_block(path: &Path, entry: &EntryMeta, payload: &[u8]) {
        let mut bytes = std::fs::read(path).unwrap();
        let header_frame = 8 + 1 + 4 + entry.name.len() + 4 + entry.metadata.len();
        let block = entry.offset as usize + header_frame;
        let len = u32::from_le_bytes(bytes[block..block + 4].try_into().unwrap()) as usize;
        assert_eq!(len, payload.len() + 1, "payload must keep the frame length");
        let body = block + 8;
        assert_eq!(bytes[body], KIND_OP_BLOCK);
        bytes[body + 1..body + len].copy_from_slice(payload);
        let crc = crc32(&bytes[body..body + len]);
        bytes[block + 4..block + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn every_op_kind_roundtrips() {
        let (_dir, path) = temp_corpus("kinds.aosc");
        let ops = every_op_kind();
        assert_eq!(record_and_replay(&path, &ops).expect("clean replay"), ops);
    }

    #[test]
    fn int_alu_record_is_one_byte() {
        let mut buf = Vec::new();
        write_op(&mut buf, &Op::IntAlu).unwrap();
        assert_eq!(buf, [TAG_INT_ALU]);
    }

    #[test]
    fn undecodable_op_records_are_corruption() {
        // A lone Load record is 14 bytes: tag, chained, u32, u64.
        let load = Op::Load {
            pointer: 0x1234,
            bytes: 8,
            chained: false,
        };
        let mut unknown_tag = vec![200u8];
        unknown_tag.resize(14, TAG_INT_ALU);
        // Eleven IntAlu records, then a Load cut off after its flag
        // and one operand byte.
        let mut truncated = vec![TAG_INT_ALU; 11];
        truncated.extend_from_slice(&[TAG_LOAD, 0, 8]);
        for (case, payload) in [("unknown-tag", unknown_tag), ("truncated", truncated)] {
            let (_dir, path) = temp_corpus(&format!("{case}.aosc"));
            let mut w = CorpusWriter::create(&path, Telemetry::disabled()).unwrap();
            let entry = w.record(case, "", std::iter::once(load)).unwrap();
            w.finish().unwrap();
            reseal_first_block(&path, &entry, &payload);

            let r = CorpusReader::open(&path, Telemetry::disabled()).unwrap();
            let err = r.verify_entry(&entry).unwrap_err();
            assert!(matches!(err, AosError::Corruption { .. }), "{case}: {err}");
            assert!(
                err.to_string().contains("op block decode failed"),
                "{case}: {err}"
            );
        }
        let err = read_op(200, &mut &[][..]).unwrap_err();
        assert!(err.to_string().contains("unknown op tag 200"), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error_naming_the_path() {
        let (_dir, path) = temp_corpus("nope.aosc");
        let err = CorpusReader::open(&path, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, AosError::Io { .. }), "{err}");
        assert!(err.to_string().contains("nope.aosc"), "{err}");
    }

    #[test]
    fn record_replay_roundtrips_across_block_boundaries() {
        let (_dir, path) = temp_corpus("roundtrip.aosc");
        let ops = sample_ops(BLOCK_OPS * 2 + 17);
        let t = Telemetry::enabled();
        let mut w = CorpusWriter::create(&path, t.clone()).expect("create");
        let meta = w
            .record("big", "workload=test", ops.iter().copied())
            .expect("record");
        assert_eq!(meta.op_count, ops.len() as u64);
        assert_eq!(meta.block_count, 3);
        w.finish().expect("finish");
        // header + 3 blocks + trailer
        assert_eq!(t.snapshot().counter(Counter::CorpusBlocksWritten), 5);

        let r = CorpusReader::open(&path, Telemetry::enabled()).expect("open");
        assert_eq!(r.entries().len(), 1);
        let entry = r.find("big").expect("entry").clone();
        assert_eq!(entry.metadata, "workload=test");
        let replayed: Vec<Op> = r
            .replay(&entry)
            .expect("replay")
            .collect::<Result<_, _>>()
            .expect("clean replay");
        assert_eq!(replayed, ops);
    }

    #[test]
    fn multiple_entries_index_and_verify() {
        let (_dir, path) = temp_corpus("multi.aosc");
        let mut w = CorpusWriter::create(&path, Telemetry::disabled()).expect("create");
        w.record("a", "first", sample_ops(10).into_iter()).unwrap();
        w.record("b", "second", sample_ops(100).into_iter())
            .unwrap();
        w.record("empty", "", std::iter::empty()).unwrap();
        assert!(matches!(
            w.record("a", "dup", std::iter::empty()),
            Err(AosError::InvalidInput { .. })
        ));
        w.finish().unwrap();

        let r = CorpusReader::open(&path, Telemetry::disabled()).unwrap();
        assert_eq!(
            r.entries()
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "empty"]
        );
        for check in r.verify() {
            assert!(
                check.status.is_ok(),
                "{}: {:?}",
                check.entry.name,
                check.status
            );
        }
        let empty = r.find("empty").unwrap().clone();
        assert_eq!(empty.op_count, 0);
        assert_eq!(r.replay(&empty).unwrap().count(), 0);
    }

    #[test]
    fn unfinished_corpus_is_rejected() {
        let (_dir, path) = temp_corpus("unfinished.aosc");
        let mut w = CorpusWriter::create(&path, Telemetry::disabled()).expect("create");
        w.record("x", "", sample_ops(4).into_iter()).unwrap();
        drop(w); // never finished
        let err = CorpusReader::open(&path, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
        assert!(err.to_string().contains("unfinished"));
    }

    #[test]
    fn flipped_block_bit_is_quarantined_with_a_typed_error() {
        let (_dir, path) = temp_corpus("bitflip.aosc");
        let ops = sample_ops(64);
        let mut w = CorpusWriter::create(&path, Telemetry::disabled()).expect("create");
        let entry = w.record("victim", "", ops.iter().copied()).unwrap();
        w.record("bystander", "", sample_ops(32).into_iter())
            .unwrap();
        w.finish().unwrap();

        // Flip one bit inside the op-block frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let block_payload_at = entry.offset as usize + 8 + 1 + 4 + "victim".len() + 4 + 8 + 8;
        bytes[block_payload_at + 16] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let t = Telemetry::enabled();
        let r = CorpusReader::open(&path, t.clone()).unwrap();
        let entry = r.find("victim").unwrap().clone();
        let err = r.verify_entry(&entry).unwrap_err();
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
        assert!(err.to_string().contains("CRC mismatch"));
        assert!(t.snapshot().counter(Counter::CorpusCrcFailures) >= 1);

        // The replay iterator yields zero ops from the corrupt block.
        let mut yielded = 0;
        let mut saw_error = false;
        for op in r.replay(&entry).unwrap() {
            match op {
                Ok(_) => yielded += 1,
                Err(e) => {
                    saw_error = true;
                    assert!(matches!(e, AosError::Corruption { .. }));
                }
            }
        }
        assert!(saw_error);
        assert_eq!(yielded, 0, "no op from a corrupt block may be replayed");

        // The damage stays in its entry: the undamaged one in the same
        // file still verifies and replays in full.
        let bystander = r.find("bystander").unwrap().clone();
        r.verify_entry(&bystander)
            .expect("sibling entry stays clean");
        let replayed: Vec<Op> = r
            .replay(&bystander)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(replayed, sample_ops(32));
    }

    #[test]
    fn truncation_mid_frame_is_detected() {
        let (_dir, path) = temp_corpus("truncated.aosc");
        let mut w = CorpusWriter::create(&path, Telemetry::disabled()).expect("create");
        let entry = w.record("t", "", sample_ops(64).into_iter()).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the op block: past the entry header frame, into
        // the block payload, well before the trailer.
        let cut = entry.offset as usize + 8 + 1 + 4 + 1 + 4 + 8 + 8 + 40;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        // The index is gone with the truncation: open itself reports
        // corruption rather than serving a file missing its index.
        let err = CorpusReader::open(&path, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
    }

    #[test]
    fn index_crc_mismatch_is_detected() {
        let (_dir, path) = temp_corpus("badindex.aosc");
        let mut w = CorpusWriter::create(&path, Telemetry::disabled()).expect("create");
        w.record("x", "", sample_ops(8).into_iter()).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0x01; // inside the index bytes, before its CRC
        std::fs::write(&path, &bytes).unwrap();
        let err = CorpusReader::open(&path, Telemetry::disabled()).unwrap_err();
        assert!(err.to_string().contains("index CRC"), "{err}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The zlib convention's canonical check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn garbage_file_is_corruption_not_panic() {
        let (_dir, path) = temp_corpus("garbage.aosc");
        std::fs::write(&path, b"this is not a corpus at all").unwrap();
        let err = CorpusReader::open(&path, Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::IntAlu),
                Just(Op::IntMul),
                Just(Op::FpAlu),
                Just(Op::Xpacm),
                Just(Op::PacCrypto),
                (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
                    |(pc, taken, mispredicted)| {
                        Op::Branch {
                            pc,
                            taken,
                            mispredicted,
                        }
                    }
                ),
                (any::<u64>(), any::<u32>(), any::<bool>()).prop_map(
                    |(pointer, bytes, chained)| {
                        Op::Load {
                            pointer,
                            bytes,
                            chained,
                        }
                    }
                ),
                (any::<u64>(), any::<u32>())
                    .prop_map(|(pointer, bytes)| Op::Store { pointer, bytes }),
                (any::<u64>(), any::<u64>())
                    .prop_map(|(pointer, size)| Op::Pacma { pointer, size }),
                any::<u64>().prop_map(|pointer| Op::Autm { pointer }),
                (any::<u64>(), any::<u64>())
                    .prop_map(|(pointer, size)| Op::BndStr { pointer, size }),
                any::<u64>().prop_map(|pointer| Op::BndClr { pointer }),
                any::<u64>().prop_map(|pointer| Op::WdCheck { pointer }),
                (any::<u64>(), any::<bool>())
                    .prop_map(|(pointer, is_store)| Op::WdMeta { pointer, is_store }),
            ]
        }

        proptest! {
            #[test]
            fn any_op_sequence_roundtrips(ops in proptest::collection::vec(op_strategy(), 0..200)) {
                let (_dir, path) = temp_corpus("prop.aosc");
                prop_assert_eq!(record_and_replay(&path, &ops).unwrap(), ops);
            }
        }
    }
}
