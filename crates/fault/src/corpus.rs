//! Corruption injectors for persistent trace corpora
//! ([`aos_isa::corpus`]): at-rest bit rot inside a stored op block,
//! and the power-loss truncation that cuts a file mid-frame.
//!
//! The corpus format's contract under these faults is *quarantine,
//! never crash, never mis-replay*: a flipped bit must surface as a
//! typed [`AosError::Corruption`](aos_util::AosError) confined to the
//! damaged entry (sibling entries keep replaying bit-identically), and
//! a truncated file must be rejected at open rather than served
//! short. The injectors here edit the file through the same frame
//! walk the reader uses, so tests can aim a fault at "block `k` of
//! entry `e`" without hard-coding byte offsets.

use std::path::Path;

use aos_util::AosError;

/// Frame kind byte of an op block (mirrors the corpus format; the
/// constant is re-stated here so the injector stays an independent
/// check on the reader rather than a consumer of its internals).
const KIND_OP_BLOCK: u8 = 1;

fn io_err(path: &Path, e: impl std::fmt::Display) -> AosError {
    AosError::Io {
        context: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// One frame located by [`walk_entry_frames`]: where its payload
/// lives in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Frame kind byte.
    pub kind: u8,
    /// File offset of the first payload byte (after len, CRC, kind).
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Walks the frame sequence of one corpus entry starting at
/// `entry_offset` (an [`EntryMeta::offset`](aos_isa::corpus::EntryMeta))
/// and returns each frame's span, ending after the entry trailer
/// (kind 2).
///
/// # Errors
///
/// [`AosError::Corruption`] when the bytes do not parse as frames —
/// the injector refuses to "corrupt" a file it cannot interpret.
pub fn walk_entry_frames(bytes: &[u8], entry_offset: u64, path: &Path) -> Result<Vec<FrameSpan>, AosError> {
    let mut frames = Vec::new();
    let mut at = entry_offset as usize;
    loop {
        if at + 9 > bytes.len() {
            return Err(AosError::corruption(
                format!("corpus {}", path.display()),
                "entry frames run past end of file",
            ));
        }
        let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let kind = bytes[at + 8];
        let payload_offset = at as u64 + 9;
        let payload_len = len.saturating_sub(1);
        if payload_offset as usize + payload_len as usize > bytes.len() {
            return Err(AosError::corruption(
                format!("corpus {}", path.display()),
                "frame payload runs past end of file",
            ));
        }
        frames.push(FrameSpan {
            kind,
            payload_offset,
            payload_len,
        });
        at = payload_offset as usize + payload_len as usize;
        if kind == 2 {
            return Ok(frames);
        }
        if frames.len() > 1 << 20 {
            return Err(AosError::corruption(
                format!("corpus {}", path.display()),
                "entry never reaches a trailer frame",
            ));
        }
    }
}

/// Flips one bit inside stored op block `block_index` of the entry at
/// `entry_offset`, leaving the frame's CRC stale — the at-rest bit-rot
/// fault. Returns the absolute file offset of the damaged byte.
///
/// # Errors
///
/// [`AosError::Io`] when the file cannot be read or rewritten,
/// [`AosError::InvalidInput`] when the entry has no such block or the
/// bit offset falls outside the block,
/// [`AosError::Corruption`] when the file does not parse as frames.
pub fn flip_block_bit(
    path: impl AsRef<Path>,
    entry_offset: u64,
    block_index: u32,
    bit_offset: u64,
) -> Result<u64, AosError> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let frames = walk_entry_frames(&bytes, entry_offset, path)?;
    let block = frames
        .iter()
        .filter(|f| f.kind == KIND_OP_BLOCK)
        .nth(block_index as usize)
        .ok_or_else(|| {
            AosError::invalid_input(
                "corpus fault",
                format!("entry has no op block {block_index}"),
            )
        })?;
    let byte = bit_offset / 8;
    if byte >= block.payload_len as u64 {
        return Err(AosError::invalid_input(
            "corpus fault",
            format!(
                "bit offset {bit_offset} outside block of {} bytes",
                block.payload_len
            ),
        ));
    }
    let target = block.payload_offset + byte;
    bytes[target as usize] ^= 1u8 << (bit_offset % 8);
    std::fs::write(path, &bytes).map_err(|e| io_err(path, e))?;
    Ok(target)
}

/// Truncates the file in the middle of op block `block_index` of the
/// entry at `entry_offset` — the power-loss fault that cuts a frame
/// (and everything after it, including the index) short. Returns the
/// new file length.
///
/// # Errors
///
/// Same conditions as [`flip_block_bit`].
pub fn truncate_mid_frame(
    path: impl AsRef<Path>,
    entry_offset: u64,
    block_index: u32,
) -> Result<u64, AosError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let frames = walk_entry_frames(&bytes, entry_offset, path)?;
    let block = frames
        .iter()
        .filter(|f| f.kind == KIND_OP_BLOCK)
        .nth(block_index as usize)
        .ok_or_else(|| {
            AosError::invalid_input(
                "corpus fault",
                format!("entry has no op block {block_index}"),
            )
        })?;
    let cut = block.payload_offset + (block.payload_len as u64) / 2;
    std::fs::write(path, &bytes[..cut as usize]).map_err(|e| io_err(path, e))?;
    Ok(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::corpus::{CorpusReader, CorpusWriter};
    use aos_isa::Op;
    use aos_util::scratch::ScratchDir;
    use aos_util::{Counter, Telemetry};
    use std::path::PathBuf;

    fn ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Op::Load {
                        pointer: 0x4000 + i as u64,
                        bytes: 8,
                        chained: false,
                    }
                } else {
                    Op::IntAlu
                }
            })
            .collect()
    }

    /// A private scratch directory holding `name`; the guard removes it
    /// when the test drops it.
    fn temp(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(name).expect("scratch dir");
        let path = dir.join(name);
        (dir, path)
    }

    fn write_two_entry_corpus(path: &PathBuf) -> (u64, u64) {
        let mut w = CorpusWriter::create(path, Telemetry::disabled()).expect("create");
        let a = w.record("victim", "", ops(200).into_iter()).expect("a");
        let b = w.record("bystander", "", ops(64).into_iter()).expect("b");
        w.finish().expect("finish");
        (a.offset, b.offset)
    }

    #[test]
    fn bit_flip_quarantines_only_the_damaged_entry() {
        let (_dir, path) = temp("flip.aosc");
        let (victim_offset, _) = write_two_entry_corpus(&path);
        flip_block_bit(&path, victim_offset, 0, 123).expect("inject");

        let t = Telemetry::enabled();
        let r = CorpusReader::open(&path, t.clone()).expect("index survives a payload flip");
        let checks = r.verify();
        assert_eq!(checks.len(), 2);
        let victim = checks.iter().find(|c| c.entry.name == "victim").unwrap();
        let bystander = checks.iter().find(|c| c.entry.name == "bystander").unwrap();
        assert!(
            matches!(victim.status, Err(aos_util::AosError::Corruption { .. })),
            "damaged entry must quarantine with a typed error: {:?}",
            victim.status
        );
        assert!(bystander.status.is_ok(), "sibling entry must stay clean");
        assert!(t.snapshot().counter(Counter::CorpusCrcFailures) >= 1);

        // No mis-replay: the corrupt block yields its error, zero ops.
        let entry = r.find("victim").unwrap().clone();
        let yielded = r
            .replay(&entry)
            .expect("entry header itself is intact")
            .filter(|item| item.is_ok())
            .count();
        assert_eq!(yielded, 0, "no op from a corrupt block may replay");

        // And the bystander still replays in full.
        let entry = r.find("bystander").unwrap().clone();
        let replayed: Vec<Op> = r
            .replay(&entry)
            .expect("replay")
            .collect::<Result<_, _>>()
            .expect("clean");
        assert_eq!(replayed, ops(64));
    }

    #[test]
    fn mid_frame_truncation_is_rejected_at_open_not_served_short() {
        let (_dir, path) = temp("cut.aosc");
        let (victim_offset, _) = write_two_entry_corpus(&path);
        truncate_mid_frame(&path, victim_offset, 0).expect("inject");
        let err = CorpusReader::open(&path, Telemetry::disabled())
            .err()
            .expect("truncated corpus must not open");
        assert!(
            matches!(err, AosError::Corruption { .. }),
            "typed corruption, not a panic: {err}"
        );
    }

    #[test]
    fn injector_refuses_out_of_range_targets() {
        let (_dir, path) = temp("range.aosc");
        let (victim_offset, _) = write_two_entry_corpus(&path);
        assert!(matches!(
            flip_block_bit(&path, victim_offset, 9, 0),
            Err(AosError::InvalidInput { .. })
        ));
        assert!(matches!(
            flip_block_bit(&path, victim_offset, 0, u64::MAX),
            Err(AosError::InvalidInput { .. })
        ));
        // The uncorrupted file still verifies clean afterwards.
        let r = CorpusReader::open(&path, Telemetry::disabled()).expect("open");
        assert!(r.verify().iter().all(|c| c.status.is_ok()));
    }

    #[test]
    fn frame_walk_matches_writer_layout() {
        let (_dir, path) = temp("walk.aosc");
        let (victim_offset, _) = write_two_entry_corpus(&path);
        let bytes = std::fs::read(&path).unwrap();
        let frames = walk_entry_frames(&bytes, victim_offset, &path).expect("walk");
        // header, one op block (200 ops < BLOCK_OPS), trailer
        assert_eq!(frames.iter().map(|f| f.kind).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(frames[2].payload_len, 12, "trailer is op_count + block_count");
    }
}
