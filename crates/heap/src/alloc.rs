//! The allocator itself: fastbins, best-fit bins, splitting,
//! coalescing and top-chunk extension.

use std::collections::BTreeMap;

use aos_util::telemetry::{hist_bucket_index, Counter, Hist, TelemetrySnapshot, HIST_BUCKETS};

use crate::chunk::{Chunk, ChunkState, HEADER_SIZE};
use crate::profile::UsageProfile;

/// Allocator configuration.
///
/// # Examples
///
/// ```
/// use aos_heap::HeapConfig;
/// let cfg = HeapConfig {
///     base_addr: 0x4000_0000,
///     ..HeapConfig::default()
/// };
/// assert_eq!(cfg.base_addr, 0x4000_0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Lowest address of the heap segment (must be 16-byte aligned).
    pub base_addr: u64,
    /// Maximum bytes the segment may grow to.
    pub limit_bytes: u64,
    /// Largest *usable* size that is handled by LIFO fastbins and never
    /// coalesced, mirroring glibc's fastbin threshold.
    pub fastbin_max: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self {
            base_addr: 0x4000_0000,
            limit_bytes: 1 << 40,
            fastbin_max: 128,
        }
    }
}

/// A successful allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Allocation {
    /// The 16-byte-aligned user pointer.
    pub base: u64,
    /// Usable bytes (≥ the requested size).
    pub usable_size: u64,
}

/// Result of a successful [`HeapAllocator::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FreedChunk {
    /// The user pointer that was freed.
    pub base: u64,
    /// Usable size of the chunk at free time.
    pub usable_size: u64,
}

/// Errors surfaced by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapError {
    /// The heap segment would exceed its configured limit.
    OutOfMemory {
        /// Bytes that were requested.
        requested: u64,
    },
    /// `free` was called with an address that is not a live chunk base.
    InvalidFree {
        /// The offending pointer.
        pointer: u64,
    },
    /// `free` was called twice on the same chunk.
    DoubleFree {
        /// The offending pointer.
        pointer: u64,
    },
    /// AOS could not attach bounds metadata to the allocation — the
    /// bounds table is at max associativity, or the size does not fit
    /// the 32-bit field of the Fig. 9 encoding. The chunk is rolled
    /// back, so the heap is unchanged. (Raised by the instrumented
    /// `malloc` in `aos-core`, not by the raw allocator.)
    BoundsMetadata {
        /// Bytes that were requested.
        requested: u64,
        /// Which metadata step failed.
        reason: &'static str,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "heap limit exceeded allocating {requested} bytes")
            }
            HeapError::InvalidFree { pointer } => {
                write!(f, "free of {pointer:#x}, which is not an allocation base")
            }
            HeapError::DoubleFree { pointer } => write!(f, "double free of {pointer:#x}"),
            HeapError::BoundsMetadata { requested, reason } => write!(
                f,
                "cannot attach bounds metadata for {requested}-byte allocation: {reason}"
            ),
        }
    }
}

impl std::error::Error for HeapError {}

impl From<HeapError> for aos_util::AosError {
    fn from(e: HeapError) -> Self {
        match e {
            HeapError::OutOfMemory { requested } => aos_util::AosError::exhausted(
                "heap segment",
                format!("{requested} bytes requested"),
            ),
            HeapError::BoundsMetadata { requested, reason } => aos_util::AosError::exhausted(
                "bounds metadata",
                format!("{requested} bytes requested: {reason}"),
            ),
            HeapError::InvalidFree { .. } | HeapError::DoubleFree { .. } => {
                aos_util::AosError::SafetyViolation {
                    detail: e.to_string(),
                }
            }
        }
    }
}

/// The simulated heap allocator.
///
/// See the [crate docs](crate) for the design rationale; the behaviour
/// in one paragraph: small chunks (usable size ≤
/// [`HeapConfig::fastbin_max`]) go to per-size LIFO fastbins and are
/// never coalesced; larger chunks are coalesced with free neighbours on
/// free and served best-fit (with splitting) on malloc; everything else
/// comes from the top of the segment.
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    config: HeapConfig,
    /// Every chunk below `top`, keyed by user base.
    chunks: BTreeMap<u64, Chunk>,
    /// LIFO free lists for small chunks, keyed by usable size.
    fastbins: BTreeMap<u64, Vec<u64>>,
    /// Best-fit free lists for larger chunks, keyed by usable size.
    bins: BTreeMap<u64, Vec<u64>>,
    /// Address where the next chunk header would be placed.
    top: u64,
    profile: UsageProfile,
    /// Allocations per usable-size class, bucketed like the
    /// `heap_alloc_size` histogram.
    size_classes: [u64; HIST_BUCKETS],
}

impl HeapAllocator {
    /// Creates an empty heap.
    ///
    /// # Panics
    ///
    /// Panics if `config.base_addr` is not 16-byte aligned. Configs
    /// built from untrusted input go through
    /// [`HeapAllocator::try_new`].
    pub fn new(config: HeapConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`HeapAllocator::new`] for configurations assembled
    /// from untrusted input (CLI flags, replayed experiment specs).
    ///
    /// # Errors
    ///
    /// Returns [`aos_util::AosError::InvalidInput`] when `base_addr`
    /// is not 16-byte aligned.
    pub fn try_new(config: HeapConfig) -> Result<Self, aos_util::AosError> {
        if !config.base_addr.is_multiple_of(16) {
            return Err(aos_util::AosError::invalid_input(
                "heap config",
                format!(
                    "heap base must be 16-byte aligned, got {:#x}",
                    config.base_addr
                ),
            ));
        }
        Ok(Self {
            config,
            chunks: BTreeMap::new(),
            fastbins: BTreeMap::new(),
            bins: BTreeMap::new(),
            top: config.base_addr,
            profile: UsageProfile::default(),
            size_classes: [0; HIST_BUCKETS],
        })
    }

    /// Records one served allocation of `usable` bytes.
    fn note_alloc(&mut self, usable: u64) {
        self.profile.note_alloc(usable);
        self.size_classes[hist_bucket_index(usable)] += 1;
    }

    /// Projects the allocator's counts into a telemetry snapshot:
    /// `heap_allocs` and `heap_frees` from the [`UsageProfile`], and
    /// the `heap_alloc_size` histogram from the size-class counts.
    pub fn record_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        snapshot.add(Counter::HeapAllocs, self.profile.allocations);
        snapshot.add(Counter::HeapFrees, self.profile.deallocations);
        snapshot.add_hist(Hist::HeapAllocSize, &self.size_classes);
    }

    /// The configuration this heap was built with.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Allocation statistics so far.
    pub fn profile(&self) -> &UsageProfile {
        &self.profile
    }

    /// Current end of the heap segment.
    pub fn segment_end(&self) -> u64 {
        self.top
    }

    /// Rounds a request up to the usable-size granule (16 bytes,
    /// minimum 16).
    fn granule(request: u64) -> u64 {
        request.max(1).div_ceil(16) * 16
    }

    /// Allocates `request` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] if the segment limit would be
    /// exceeded.
    pub fn malloc(&mut self, request: u64) -> Result<Allocation, HeapError> {
        let usable = Self::granule(request);

        // 1. Exact-size fastbin hit (LIFO).
        if usable <= self.config.fastbin_max {
            if let Some(base) = self.fastbins.get_mut(&usable).and_then(Vec::pop) {
                let chunk = self
                    .chunks
                    .get_mut(&base)
                    .expect("fastbin entries always have chunk records");
                chunk.set_state(ChunkState::InUse);
                let usable_size = chunk.usable_size();
                self.note_alloc(usable_size);
                return Ok(Allocation { base, usable_size });
            }
        }

        // 2. Best-fit search in the sorted bins.
        if let Some((&bin_size, _)) = self.bins.range(usable..).next() {
            let base = self
                .bins
                .get_mut(&bin_size)
                .and_then(Vec::pop)
                .expect("range hit implies nonempty bin");
            if self.bins.get(&bin_size).is_some_and(Vec::is_empty) {
                self.bins.remove(&bin_size);
            }
            // Split if the remainder can hold a minimal chunk.
            let remainder = bin_size - usable;
            if remainder >= 32 + HEADER_SIZE {
                let chunk = self.chunks.get_mut(&base).expect("binned chunk exists");
                chunk.set_usable_size(usable);
                chunk.set_state(ChunkState::InUse);
                let rem_base = base + usable + HEADER_SIZE;
                let rem_usable = remainder - HEADER_SIZE;
                let mut rem = Chunk::new(rem_base, rem_usable);
                rem.set_state(ChunkState::Free);
                self.chunks.insert(rem_base, rem);
                self.bins.entry(rem_usable).or_default().push(rem_base);
            } else {
                let chunk = self.chunks.get_mut(&base).expect("binned chunk exists");
                chunk.set_state(ChunkState::InUse);
            }
            let usable_size = self.chunks[&base].usable_size();
            self.note_alloc(usable_size);
            return Ok(Allocation { base, usable_size });
        }

        // 3. Extend the top of the segment.
        let footprint = usable + HEADER_SIZE;
        let end = self
            .top
            .checked_add(footprint)
            .ok_or(HeapError::OutOfMemory { requested: request })?;
        if end > self.config.base_addr + self.config.limit_bytes {
            return Err(HeapError::OutOfMemory { requested: request });
        }
        let base = self.top + HEADER_SIZE;
        self.top = end;
        self.chunks.insert(base, Chunk::new(base, usable));
        self.note_alloc(usable);
        Ok(Allocation {
            base,
            usable_size: usable,
        })
    }

    /// Frees the chunk whose user pointer is `base`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::InvalidFree`] for pointers that are not a
    /// chunk base and [`HeapError::DoubleFree`] for chunks already on a
    /// free list.
    pub fn free(&mut self, base: u64) -> Result<FreedChunk, HeapError> {
        let chunk = *self
            .chunks
            .get(&base)
            .ok_or(HeapError::InvalidFree { pointer: base })?;
        if chunk.state() == ChunkState::Free {
            return Err(HeapError::DoubleFree { pointer: base });
        }
        let freed = FreedChunk {
            base,
            usable_size: chunk.usable_size(),
        };
        self.profile.note_free(chunk.usable_size());

        if chunk.usable_size() <= self.config.fastbin_max {
            // Fastbin path: no coalescing, LIFO reuse.
            self.chunks
                .get_mut(&base)
                .expect("chunk present")
                .set_state(ChunkState::Free);
            self.fastbins
                .entry(chunk.usable_size())
                .or_default()
                .push(base);
            return Ok(freed);
        }

        // Coalesce with free (non-fastbin) neighbours.
        let mut merged_header = chunk.header_base();
        let mut merged_end = chunk.end();
        self.chunks.remove(&base);

        let prev = self.chunks.range(..base).next_back().map(|(_, c)| *c);
        if let Some(prev) = prev {
            if prev.state() == ChunkState::Free
                && prev.usable_size() > self.config.fastbin_max
                && prev.end() == merged_header
            {
                self.unbin(prev.base(), prev.usable_size());
                merged_header = prev.header_base();
                self.chunks.remove(&prev.base());
            }
        }
        let next = self.chunks.range(base..).next().map(|(_, c)| *c);
        if let Some(next) = next {
            if next.state() == ChunkState::Free
                && next.usable_size() > self.config.fastbin_max
                && next.header_base() == merged_end
            {
                self.unbin(next.base(), next.usable_size());
                merged_end = next.end();
                self.chunks.remove(&next.base());
            }
        }

        if merged_end == self.top {
            // Give the space back to the wilderness.
            self.top = merged_header;
            return Ok(freed);
        }

        let new_base = merged_header + HEADER_SIZE;
        let new_usable = merged_end - new_base;
        let mut merged = Chunk::new(new_base, new_usable);
        merged.set_state(ChunkState::Free);
        self.chunks.insert(new_base, merged);
        self.bins.entry(new_usable).or_default().push(new_base);
        Ok(freed)
    }

    /// Resizes an allocation, glibc-style: shrink in place when the
    /// chunk already suffices (splitting off a remainder when large
    /// enough), otherwise allocate-new + free-old. The caller is
    /// responsible for copying data when the base moves (the allocator
    /// does not own memory contents).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError::InvalidFree`]/[`HeapError::DoubleFree`]
    /// for bad bases and [`HeapError::OutOfMemory`] when growth fails;
    /// on error the original allocation is untouched.
    pub fn realloc(&mut self, base: u64, new_request: u64) -> Result<Allocation, HeapError> {
        let chunk = *self
            .chunks
            .get(&base)
            .ok_or(HeapError::InvalidFree { pointer: base })?;
        if chunk.state() == ChunkState::Free {
            return Err(HeapError::DoubleFree { pointer: base });
        }
        let wanted = Self::granule(new_request);
        if wanted <= chunk.usable_size() {
            // Shrink (or keep) in place; split off a worthwhile tail.
            let remainder = chunk.usable_size() - wanted;
            if remainder >= 32 + HEADER_SIZE {
                self.chunks
                    .get_mut(&base)
                    .expect("chunk present")
                    .set_usable_size(wanted);
                let rem_base = base + wanted + HEADER_SIZE;
                let rem_usable = remainder - HEADER_SIZE;
                let mut rem = Chunk::new(rem_base, rem_usable);
                rem.set_state(ChunkState::Free);
                self.chunks.insert(rem_base, rem);
                self.bins.entry(rem_usable).or_default().push(rem_base);
                self.profile.note_shrink(remainder);
            }
            let usable_size = self.chunks[&base].usable_size();
            return Ok(Allocation { base, usable_size });
        }
        // Grow: new allocation first so failure leaves the old intact.
        let fresh = self.malloc(new_request)?;
        self.free(base).expect("source chunk was live");
        Ok(fresh)
    }

    /// Models the glibc fastbin free path for a *crafted* chunk, as
    /// exploited by House of Spirit (paper Fig. 1): the address is
    /// accepted into a fastbin with only a size-sanity check, without
    /// verifying it was ever returned by `malloc`. A subsequent
    /// `malloc` of the same size class will hand the attacker-chosen
    /// address back out.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::InvalidFree`] if the claimed size fails the
    /// fastbin sanity test (not 16-byte granular, or larger than the
    /// fastbin threshold) — the only checks glibc performs.
    pub fn fastbin_insert_raw(&mut self, base: u64, claimed_usable: u64) -> Result<(), HeapError> {
        if !base.is_multiple_of(16)
            || !claimed_usable.is_multiple_of(16)
            || claimed_usable == 0
            || claimed_usable > self.config.fastbin_max
        {
            return Err(HeapError::InvalidFree { pointer: base });
        }
        let mut chunk = Chunk::new(base, claimed_usable);
        chunk.set_state(ChunkState::Free);
        self.chunks.insert(base, chunk);
        self.fastbins.entry(claimed_usable).or_default().push(base);
        self.profile.note_free(claimed_usable);
        Ok(())
    }

    fn unbin(&mut self, base: u64, usable: u64) {
        if let Some(list) = self.bins.get_mut(&usable) {
            list.retain(|&b| b != base);
            if list.is_empty() {
                self.bins.remove(&usable);
            }
        }
    }

    /// Looks up the chunk record for a user pointer.
    pub fn chunk_at(&self, base: u64) -> Option<&Chunk> {
        self.chunks.get(&base)
    }

    /// Finds the chunk containing an arbitrary address, if any.
    pub fn chunk_containing(&self, addr: u64) -> Option<&Chunk> {
        self.chunks
            .range(..=addr)
            .next_back()
            .map(|(_, c)| c)
            .filter(|c| c.contains(addr))
    }

    /// Iterates over the currently live (in-use) chunks in address
    /// order.
    pub fn live_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks
            .values()
            .filter(|c| c.state() == ChunkState::InUse)
    }

    /// Number of live chunks.
    pub fn live_count(&self) -> u64 {
        self.profile.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapAllocator {
        HeapAllocator::new(HeapConfig::default())
    }

    #[test]
    fn malloc_is_aligned_and_sized() {
        let mut h = heap();
        for req in [1u64, 15, 16, 17, 100, 1000, 4096] {
            let a = h.malloc(req).unwrap();
            assert_eq!(a.base % 16, 0);
            assert!(a.usable_size >= req);
            assert_eq!(a.usable_size % 16, 0);
        }
    }

    #[test]
    fn chunks_do_not_overlap() {
        let mut h = heap();
        let allocs: Vec<Allocation> = (0..64).map(|i| h.malloc(24 + i * 8).unwrap()).collect();
        for w in allocs.windows(2) {
            assert!(w[0].base + w[0].usable_size <= w[1].base - 16 + 16);
        }
        let mut sorted = allocs.clone();
        sorted.sort_by_key(|a| a.base);
        for w in sorted.windows(2) {
            assert!(
                w[0].base + w[0].usable_size + 16 <= w[1].base,
                "header space between chunks"
            );
        }
    }

    #[test]
    fn fastbin_reuses_lifo() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(a.base).unwrap();
        h.free(b.base).unwrap();
        // LIFO: most recently freed comes back first.
        assert_eq!(h.malloc(64).unwrap().base, b.base);
        assert_eq!(h.malloc(64).unwrap().base, a.base);
    }

    #[test]
    fn large_chunks_reused_best_fit_with_split() {
        let mut h = heap();
        let big = h.malloc(4096).unwrap();
        // Keep a spacer so the freed chunk does not merge into top.
        let _spacer = h.malloc(64).unwrap();
        h.free(big.base).unwrap();
        let small = h.malloc(512).unwrap();
        assert_eq!(small.base, big.base, "best-fit reuses the hole");
        let rest = h.malloc(3000).unwrap();
        assert!(
            rest.base > small.base && rest.base < big.base + 4096 + 32,
            "split remainder is reused"
        );
    }

    #[test]
    fn free_neighbors_coalesce() {
        let mut h = heap();
        let a = h.malloc(512).unwrap();
        let b = h.malloc(512).unwrap();
        let _spacer = h.malloc(512).unwrap();
        h.free(a.base).unwrap();
        h.free(b.base).unwrap();
        // Coalesced hole fits a request larger than either part.
        let big = h.malloc(900).unwrap();
        assert_eq!(big.base, a.base);
    }

    #[test]
    fn freeing_last_chunk_returns_to_top() {
        let mut h = heap();
        let a = h.malloc(512).unwrap();
        let end_before = h.segment_end();
        h.free(a.base).unwrap();
        assert!(h.segment_end() < end_before, "wilderness reclaimed");
        let b = h.malloc(512).unwrap();
        assert_eq!(b.base, a.base, "same space handed out again");
    }

    #[test]
    fn invalid_free_detected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        assert_eq!(
            h.free(a.base + 16),
            Err(HeapError::InvalidFree {
                pointer: a.base + 16
            })
        );
    }

    #[test]
    fn double_free_detected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.base).unwrap();
        assert_eq!(
            h.free(a.base),
            Err(HeapError::DoubleFree { pointer: a.base })
        );
    }

    #[test]
    fn try_new_rejects_misaligned_base_without_panicking() {
        let bad = HeapConfig {
            base_addr: 0x4000_0001,
            ..HeapConfig::default()
        };
        let err = HeapAllocator::try_new(bad).unwrap_err();
        assert!(err.to_string().contains("16-byte aligned"), "{err}");
        assert!(HeapAllocator::try_new(HeapConfig::default()).is_ok());
    }

    #[test]
    fn heap_errors_lift_into_the_shared_taxonomy() {
        let oom = aos_util::AosError::from(HeapError::OutOfMemory { requested: 4096 });
        assert!(matches!(oom, aos_util::AosError::ResourceExhausted { .. }));
        let df = aos_util::AosError::from(HeapError::DoubleFree { pointer: 0x10 });
        assert!(matches!(df, aos_util::AosError::SafetyViolation { .. }));
        assert!(df.to_string().contains("double free"));
    }

    #[test]
    fn out_of_memory_reported() {
        let mut h = HeapAllocator::new(HeapConfig {
            limit_bytes: 1024,
            ..HeapConfig::default()
        });
        assert!(h.malloc(256).is_ok());
        let err = h.malloc(4096).unwrap_err();
        assert_eq!(err, HeapError::OutOfMemory { requested: 4096 });
    }

    #[test]
    fn profile_tracks_max_active() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(a.base).unwrap();
        let c = h.malloc(64).unwrap();
        h.free(b.base).unwrap();
        h.free(c.base).unwrap();
        let p = h.profile();
        assert_eq!(p.allocations, 3);
        assert_eq!(p.deallocations, 3);
        assert_eq!(p.live, 0);
        assert_eq!(p.max_live, 2);
    }

    #[test]
    fn realloc_shrinks_in_place_with_split() {
        let mut h = heap();
        let a = h.malloc(1024).unwrap();
        let _spacer = h.malloc(64).unwrap();
        let b = h.realloc(a.base, 128).unwrap();
        assert_eq!(b.base, a.base, "shrink stays in place");
        assert_eq!(b.usable_size, 128);
        // The split tail is reusable.
        let c = h.malloc(512).unwrap();
        assert!(c.base > a.base && c.base < a.base + 1024 + 32);
    }

    #[test]
    fn realloc_grows_by_moving() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let _spacer = h.malloc(64).unwrap();
        let b = h.realloc(a.base, 4096).unwrap();
        assert_ne!(b.base, a.base, "growth past neighbours must move");
        assert!(b.usable_size >= 4096);
        assert_eq!(
            h.chunk_at(a.base).unwrap().state(),
            ChunkState::Free,
            "old chunk freed"
        );
    }

    #[test]
    fn realloc_same_size_is_identity() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let b = h.realloc(a.base, 256).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn realloc_of_bad_base_fails_cleanly() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        assert!(matches!(
            h.realloc(a.base + 8, 128),
            Err(HeapError::InvalidFree { .. })
        ));
        h.free(a.base).unwrap();
        assert!(matches!(
            h.realloc(a.base, 128),
            Err(HeapError::DoubleFree { .. })
        ));
    }

    #[test]
    fn house_of_spirit_fastbin_insertion() {
        // The attack from paper Fig. 1: a crafted, never-malloc'd
        // address enters a fastbin and malloc returns it.
        let mut h = heap();
        let crafted = 0x7000_0000u64;
        h.fastbin_insert_raw(crafted, 48).unwrap();
        let victim = h.malloc(48).unwrap();
        assert_eq!(victim.base, crafted, "attacker controls the allocation");
    }

    #[test]
    fn fastbin_insert_raw_sanity_checks() {
        let mut h = heap();
        assert!(h.fastbin_insert_raw(0x7000_0004, 48).is_err(), "misaligned");
        assert!(
            h.fastbin_insert_raw(0x7000_0000, 40).is_err(),
            "ragged size"
        );
        assert!(
            h.fastbin_insert_raw(0x7000_0000, 4096).is_err(),
            "not fastbin sized"
        );
    }

    #[test]
    fn chunk_lookup_by_interior_address() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let c = h.chunk_containing(a.base + 100).unwrap();
        assert_eq!(c.base(), a.base);
        assert!(h.chunk_containing(a.base + 256).is_none() || a.usable_size > 256);
        assert!(h.chunk_containing(0x10).is_none());
    }

    #[test]
    fn live_chunks_iterates_in_use_only() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(a.base).unwrap();
        let live: Vec<u64> = h.live_chunks().map(Chunk::base).collect();
        assert_eq!(live, vec![b.base]);
        assert_eq!(h.live_count(), 1);
    }

    #[test]
    fn many_allocations_stay_consistent() {
        let mut h = heap();
        let mut live = Vec::new();
        for i in 0..2000u64 {
            let a = h.malloc((i % 700) + 1).unwrap();
            live.push(a);
            if i % 3 == 0 {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                h.free(victim.base).unwrap();
            }
        }
        // All remaining live chunks must be distinct and non-overlapping.
        live.sort_by_key(|a| a.base);
        for w in live.windows(2) {
            assert!(w[0].base + w[0].usable_size <= w[1].base);
        }
        assert_eq!(h.profile().live as usize, live.len());
    }
}
