//! The functional always-on machine: AOS semantics without timing.

use std::collections::VecDeque;

use aos_hbt::{HashedBoundsTable, HbtConfig};
use aos_heap::{HeapAllocator, HeapConfig, HeapError};
use aos_mcu::{AosException, McuConfig, McuOp, MemoryCheckUnit};
use aos_ptrauth::{PointerLayout, PointerSigner};
use aos_qarma::PacKey;

use crate::memory::SparseMemory;

/// How many freed regions are remembered for error diagnosis.
const FREED_HISTORY: usize = 4096;

/// Configuration of an [`AosProcess`].
#[derive(Debug, Clone, Copy)]
pub struct ProcessConfig {
    /// Pointer bit layout.
    pub layout: PointerLayout,
    /// The PA key (modeled key M).
    pub key: PacKey,
    /// Signing modifier (the paper uses SP; we use a fixed context).
    pub context: u64,
    /// Allocator parameters.
    pub heap: HeapConfig,
    /// Bounds-table parameters.
    pub hbt: HbtConfig,
    /// MCU parameters.
    pub mcu: McuConfig,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        Self {
            layout: PointerLayout::default(),
            key: PacKey::from_u128(aos_workloads::generator::SIGNING_KEY),
            context: aos_workloads::generator::SIGNING_CONTEXT,
            heap: HeapConfig::default(),
            hbt: HbtConfig::default(),
            mcu: McuConfig::default(),
        }
    }
}

/// A memory-safety violation detected by AOS.
///
/// In hardware all of these surface as the single AOS exception class
/// (§IV-D); the variants here add the diagnosis a debugger would
/// derive — `UseAfterFree` versus `OutOfBounds` is distinguished by
/// whether the faulting address lies in a freed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySafetyError {
    /// A signed access outside every live chunk with its PAC.
    OutOfBounds {
        /// The faulting pointer (still signed).
        pointer: u64,
        /// Whether the access was a store.
        is_store: bool,
    },
    /// A signed access to memory that has been freed (dangling
    /// pointer / use-after-free).
    UseAfterFree {
        /// The faulting pointer (still signed).
        pointer: u64,
        /// Whether the access was a store.
        is_store: bool,
    },
    /// `free` of a pointer with no bounds: double free, an unsigned
    /// pointer, or a crafted address (House of Spirit).
    InvalidFree {
        /// The pointer passed to `free`.
        pointer: u64,
    },
    /// `autm` authentication failed: the pointer does not carry an
    /// AOS signature (AHC forging / corruption, §VII-C).
    AuthenticationFailure {
        /// The unauthenticated pointer.
        pointer: u64,
    },
}

impl std::fmt::Display for MemorySafetyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemorySafetyError::OutOfBounds { pointer, is_store } => write!(
                f,
                "out-of-bounds {} via {pointer:#x}",
                if *is_store { "store" } else { "load" }
            ),
            MemorySafetyError::UseAfterFree { pointer, is_store } => write!(
                f,
                "use-after-free {} via {pointer:#x}",
                if *is_store { "store" } else { "load" }
            ),
            MemorySafetyError::InvalidFree { pointer } => {
                write!(f, "invalid or double free of {pointer:#x}")
            }
            MemorySafetyError::AuthenticationFailure { pointer } => {
                write!(f, "pointer authentication failed for {pointer:#x}")
            }
        }
    }
}

impl std::error::Error for MemorySafetyError {}

/// The always-on machine. See the [crate docs](crate) for a worked
/// example.
#[derive(Debug)]
pub struct AosProcess {
    config: ProcessConfig,
    signer: PointerSigner,
    heap: HeapAllocator,
    hbt: HashedBoundsTable,
    mcu: MemoryCheckUnit,
    memory: SparseMemory,
    freed_regions: VecDeque<(u64, u64)>,
}

impl AosProcess {
    /// Creates a process with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_config(ProcessConfig::default())
    }

    /// Creates a process with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; configurations assembled
    /// from untrusted input go through
    /// [`AosProcess::try_with_config`].
    pub fn with_config(config: ProcessConfig) -> Self {
        Self::try_with_config(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AosProcess::with_config`].
    ///
    /// # Errors
    ///
    /// Returns [`aos_util::AosError::InvalidInput`] when the heap
    /// configuration is rejected (e.g. a misaligned base address).
    pub fn try_with_config(config: ProcessConfig) -> Result<Self, aos_util::AosError> {
        Ok(Self {
            signer: PointerSigner::new(config.key, config.layout),
            heap: HeapAllocator::try_new(config.heap)?,
            hbt: HashedBoundsTable::new(config.hbt),
            mcu: MemoryCheckUnit::new(config.mcu, config.layout),
            memory: SparseMemory::new(),
            freed_regions: VecDeque::new(),
            config,
        })
    }

    /// The pointer layout in use.
    pub fn layout(&self) -> PointerLayout {
        self.config.layout
    }

    /// The signer (exposed for attack scenarios that forge pointers).
    pub fn signer(&self) -> &PointerSigner {
        &self.signer
    }

    /// The allocator state.
    pub fn heap(&self) -> &HeapAllocator {
        &self.heap
    }

    /// The bounds table state.
    pub fn hbt(&self) -> &HashedBoundsTable {
        &self.hbt
    }

    /// The MCU (stats: BWB hit rate, checks, …).
    pub fn mcu(&self) -> &MemoryCheckUnit {
        &self.mcu
    }

    /// Gradual resizes performed by the OS so far.
    pub fn resizes(&self) -> u64 {
        self.hbt.stats().resizes
    }

    /// `malloc(size)` with AOS instrumentation (Fig. 7a): allocates,
    /// signs the pointer (`pacma`) and stores its bounds (`bndstr`),
    /// resizing the table if the row overflows.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError`] if the allocator fails, or
    /// [`HeapError::BoundsMetadata`] — with the chunk rolled back — if
    /// the bounds cannot be stored: the table is already at max
    /// associativity, or the usable size exceeds the 32-bit field of
    /// the Fig. 9 encoding.
    pub fn malloc(&mut self, size: u64) -> Result<u64, HeapError> {
        let alloc = self.heap.malloc(size)?;
        let ptr = self
            .signer
            .pacma(alloc.base, self.config.context, alloc.usable_size);
        if let Err(reason) = self.store_bounds(ptr, alloc.usable_size) {
            let _ = self.heap.free(alloc.base);
            return Err(HeapError::BoundsMetadata {
                requested: size,
                reason,
            });
        }
        Ok(ptr)
    }

    /// `calloc`-style allocation: like [`AosProcess::malloc`] but the
    /// chunk's memory reads as zero even when the allocator recycles a
    /// previously-written chunk.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError`] if the allocator fails.
    pub fn calloc(&mut self, count: u64, size: u64) -> Result<u64, HeapError> {
        let total = count.saturating_mul(size);
        let ptr = self.malloc(total)?;
        let addr = self.config.layout.address(ptr);
        let usable = self
            .heap
            .chunk_at(addr)
            .expect("fresh chunk exists")
            .usable_size();
        for offset in (0..usable).step_by(8) {
            self.memory.write_u64(addr + offset, 0);
        }
        Ok(ptr)
    }

    /// `realloc(ptr, new_size)` with AOS instrumentation: the old
    /// bounds are cleared, the chunk is resized (moving if it must
    /// grow), surviving data is copied, and the result is re-signed
    /// with fresh bounds. When the base moves, the old pointer is left
    /// signed-but-boundless — locked, like a freed pointer.
    ///
    /// # Errors
    ///
    /// Returns [`MemorySafetyError::InvalidFree`] for pointers without
    /// bounds (double realloc-after-free, crafted pointers); allocator
    /// failures surface as `InvalidFree` too, with the original
    /// allocation left intact.
    pub fn realloc(&mut self, ptr: u64, new_size: u64) -> Result<u64, MemorySafetyError> {
        // Only chunk bases can be reallocated; interior or crafted
        // pointers are rejected before any bounds are touched.
        let old_addr = self.signer.xpacm(ptr);
        let Some(old_usable) = self
            .heap
            .chunk_at(old_addr)
            .map(aos_heap::Chunk::usable_size)
        else {
            return Err(MemorySafetyError::InvalidFree { pointer: ptr });
        };
        // Sizes the 32-bit bounds field cannot represent are refused
        // before any state changes (the 15-byte slack covers granule
        // rounding).
        if new_size > u64::from(u32::MAX) - 15 {
            return Err(MemorySafetyError::InvalidFree { pointer: ptr });
        }
        // bndclr next, exactly like free (Fig. 7b): a pointer without
        // bounds cannot be reallocated.
        match self
            .mcu
            .run_sync(McuOp::BndClr { pointer: ptr }, &mut self.hbt)
        {
            Ok(_) => {}
            Err(AosException::BoundsClearFailure { .. }) => {
                return Err(MemorySafetyError::InvalidFree { pointer: ptr });
            }
            Err(other) => unreachable!("bndclr cannot raise {other}"),
        }
        let alloc = match self.heap.realloc(old_addr, new_size) {
            Ok(a) => a,
            Err(_) => {
                // Restore the cleared bounds and report failure; a
                // refused store leaves the pointer boundless, i.e.
                // locked.
                let _ = self.store_bounds(ptr, old_usable);
                return Err(MemorySafetyError::InvalidFree { pointer: ptr });
            }
        };
        if alloc.base != old_addr {
            // Copy surviving data and remember the freed region.
            let mut buf = vec![0u8; old_usable.min(alloc.usable_size) as usize];
            self.memory.read_bytes(old_addr, &mut buf);
            self.memory.write_bytes(alloc.base, &buf);
            if self.freed_regions.len() == FREED_HISTORY {
                self.freed_regions.pop_front();
            }
            self.freed_regions
                .push_back((old_addr, old_addr + old_usable));
        }
        let new_ptr = self
            .signer
            .pacma(alloc.base, self.config.context, alloc.usable_size);
        self.store_bounds(new_ptr, alloc.usable_size)
            .map_err(|_| MemorySafetyError::InvalidFree { pointer: new_ptr })?;
        Ok(new_ptr)
    }

    /// `bndstr` with the OS exception handler of §IV-D: a store that
    /// finds its row full grows the table and is retried.
    ///
    /// # Errors
    ///
    /// Returns why the bounds could not be stored: the table cannot
    /// grow past its max associativity, or the size does not fit the
    /// 32-bit bounds field. Both are only reachable from pathological
    /// configurations, neither worth a panic.
    fn store_bounds(&mut self, ptr: u64, size: u64) -> Result<(), &'static str> {
        loop {
            match self
                .mcu
                .run_sync(McuOp::BndStr { pointer: ptr, size }, &mut self.hbt)
            {
                Ok(_) => return Ok(()),
                Err(AosException::BoundsStoreFailure { .. }) => {
                    if self.hbt.try_begin_resize().is_err() {
                        return Err("bounds table at max associativity");
                    }
                }
                Err(AosException::MalformedBounds { .. }) => {
                    return Err("size exceeds the 32-bit bounds encoding");
                }
                Err(other) => unreachable!("bndstr cannot raise {other}"),
            }
        }
    }

    /// `free(ptr)` with AOS instrumentation (Fig. 7b): clears the
    /// bounds (`bndclr`), strips (`xpacm`), frees, and leaves the
    /// caller's pointer signed-but-boundless, i.e. locked.
    ///
    /// # Errors
    ///
    /// Returns [`MemorySafetyError::InvalidFree`] when no bounds match
    /// — a double free, an unsigned pointer, or a crafted chunk.
    pub fn free(&mut self, ptr: u64) -> Result<(), MemorySafetyError> {
        match self
            .mcu
            .run_sync(McuOp::BndClr { pointer: ptr }, &mut self.hbt)
        {
            Ok(_) => {}
            Err(AosException::BoundsClearFailure { .. }) => {
                return Err(MemorySafetyError::InvalidFree { pointer: ptr });
            }
            Err(other) => unreachable!("bndclr cannot raise {other}"),
        }
        let raw = self.signer.xpacm(ptr);
        let freed = self
            .heap
            .free(raw)
            .map_err(|_| MemorySafetyError::InvalidFree { pointer: ptr })?;
        if self.freed_regions.len() == FREED_HISTORY {
            self.freed_regions.pop_front();
        }
        self.freed_regions
            .push_back((freed.base, freed.base + freed.usable_size));
        Ok(())
    }

    fn check(&mut self, ptr: u64, is_store: bool) -> Result<(), MemorySafetyError> {
        match self.mcu.run_sync(
            McuOp::Access {
                pointer: ptr,
                is_store,
            },
            &mut self.hbt,
        ) {
            Ok(_) => Ok(()),
            Err(AosException::BoundsCheckFailure { pointer, is_store }) => {
                Err(self.diagnose(pointer, is_store))
            }
            Err(other) => unreachable!("access cannot raise {other}"),
        }
    }

    /// Classifies a bounds-check failure for the error message.
    fn diagnose(&self, pointer: u64, is_store: bool) -> MemorySafetyError {
        let addr = self.config.layout.address(pointer);
        let freed = self
            .freed_regions
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&addr));
        if freed {
            MemorySafetyError::UseAfterFree { pointer, is_store }
        } else {
            MemorySafetyError::OutOfBounds { pointer, is_store }
        }
    }

    /// A checked 8-byte load through `ptr`.
    ///
    /// # Errors
    ///
    /// Fails when the pointer is signed and no valid bounds cover the
    /// address — the precise-exception guarantee means the data is
    /// *not* returned on failure (§III-C4).
    pub fn load(&mut self, ptr: u64) -> Result<u64, MemorySafetyError> {
        self.check(ptr, false)?;
        Ok(self.memory.read_u64(self.config.layout.address(ptr)))
    }

    /// A checked 8-byte store through `ptr`.
    ///
    /// # Errors
    ///
    /// Fails like [`AosProcess::load`]; memory is untouched on failure.
    pub fn store(&mut self, ptr: u64, value: u64) -> Result<(), MemorySafetyError> {
        self.check(ptr, true)?;
        self.memory
            .write_u64(self.config.layout.address(ptr), value);
        Ok(())
    }

    /// An *unchecked* load — what a machine without AOS does. Used by
    /// the security scenarios to demonstrate what the attacks achieve
    /// on an unprotected baseline.
    pub fn load_unchecked(&mut self, ptr: u64) -> u64 {
        self.memory.read_u64(self.config.layout.address(ptr))
    }

    /// An *unchecked* store (baseline behaviour).
    pub fn store_unchecked(&mut self, ptr: u64, value: u64) {
        self.memory
            .write_u64(self.config.layout.address(ptr), value);
    }

    /// `autm` on-load authentication (Fig. 13): verifies the pointer
    /// carries an AOS signature.
    ///
    /// # Errors
    ///
    /// Returns [`MemorySafetyError::AuthenticationFailure`] when the
    /// AHC is zero.
    pub fn authenticate(&self, ptr: u64) -> Result<u64, MemorySafetyError> {
        self.signer
            .autm(ptr)
            .map_err(|e| MemorySafetyError::AuthenticationFailure {
                pointer: e.pointer(),
            })
    }
}

impl Default for AosProcess {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_returns_signed_pointer() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(100).unwrap();
        assert!(p.layout().is_signed(ptr));
        assert_eq!(p.layout().address(ptr) % 16, 0);
    }

    #[test]
    fn in_bounds_roundtrip() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(64).unwrap();
        for i in 0..8 {
            p.store(ptr + i * 8, i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(p.load(ptr + i * 8).unwrap(), i);
        }
    }

    #[test]
    fn oob_is_detected_and_memory_untouched() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(64).unwrap();
        let err = p.store(ptr + 64, 0x41414141).unwrap_err();
        assert!(matches!(
            err,
            MemorySafetyError::OutOfBounds { is_store: true, .. }
        ));
        // Precise exception: the poisoned value never landed.
        assert_eq!(p.load_unchecked(ptr + 64), 0);
    }

    #[test]
    fn uaf_is_detected_and_classified() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(64).unwrap();
        p.store(ptr, 7).unwrap();
        p.free(ptr).unwrap();
        let err = p.load(ptr).unwrap_err();
        assert!(
            matches!(err, MemorySafetyError::UseAfterFree { .. }),
            "{err}"
        );
    }

    #[test]
    fn double_free_is_detected() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(64).unwrap();
        p.free(ptr).unwrap();
        assert_eq!(
            p.free(ptr),
            Err(MemorySafetyError::InvalidFree { pointer: ptr })
        );
    }

    #[test]
    fn free_of_unsigned_pointer_is_invalid() {
        let mut p = AosProcess::new();
        let _ = p.malloc(64).unwrap();
        let err = p.free(0x4000_0010).unwrap_err();
        assert!(matches!(err, MemorySafetyError::InvalidFree { .. }));
    }

    #[test]
    fn unsigned_accesses_skip_checking() {
        let mut p = AosProcess::new();
        p.store(0x7000, 99).unwrap();
        assert_eq!(p.load(0x7000).unwrap(), 99);
    }

    #[test]
    fn reallocation_after_free_gets_fresh_bounds() {
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        p.free(a).unwrap();
        let b = p.malloc(64).unwrap();
        // Fastbin reuse: same address, new signature & bounds.
        assert_eq!(p.layout().address(a), p.layout().address(b));
        assert!(p.load(b).is_ok());
        // The OLD pointer still fails even though the address is live
        // again? No — same base ⇒ same PAC ⇒ same bounds row; the new
        // bounds make the old pointer usable again. That is the
        // documented PAC-reuse property, not a defect in the model.
        assert!(p.load(a).is_ok());
    }

    #[test]
    fn calloc_zeroes_recycled_memory() {
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        p.store(a, 0xDEAD).unwrap();
        p.free(a).unwrap();
        // Fastbin reuse returns the same chunk — calloc must scrub it.
        let b = p.calloc(8, 8).unwrap();
        assert_eq!(p.layout().address(b), p.layout().address(a));
        assert_eq!(p.load(b).unwrap(), 0);
    }

    #[test]
    fn realloc_preserves_data_and_locks_old_pointer() {
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        let _spacer = p.malloc(64).unwrap();
        for i in 0..8 {
            p.store(a + i * 8, 0x100 + i).unwrap();
        }
        let b = p.realloc(a, 4096).unwrap();
        assert_ne!(
            p.layout().address(b),
            p.layout().address(a),
            "grew by moving"
        );
        for i in 0..8 {
            assert_eq!(p.load(b + i * 8).unwrap(), 0x100 + i, "data copied");
        }
        // The old pointer is locked, and classified as use-after-free.
        assert!(matches!(
            p.load(a),
            Err(MemorySafetyError::UseAfterFree { .. })
        ));
        // The new pointer covers the grown extent.
        assert!(p.store(b + 4088, 1).is_ok());
        assert!(p.store(b + 4096, 1).is_err());
    }

    #[test]
    fn realloc_shrink_tightens_bounds_in_place() {
        let mut p = AosProcess::new();
        let a = p.malloc(1024).unwrap();
        let _spacer = p.malloc(64).unwrap();
        let b = p.realloc(a, 64).unwrap();
        assert_eq!(p.layout().address(b), p.layout().address(a));
        assert!(p.load(b + 56).is_ok());
        assert!(p.load(b + 64).is_err(), "shrunk bounds enforce 64 bytes");
    }

    #[test]
    fn realloc_of_freed_pointer_is_invalid() {
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        p.free(a).unwrap();
        assert!(matches!(
            p.realloc(a, 128),
            Err(MemorySafetyError::InvalidFree { .. })
        ));
    }

    #[test]
    fn realloc_of_interior_pointer_is_invalid_and_harmless() {
        // An interior pointer passes the bounds check but is not a
        // chunk base; realloc must refuse it without disturbing the
        // chunk's bounds.
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        assert!(p.load(a + 16).is_ok(), "the interior pointer is in bounds");
        assert!(matches!(
            p.realloc(a + 16, 128),
            Err(MemorySafetyError::InvalidFree { .. })
        ));
        assert!(p.load(a).is_ok(), "bounds untouched by the refusal");
    }

    #[test]
    fn pac_collisions_resize_the_table() {
        // Force collisions with an 11-bit PAC space and lots of live
        // chunks.
        let config = ProcessConfig {
            layout: PointerLayout::new(46, 11),
            hbt: HbtConfig {
                pac_size: 11,
                initial_ways: 1,
                max_ways: 64,
                base_addr: 0x3800_0000_0000,
                compressed: true,
            },
            ..ProcessConfig::default()
        };
        let mut p = AosProcess::with_config(config);
        let ptrs: Vec<u64> = (0..40_000).map(|_| p.malloc(32).unwrap()).collect();
        assert!(p.resizes() >= 1, "2048 rows × 8 slots must overflow");
        assert_eq!(p.resizes(), u64::from(p.hbt().ways().trailing_zeros()));
        // Everything stays checkable across the resize.
        for &ptr in ptrs.iter().step_by(997) {
            assert!(p.load(ptr).is_ok());
        }
    }

    #[test]
    fn hbt_exhaustion_rolls_malloc_back_instead_of_panicking() {
        // A deliberately tiny table: 2^11 rows but max 1 way, so ~8
        // same-row chunks fill a row for good.
        let config = ProcessConfig {
            layout: PointerLayout::new(46, 11),
            hbt: HbtConfig {
                pac_size: 11,
                initial_ways: 1,
                max_ways: 1,
                base_addr: 0x3800_0000_0000,
                compressed: true,
            },
            ..ProcessConfig::default()
        };
        let mut p = AosProcess::with_config(config);
        let mut ok = 0u64;
        let err = loop {
            match p.malloc(32) {
                Ok(_) => ok += 1,
                Err(e) => break e,
            }
            assert!(ok < 100_000, "exhaustion never surfaced");
        };
        assert_eq!(
            err,
            HeapError::BoundsMetadata {
                requested: 32,
                reason: "bounds table at max associativity",
            }
        );
        // The rolled-back chunk is reusable once a slot frees up: the
        // heap itself stayed consistent.
        let live = p.heap().profile().live;
        assert_eq!(live, ok, "failed malloc left no live chunk behind");
    }

    #[test]
    fn oversized_malloc_is_refused_not_panicked() {
        let mut p = AosProcess::new();
        // Usable size would exceed the 32-bit bounds field (Fig. 9).
        let err = p.malloc((1 << 33) + 8).unwrap_err();
        assert_eq!(
            err,
            HeapError::BoundsMetadata {
                requested: (1 << 33) + 8,
                reason: "size exceeds the 32-bit bounds encoding",
            }
        );
        assert_eq!(p.heap().profile().live, 0);
        // The process remains fully usable afterwards.
        let ptr = p.malloc(64).unwrap();
        assert!(p.load(ptr).is_ok());
    }

    #[test]
    fn oversized_realloc_is_refused_and_harmless() {
        let mut p = AosProcess::new();
        let a = p.malloc(64).unwrap();
        p.store(a, 42).unwrap();
        assert!(matches!(
            p.realloc(a, 1 << 33),
            Err(MemorySafetyError::InvalidFree { .. })
        ));
        // Original allocation untouched, bounds intact.
        assert_eq!(p.load(a).unwrap(), 42);
    }

    #[test]
    fn try_with_config_rejects_bad_heap_base() {
        let config = ProcessConfig {
            heap: aos_heap::HeapConfig {
                base_addr: 0x4000_0001,
                ..aos_heap::HeapConfig::default()
            },
            ..ProcessConfig::default()
        };
        let err = AosProcess::try_with_config(config).unwrap_err();
        assert!(err.to_string().contains("16-byte aligned"), "{err}");
    }

    #[test]
    fn authenticate_accepts_signed_rejects_stripped() {
        let mut p = AosProcess::new();
        let ptr = p.malloc(32).unwrap();
        assert!(p.authenticate(ptr).is_ok());
        let stripped = p.signer().xpacm(ptr);
        assert!(matches!(
            p.authenticate(stripped),
            Err(MemorySafetyError::AuthenticationFailure { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = MemorySafetyError::OutOfBounds {
            pointer: 0x10,
            is_store: false,
        };
        assert!(e.to_string().contains("out-of-bounds load"));
        let e = MemorySafetyError::InvalidFree { pointer: 0x10 };
        assert!(e.to_string().contains("free"));
    }

    /// The process's heap, table and MCU projected into one snapshot.
    fn snapshot(p: &AosProcess) -> aos_util::TelemetrySnapshot {
        let mut t = aos_util::TelemetrySnapshot::new(true);
        p.heap().record_telemetry(&mut t);
        p.hbt().record_telemetry(&mut t);
        p.mcu().record_telemetry(&mut t);
        t
    }

    #[test]
    fn process_telemetry_covers_heap_and_table() {
        use aos_util::{Counter, Hist};

        let mut p = AosProcess::new();
        let a = p.malloc(100).unwrap();
        let b = p.malloc(24).unwrap();
        p.store(a, 1).unwrap();
        let _ = p.load(a).unwrap();
        p.free(b).unwrap();
        let before_uaf = snapshot(&p);
        assert!(matches!(
            p.load(b),
            Err(MemorySafetyError::UseAfterFree { .. })
        ));

        let t = snapshot(&p);
        // Heap path: allocs, frees and the size-class histogram.
        assert_eq!(t.counter(Counter::HeapAllocs), 2);
        assert_eq!(t.counter(Counter::HeapFrees), 1);
        let sizes: u64 = t.hist(Hist::HeapAllocSize).iter().sum();
        assert_eq!(sizes, 2);
        // Table path: both allocations landed bounds records.
        assert!(t.counter(Counter::HbtInserts) >= 2);
        // Check path: the MCU's and BWB's stats are projected.
        assert_eq!(t.counter(Counter::McqEnqueued), p.mcu().stats().issued);
        assert_eq!(t.counter(Counter::BwbHits), p.mcu().bwb_stats().hits);
        assert!(t.counter(Counter::BwbHits) > 0);
        // The load through the freed pointer walked the table in vain.
        assert_eq!(before_uaf.counter(Counter::HbtMisses), 0);
        assert_eq!(t.counter(Counter::HbtMisses), 1);
        assert_eq!(
            t.counter(Counter::HbtLookups),
            t.counter(Counter::HbtHits) + t.counter(Counter::HbtMisses)
        );
    }

    #[test]
    fn double_free_counts_one_failed_clear() {
        use aos_util::Counter;

        let mut p = AosProcess::new();
        let ptr = p.malloc(64).unwrap();
        p.free(ptr).unwrap();
        assert_eq!(snapshot(&p).counter(Counter::HbtFailedClears), 0);
        assert!(matches!(
            p.free(ptr),
            Err(MemorySafetyError::InvalidFree { .. })
        ));
        let t = snapshot(&p);
        assert_eq!(t.counter(Counter::HbtFailedClears), 1);
        assert_eq!(
            t.counter(Counter::HbtClears),
            1,
            "the failed clear moved no record"
        );
    }
}
