//! The micro-op vocabulary of the simulated machine.

use aos_ptrauth::PointerLayout;

/// A memory reference extracted from an [`Op`] for the cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryRef {
    /// Virtual byte address (metadata stripped).
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// `true` for stores.
    pub is_store: bool,
    /// `true` for safety-metadata accesses served by a dedicated
    /// metadata cache (Watchdog's lock-location cache; AOS's L1-B is
    /// the analogous structure, §V-F1).
    pub metadata: bool,
}

/// One dynamic micro-operation.
///
/// Pointers inside ops are *raw 64-bit register values* — under AOS
/// configurations they carry PAC and AHC in their upper bits, exactly
/// as the hardware would see them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer operation (multiply/divide class).
    IntMul,
    /// Floating-point operation.
    FpAlu,
    /// Conditional or indirect branch.
    Branch {
        /// Static branch site (program counter).
        pc: u64,
        /// Resolved direction.
        taken: bool,
        /// Whether the predictor missed it; the machine replays this
        /// profile-calibrated flag and charges the flush penalty.
        mispredicted: bool,
    },
    /// Data load through a (possibly signed) pointer.
    Load {
        /// Register value used as the address.
        pointer: u64,
        /// Access width in bytes.
        bytes: u32,
        /// Address-dependent on the previous load (pointer chasing):
        /// cannot start until that load delivers its value.
        chained: bool,
    },
    /// Data store through a (possibly signed) pointer.
    Store {
        /// Register value used as the address.
        pointer: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// `pacma`/`pacmb`: sign a data pointer with PAC + AHC (4-cycle
    /// QARMA, Table IV).
    Pacma {
        /// Pointer being signed.
        pointer: u64,
        /// Size operand (`xzr` → 0).
        size: u64,
    },
    /// `xpacm`: strip PAC and AHC (1 cycle).
    Xpacm,
    /// `autm`: AHC-nonzero authentication (1 cycle — no QARMA).
    Autm {
        /// Pointer being authenticated.
        pointer: u64,
    },
    /// Generic Arm PA sign/authenticate (`pacia`, `autda`, …):
    /// 4-cycle QARMA.
    PacCrypto,
    /// `bndstr`: store bounds into the HBT (handled by the MCU).
    BndStr {
        /// Signed pointer (lower bound source).
        pointer: u64,
        /// Chunk size.
        size: u64,
    },
    /// `bndclr`: clear bounds in the HBT (handled by the MCU).
    BndClr {
        /// Signed pointer being freed.
        pointer: u64,
    },
    /// Watchdog check µop: compares register bounds and loads the
    /// 8-byte lock location for UAF detection.
    WdCheck {
        /// Pointer being checked.
        pointer: u64,
    },
    /// Watchdog metadata shadow access: propagates 24-byte pointer
    /// metadata through memory alongside a pointer load/store.
    WdMeta {
        /// The pointer whose shadow record is accessed.
        pointer: u64,
        /// Whether the shadow record is written.
        is_store: bool,
    },
}

impl Op {
    /// Execution latency in cycles for non-memory ops; memory ops
    /// return their address-generation latency (the cache adds the
    /// rest).
    pub fn exec_latency(&self) -> u64 {
        match self {
            Op::IntAlu | Op::Xpacm | Op::Autm { .. } | Op::Branch { .. } => 1,
            Op::IntMul | Op::FpAlu => 3,
            Op::Pacma { .. } | Op::PacCrypto => 4,
            Op::Load { .. } | Op::Store { .. } | Op::WdCheck { .. } | Op::WdMeta { .. } => 1,
            Op::BndStr { .. } | Op::BndClr { .. } => 1,
        }
    }

    /// The data-memory reference this op performs, if any. Bounds-table
    /// traffic is *not* included here — the MCU generates it.
    pub fn memory_ref(&self, layout: PointerLayout) -> Option<MemoryRef> {
        match *self {
            Op::Load { pointer, bytes, .. } => Some(MemoryRef {
                addr: layout.address(pointer),
                bytes,
                is_store: false,
                metadata: false,
            }),
            Op::Store { pointer, bytes } => Some(MemoryRef {
                addr: layout.address(pointer),
                bytes,
                is_store: true,
                metadata: false,
            }),
            Op::WdCheck { pointer } => Some(MemoryRef {
                addr: crate::watchdog::lock_address(layout.address(pointer)),
                bytes: 8,
                is_store: false,
                metadata: true,
            }),
            Op::WdMeta { pointer, is_store } => Some(MemoryRef {
                addr: crate::watchdog::shadow_address(layout.address(pointer)),
                bytes: 24,
                is_store,
                metadata: false,
            }),
            _ => None,
        }
    }

    /// Whether the op allocates a load/store-queue entry. Watchdog's
    /// check µop reads its lock through a dedicated lock-location
    /// cache beside the core (Watchdog §5; the paper models the AOS
    /// L1-B after it), so it does not consume an LSQ slot; the shadow
    /// metadata movement (`WdMeta`) is ordinary memory traffic.
    pub fn occupies_lsq(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. } | Op::WdMeta { .. })
    }

    /// Whether the op must also be enqueued into the MCU (AOS
    /// configurations only).
    pub fn needs_mcu(&self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::Store { .. } | Op::BndStr { .. } | Op::BndClr { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table_iv() {
        assert_eq!(
            Op::Pacma {
                pointer: 0,
                size: 0
            }
            .exec_latency(),
            4
        );
        assert_eq!(Op::PacCrypto.exec_latency(), 4);
        assert_eq!(Op::Xpacm.exec_latency(), 1);
        assert_eq!(Op::Autm { pointer: 0 }.exec_latency(), 1);
        assert_eq!(Op::IntAlu.exec_latency(), 1);
    }

    #[test]
    fn memory_refs_strip_metadata() {
        let layout = PointerLayout::default();
        let signed = layout.compose(0x4000, 0xAB, 1);
        let r = Op::Load {
            pointer: signed,
            bytes: 8,
            chained: false,
        }
        .memory_ref(layout)
        .unwrap();
        assert_eq!(r.addr, 0x4000);
        assert!(!r.is_store);
        let w = Op::Store {
            pointer: signed,
            bytes: 4,
        }
        .memory_ref(layout)
        .unwrap();
        assert!(w.is_store);
        assert_eq!(w.bytes, 4);
    }

    #[test]
    fn non_memory_ops_have_no_ref() {
        let layout = PointerLayout::default();
        assert!(Op::IntAlu.memory_ref(layout).is_none());
        assert!(Op::PacCrypto.memory_ref(layout).is_none());
        assert!(Op::BndStr {
            pointer: 0,
            size: 1
        }
        .memory_ref(layout)
        .is_none());
    }

    #[test]
    fn watchdog_ops_reference_metadata_space() {
        let layout = PointerLayout::default();
        let chk = Op::WdCheck { pointer: 0x4000 }.memory_ref(layout).unwrap();
        let meta = Op::WdMeta {
            pointer: 0x4000,
            is_store: true,
        }
        .memory_ref(layout)
        .unwrap();
        assert_ne!(chk.addr, 0x4000);
        assert_ne!(meta.addr, 0x4000);
        assert_ne!(chk.addr, meta.addr);
        assert_eq!(meta.bytes, 24, "Watchdog metadata is 24 bytes");
        assert!(meta.is_store);
    }

    #[test]
    fn mcu_routing() {
        assert!(Op::Load {
            pointer: 0,
            bytes: 8,
            chained: false
        }
        .needs_mcu());
        assert!(Op::Store {
            pointer: 0,
            bytes: 8
        }
        .needs_mcu());
        assert!(Op::BndStr {
            pointer: 0,
            size: 16
        }
        .needs_mcu());
        assert!(Op::BndClr { pointer: 0 }.needs_mcu());
        assert!(!Op::IntAlu.needs_mcu());
        assert!(!Op::WdCheck { pointer: 0 }.needs_mcu());
    }
}
