//! Instruction-mix accounting for Fig. 16.
//!
//! The paper reports, per workload, how many of each instruction class
//! appear per billion instructions: unsigned/signed loads and stores,
//! `bndstr`/`bndclr`, and the `pac*`/`aut*`/`xpac*` family.

use crate::Op;
use aos_ptrauth::PointerLayout;

/// Counters for the Fig. 16 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstMix {
    /// Total ops recorded.
    pub total: u64,
    /// Loads through unsigned pointers.
    pub unsigned_loads: u64,
    /// Stores through unsigned pointers.
    pub unsigned_stores: u64,
    /// Loads through signed pointers (require bounds checking).
    pub signed_loads: u64,
    /// Stores through signed pointers.
    pub signed_stores: u64,
    /// `bndstr` + `bndclr`.
    pub bnd_ops: u64,
    /// `pacma`/`pac*`/`aut*`/`xpac*` family.
    pub pac_ops: u64,
}

impl InstMix {
    /// Records one op.
    pub fn record(&mut self, op: &Op, layout: PointerLayout) {
        self.total += 1;
        match *op {
            Op::Load { pointer, .. } => {
                if layout.is_signed(pointer) {
                    self.signed_loads += 1;
                } else {
                    self.unsigned_loads += 1;
                }
            }
            Op::Store { pointer, .. } => {
                if layout.is_signed(pointer) {
                    self.signed_stores += 1;
                } else {
                    self.unsigned_stores += 1;
                }
            }
            Op::BndStr { .. } | Op::BndClr { .. } => self.bnd_ops += 1,
            Op::Pacma { .. } | Op::Xpacm | Op::Autm { .. } | Op::PacCrypto => self.pac_ops += 1,
            _ => {}
        }
    }

    /// Fraction of all memory accesses that are signed — the quantity
    /// the paper highlights (e.g. hmmer > 99%).
    pub fn signed_access_fraction(&self) -> f64 {
        let signed = self.signed_loads + self.signed_stores;
        let total = signed + self.unsigned_loads + self.unsigned_stores;
        if total == 0 {
            0.0
        } else {
            signed as f64 / total as f64
        }
    }

    /// Scales a counter to "per billion instructions", the figure's
    /// unit.
    pub fn per_billion(&self, count: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            count as f64 * 1e9 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_signedness() {
        let layout = PointerLayout::default();
        let mut mix = InstMix::default();
        let signed = layout.compose(0x4000, 0xAB, 1);
        mix.record(
            &Op::Load {
                pointer: signed,
                bytes: 8,
                chained: false,
            },
            layout,
        );
        mix.record(
            &Op::Load {
                pointer: 0x5000,
                bytes: 8,
                chained: false,
            },
            layout,
        );
        mix.record(
            &Op::Store {
                pointer: signed,
                bytes: 8,
            },
            layout,
        );
        mix.record(
            &Op::Store {
                pointer: 0x5000,
                bytes: 8,
            },
            layout,
        );
        mix.record(&Op::IntAlu, layout);
        assert_eq!(mix.signed_loads, 1);
        assert_eq!(mix.unsigned_loads, 1);
        assert_eq!(mix.signed_stores, 1);
        assert_eq!(mix.unsigned_stores, 1);
        assert_eq!(mix.total, 5);
        assert!((mix.signed_access_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_instrumentation_families() {
        let layout = PointerLayout::default();
        let mut mix = InstMix::default();
        mix.record(
            &Op::BndStr {
                pointer: 0,
                size: 16,
            },
            layout,
        );
        mix.record(&Op::BndClr { pointer: 0 }, layout);
        mix.record(
            &Op::Pacma {
                pointer: 0,
                size: 16,
            },
            layout,
        );
        mix.record(&Op::Xpacm, layout);
        mix.record(&Op::Autm { pointer: 0 }, layout);
        mix.record(&Op::PacCrypto, layout);
        assert_eq!(mix.bnd_ops, 2);
        assert_eq!(mix.pac_ops, 4);
    }

    #[test]
    fn per_billion_scaling() {
        let layout = PointerLayout::default();
        let mut mix = InstMix::default();
        for _ in 0..1000 {
            mix.record(&Op::IntAlu, layout);
        }
        assert_eq!(mix.per_billion(1), 1e6);
        assert_eq!(InstMix::default().per_billion(5), 0.0);
    }

    #[test]
    fn empty_mix_fraction_is_zero() {
        assert_eq!(InstMix::default().signed_access_fraction(), 0.0);
    }
}
