//! Call-site instrumentation: what each system's compiler inserts.
//!
//! These expansions are the trace-level equivalent of the paper's LLVM
//! passes (`AOS-opt-pass` + `AOS-backend-pass`, §IV-B): they append the
//! *extra* µops each configuration executes at allocation sites, free
//! sites, memory accesses, pointer arithmetic and function boundaries.
//! The base work (the allocator's own loads/stores, the access itself)
//! is emitted by the workload generator for every configuration alike.

use crate::{Op, SafetyConfig};

/// Instrumentation after `malloc` returns (paper Fig. 7a; Watchdog per
/// Fig. 5a ¬). `signed_ptr` is the pointer *after* signing — for
/// non-AOS configs pass the raw pointer.
pub fn malloc_site(config: SafetyConfig, signed_ptr: u64, size: u64, out: &mut Vec<Op>) {
    match config {
        SafetyConfig::Baseline => {}
        SafetyConfig::Watchdog => {
            // key = unique_id++; lock = new_lock(); *lock = key;
            // id = (key, lock) into the extended register.
            out.push(Op::IntAlu);
            out.push(Op::IntAlu);
            out.push(Op::Store {
                pointer: crate::watchdog::lock_address(signed_ptr),
                bytes: 8,
            });
            out.push(Op::IntAlu);
        }
        SafetyConfig::Pa => {
            // PARTS signs the new data pointer (pacda).
            out.push(Op::PacCrypto);
        }
        SafetyConfig::Aos | SafetyConfig::PaAos => {
            out.push(Op::Pacma {
                pointer: signed_ptr,
                size,
            });
            out.push(Op::BndStr {
                pointer: signed_ptr,
                size,
            });
        }
    }
}

/// Instrumentation *before* the `free` body runs (Fig. 7b lines 1–2).
pub fn free_site_pre(config: SafetyConfig, signed_ptr: u64, out: &mut Vec<Op>) {
    match config {
        SafetyConfig::Baseline => {}
        SafetyConfig::Watchdog => {
            // *(id.lock) = INVALID; add_free_list(lock).
            out.push(Op::Store {
                pointer: crate::watchdog::lock_address(signed_ptr),
                bytes: 8,
            });
            out.push(Op::IntAlu);
        }
        SafetyConfig::Pa => {
            // Authenticate before the pointer is used by free().
            out.push(Op::PacCrypto);
        }
        SafetyConfig::Aos | SafetyConfig::PaAos => {
            out.push(Op::BndClr {
                pointer: signed_ptr,
            });
            out.push(Op::Xpacm);
        }
    }
}

/// Instrumentation *after* the `free` body (Fig. 7b line 4):
/// re-signing locks the dangling pointer.
pub fn free_site_post(config: SafetyConfig, signed_ptr: u64, out: &mut Vec<Op>) {
    if config.uses_aos() {
        out.push(Op::Pacma {
            pointer: signed_ptr,
            size: 0, // xzr
        });
    }
}

/// Instrumentation accompanying every data load/store. For Watchdog
/// this is the check µop (Fig. 5a ® ¯); AOS needs nothing — the MCU
/// checks as a side effect of issue (§V-A).
pub fn access_site(config: SafetyConfig, pointer: u64, out: &mut Vec<Op>) {
    if instruments_access(config) {
        out.push(Op::WdCheck { pointer });
    }
}

/// Whether [`access_site`] adds an op under `config`.
pub fn instruments_access(config: SafetyConfig) -> bool {
    config == SafetyConfig::Watchdog
}

/// Instrumentation when a *pointer value* is loaded from or stored to
/// memory: Watchdog moves its 24-byte metadata through shadow space;
/// PA authenticates/signs (Fig. 13 context); PA+AOS uses the 1-cycle
/// `autm` because AOS pointers are already signed (§VII-B).
pub fn pointer_memop_site(config: SafetyConfig, pointer: u64, is_store: bool, out: &mut Vec<Op>) {
    match config {
        SafetyConfig::Baseline | SafetyConfig::Aos => {}
        SafetyConfig::Watchdog => out.push(Op::WdMeta { pointer, is_store }),
        SafetyConfig::Pa => out.push(Op::PacCrypto),
        SafetyConfig::PaAos => {
            if !is_store {
                // On-load authentication only; stores need no re-sign
                // because the pointer already carries its PAC.
                out.push(Op::Autm { pointer });
            }
        }
    }
}

/// Whether [`pointer_memop_site`] adds an op under `config` for a
/// load (`is_store == false`) or a store.
pub fn instruments_pointer_memop(config: SafetyConfig, is_store: bool) -> bool {
    match config {
        SafetyConfig::Baseline | SafetyConfig::Aos => false,
        SafetyConfig::Watchdog | SafetyConfig::Pa => true,
        SafetyConfig::PaAos => !is_store,
    }
}

/// Instrumentation at a function prologue (and, symmetrically, the
/// epilogue): PA signs/authenticates the return address (Fig. 3).
pub fn function_boundary(config: SafetyConfig, out: &mut Vec<Op>) {
    if config.uses_pa() {
        out.push(Op::PacCrypto);
    }
}

/// Instrumentation accompanying pointer arithmetic: Watchdog must copy
/// or select metadata between extended registers (Fig. 5a ° ±).
pub fn pointer_arith_site(config: SafetyConfig, out: &mut Vec<Op>) {
    if instruments_pointer_arith(config) {
        out.push(Op::IntAlu);
    }
}

/// Whether [`pointer_arith_site`] adds an op under `config`.
pub fn instruments_pointer_arith(config: SafetyConfig) -> bool {
    config == SafetyConfig::Watchdog
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_for(f: impl Fn(&mut Vec<Op>)) -> Vec<Op> {
        let mut v = Vec::new();
        f(&mut v);
        v
    }

    #[test]
    fn baseline_adds_nothing_anywhere() {
        let c = SafetyConfig::Baseline;
        assert!(ops_for(|v| malloc_site(c, 0x10, 64, v)).is_empty());
        assert!(ops_for(|v| free_site_pre(c, 0x10, v)).is_empty());
        assert!(ops_for(|v| free_site_post(c, 0x10, v)).is_empty());
        assert!(ops_for(|v| access_site(c, 0x10, v)).is_empty());
        assert!(ops_for(|v| pointer_memop_site(c, 0x10, false, v)).is_empty());
        assert!(ops_for(|v| function_boundary(c, v)).is_empty());
        assert!(ops_for(|v| pointer_arith_site(c, v)).is_empty());
    }

    #[test]
    fn predicates_say_which_sites_add_an_op() {
        for c in SafetyConfig::ALL {
            let access = ops_for(|v| access_site(c, 0x10, v));
            assert_eq!(instruments_access(c), !access.is_empty(), "{c}");
            let arith = ops_for(|v| pointer_arith_site(c, v));
            assert_eq!(instruments_pointer_arith(c), !arith.is_empty(), "{c}");
            for is_store in [false, true] {
                let memop = ops_for(|v| pointer_memop_site(c, 0x10, is_store, v));
                assert_eq!(
                    instruments_pointer_memop(c, is_store),
                    !memop.is_empty(),
                    "{c} store {is_store}"
                );
            }
        }
    }

    #[test]
    fn aos_malloc_matches_fig7a() {
        let ops = ops_for(|v| malloc_site(SafetyConfig::Aos, 0x20, 128, v));
        assert_eq!(
            ops,
            vec![
                Op::Pacma {
                    pointer: 0x20,
                    size: 128
                },
                Op::BndStr {
                    pointer: 0x20,
                    size: 128
                },
            ]
        );
    }

    #[test]
    fn aos_free_matches_fig7b() {
        let pre = ops_for(|v| free_site_pre(SafetyConfig::Aos, 0x20, v));
        assert_eq!(pre, vec![Op::BndClr { pointer: 0x20 }, Op::Xpacm]);
        let post = ops_for(|v| free_site_post(SafetyConfig::Aos, 0x20, v));
        assert_eq!(
            post,
            vec![Op::Pacma {
                pointer: 0x20,
                size: 0
            }]
        );
    }

    #[test]
    fn aos_accesses_need_no_extra_instructions() {
        assert!(ops_for(|v| access_site(SafetyConfig::Aos, 0x20, v)).is_empty());
        assert!(ops_for(|v| access_site(SafetyConfig::PaAos, 0x20, v)).is_empty());
    }

    #[test]
    fn watchdog_checks_every_access() {
        let ops = ops_for(|v| access_site(SafetyConfig::Watchdog, 0x20, v));
        assert_eq!(ops, vec![Op::WdCheck { pointer: 0x20 }]);
        let arith = ops_for(|v| pointer_arith_site(SafetyConfig::Watchdog, v));
        assert_eq!(arith.len(), 1);
    }

    #[test]
    fn watchdog_moves_metadata_on_pointer_memops() {
        let ops = ops_for(|v| pointer_memop_site(SafetyConfig::Watchdog, 0x20, true, v));
        assert_eq!(
            ops,
            vec![Op::WdMeta {
                pointer: 0x20,
                is_store: true
            }]
        );
    }

    #[test]
    fn pa_signs_function_boundaries_and_pointer_loads() {
        assert_eq!(
            ops_for(|v| function_boundary(SafetyConfig::Pa, v)),
            vec![Op::PacCrypto]
        );
        assert_eq!(
            ops_for(|v| pointer_memop_site(SafetyConfig::Pa, 0x20, false, v)),
            vec![Op::PacCrypto]
        );
    }

    #[test]
    fn pa_aos_uses_cheap_autm_on_loads_only() {
        let load = ops_for(|v| pointer_memop_site(SafetyConfig::PaAos, 0x20, false, v));
        assert_eq!(load, vec![Op::Autm { pointer: 0x20 }]);
        let store = ops_for(|v| pointer_memop_site(SafetyConfig::PaAos, 0x20, true, v));
        assert!(store.is_empty(), "already-signed pointers stored as-is");
        assert_eq!(
            ops_for(|v| function_boundary(SafetyConfig::PaAos, v)),
            vec![Op::PacCrypto]
        );
    }

    #[test]
    fn watchdog_malloc_free_touch_lock_locations() {
        let m = ops_for(|v| malloc_site(SafetyConfig::Watchdog, 0x4000, 64, v));
        assert!(m.iter().any(|o| matches!(o, Op::Store { .. })));
        let f = ops_for(|v| free_site_pre(SafetyConfig::Watchdog, 0x4000, v));
        assert!(f.iter().any(|o| matches!(o, Op::Store { .. })));
        assert!(ops_for(|v| free_site_post(SafetyConfig::Watchdog, 0x4000, v)).is_empty());
    }
}
