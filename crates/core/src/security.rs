//! The §VII security analysis as executable scenarios.
//!
//! Each function stages one of the paper's attack classes against a
//! fresh [`AosProcess`] and returns what happened, so the test suite
//! (and `aos attacks`) can assert both halves of every
//! claim: the attack *works* on an unprotected baseline and is
//! *detected* by AOS.

use crate::process::{AosProcess, MemorySafetyError};

/// Outcome of one staged attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// What the attack achieves on a machine without AOS.
    pub baseline_effect: String,
    /// The error AOS raised, if any.
    pub detected: Option<MemorySafetyError>,
}

impl ScenarioOutcome {
    /// Whether AOS stopped the attack.
    pub fn is_detected(&self) -> bool {
        self.detected.is_some()
    }
}

/// Heap out-of-bounds read (Fig. 12 line 6): an adjacent over-read
/// that leaks a neighbouring chunk's secret.
pub fn oob_read() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let victim = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let secret_holder = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.store(secret_holder, 0x5EC2E7)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");

    // Baseline: reading past `victim` reaches the neighbour's data
    // (16-byte header gap, then the secret).
    let secret_addr = p.layout().address(secret_holder);
    let victim_addr = p.layout().address(victim);
    let leak = p.load_unchecked(victim + (secret_addr - victim_addr));

    let detected = p.load(victim + 64).err();
    ScenarioOutcome {
        name: "heap OOB read",
        baseline_effect: format!("leaked neighbour value {leak:#x}"),
        detected,
    }
}

/// Heap out-of-bounds write (Fig. 12 line 7): corrupting an adjacent
/// chunk.
pub fn oob_write() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let attacker = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let target = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.store(target, 0x600D)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");

    let delta = p.layout().address(target) - p.layout().address(attacker);
    p.store_unchecked(attacker + delta, 0xBAD);
    let corrupted = p
        .load(target)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");

    let detected = p.store(attacker + 64, 0xBAD).err();
    ScenarioOutcome {
        name: "heap OOB write",
        baseline_effect: format!("corrupted neighbour to {corrupted:#x}"),
        detected,
    }
}

/// A *non-adjacent* illegal access that jumps far past the object —
/// the case redzone/trip-wire schemes like REST miss (§I), but bounds
/// checking catches.
pub fn non_adjacent_oob() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let a = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let far_victim = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.store(far_victim, 0x1337)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");

    // Jump 1 MiB past the allocation: over any plausible redzone.
    let detected = p.load(a + (1 << 20)).err();
    ScenarioOutcome {
        name: "non-adjacent OOB (jumps over redzones)",
        baseline_effect: "reads arbitrary heap memory".to_string(),
        detected,
    }
}

/// Use-after-free / dangling pointer (Fig. 12 line 14).
pub fn use_after_free() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let ptr = p
        .malloc(128)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.store(ptr, 0xA11CE)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.free(ptr)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");

    let stale = p.load_unchecked(ptr);
    let detected = p.load(ptr).err();
    ScenarioOutcome {
        name: "use-after-free",
        baseline_effect: format!("read stale value {stale:#x} through dangling pointer"),
        detected,
    }
}

/// Double free (Fig. 12 lines 16–19).
pub fn double_free() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let ptr = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.free(ptr)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let detected = p.free(ptr).err();
    ScenarioOutcome {
        name: "double free",
        baseline_effect: "corrupts the allocator free list".to_string(),
        detected,
    }
}

/// House of Spirit (paper Fig. 1): the attacker crafts a fake chunk
/// and frees a pointer to it; the next `malloc` of that size returns
/// attacker-chosen memory.
pub fn house_of_spirit() -> ScenarioOutcome {
    // Baseline half: the classic glibc fastbin behaviour, shown
    // against the raw allocator.
    let mut baseline_heap = aos_heap::HeapAllocator::new(aos_heap::HeapConfig::default());
    let crafted = 0x7000_0000u64;
    baseline_heap
        .fastbin_insert_raw(crafted, 48)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let victim = baseline_heap
        .malloc(48)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let baseline_effect = format!(
        "malloc returned attacker-controlled address {:#x}",
        victim.base
    );

    // AOS half: free() of the crafted pointer dies in bndclr, because
    // the crafted address was never signed and has no bounds.
    let mut p = AosProcess::new();
    let _real = p
        .malloc(48)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let detected = p.free(crafted).err();
    ScenarioOutcome {
        name: "House of Spirit (crafted free)",
        baseline_effect,
        detected,
    }
}

/// PAC forging (§VII-C): the attacker rewrites the PAC bits of a
/// signed pointer hoping to alias another object's row. Returns the
/// number of forged PACs (out of `attempts`) that slipped through —
/// expected ≈ `attempts × live_chunks / 2^16`.
pub fn pac_forging(attempts: u64) -> (u64, ScenarioOutcome) {
    let mut p = AosProcess::new();
    // A modest set of live objects for the attacker to hope to hit.
    for _ in 0..64 {
        let q = p
            .malloc(4096)
            .expect("staged scenario: a legal operation on a fresh process cannot fail");
        p.store(q, 1)
            .expect("staged scenario: a legal operation on a fresh process cannot fail");
    }
    let target = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    let addr = p.layout().address(target);
    let layout = p.layout();
    let mut successes = 0;
    let mut first_error = None;
    for forged_pac in 0..attempts {
        let forged = layout.compose(addr, forged_pac & 0xFFFF, 1);
        match p.load(forged) {
            Ok(_) => successes += 1,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    (
        successes,
        ScenarioOutcome {
            name: "PAC forging",
            baseline_effect: "n/a (attack on AOS itself)".to_string(),
            detected: first_error,
        },
    )
}

/// AHC forging (§VII-C): stripping or zeroing the AHC to bypass
/// checking is caught by the `autm` on-load authentication when AOS is
/// paired with pointer integrity (Fig. 13).
pub fn ahc_forging() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let ptr = p
        .malloc(64)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    // The attacker clears the metadata bits so the access looks
    // unsigned and skips bounds checking...
    let stripped = p.signer().xpacm(ptr);
    assert!(
        p.load(stripped).is_ok(),
        "bounds checking alone is bypassed"
    );
    // ...but on-load authentication rejects the unsigned data pointer.
    let detected = p.authenticate(stripped).err();
    ScenarioOutcome {
        name: "AHC forging (autm authentication)",
        baseline_effect: "stripped pointer would skip bounds checks".to_string(),
        detected,
    }
}

/// Return-address corruption / ROP (§VII-B): with PA integrated,
/// return addresses are signed with the stack pointer as modifier
/// (paper Fig. 3). The attacker overwrites the saved return address
/// with a gadget address; authentication on return recomputes the PAC
/// and rejects the forgery.
pub fn rop_hijack() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    let layout = p.layout();
    let sp = 0x3F00_0000_1000u64; // stack frame address (the modifier)
    let ra = 0x0040_1234u64; // legitimate return site
    let gadget = 0x0040_9999u64; // attacker's gadget

    // Prologue: pacia lr, sp — sign and spill the return address.
    let signed_ra = layout.compose(ra, p.signer().pac_for(ra, sp), 0);
    p.store_unchecked(sp, signed_ra);

    // Baseline: the attacker overwrites the slot and the return jumps
    // to the gadget.
    p.store_unchecked(sp, gadget);
    let hijacked = p.load_unchecked(sp);
    let baseline_effect = format!(
        "return jumps to attacker gadget {:#x}",
        layout.address(hijacked)
    );

    // Epilogue with PA: autia lr, sp — recompute and compare the PAC.
    let loaded = p.load_unchecked(sp);
    let expected_pac = p.signer().pac_for(layout.address(loaded), sp);
    let detected = if layout.pac(loaded) == expected_pac {
        None
    } else {
        Some(MemorySafetyError::AuthenticationFailure { pointer: loaded })
    };
    ScenarioOutcome {
        name: "ROP return-address hijack (PA cooperation)",
        baseline_effect,
        detected,
    }
}

/// Intra-object overflow: overflowing one field into another inside
/// the same allocation. AOS bounds are per-chunk, so this is **not**
/// detected — the paper defers bounds narrowing to future work
/// (§VII-F). Returns `None` in `detected`, documenting the limitation.
pub fn intra_object_overflow() -> ScenarioOutcome {
    let mut p = AosProcess::new();
    // struct { char buf[16]; u64 is_admin; }
    let obj = p
        .malloc(24)
        .expect("staged scenario: a legal operation on a fresh process cannot fail");
    p.store(obj + 16, 0)
        .expect("staged scenario: a legal operation on a fresh process cannot fail"); // is_admin = false
                                                                                      // Overflow buf by one element: stays inside the chunk.
    let detected = p.store(obj + 16, 1).err();
    ScenarioOutcome {
        name: "intra-object overflow (documented limitation)",
        baseline_effect: "field corrupted within the same chunk".to_string(),
        detected,
    }
}

/// Runs every scenario, returning the outcomes in a stable order.
pub fn all_scenarios() -> Vec<ScenarioOutcome> {
    let (_, forging) = pac_forging(256);
    vec![
        oob_read(),
        oob_write(),
        non_adjacent_oob(),
        use_after_free(),
        double_free(),
        house_of_spirit(),
        forging,
        ahc_forging(),
        rop_hijack(),
        intra_object_overflow(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_attacks_detected() {
        assert!(matches!(
            oob_read().detected,
            Some(MemorySafetyError::OutOfBounds {
                is_store: false,
                ..
            })
        ));
        assert!(matches!(
            oob_write().detected,
            Some(MemorySafetyError::OutOfBounds { is_store: true, .. })
        ));
        assert!(non_adjacent_oob().is_detected());
    }

    #[test]
    fn temporal_attacks_detected() {
        assert!(matches!(
            use_after_free().detected,
            Some(MemorySafetyError::UseAfterFree { .. })
        ));
        assert!(matches!(
            double_free().detected,
            Some(MemorySafetyError::InvalidFree { .. })
        ));
    }

    #[test]
    fn house_of_spirit_blocked_by_bndclr() {
        let o = house_of_spirit();
        assert!(
            o.baseline_effect.contains("0x70000000"),
            "{}",
            o.baseline_effect
        );
        assert!(matches!(
            o.detected,
            Some(MemorySafetyError::InvalidFree { .. })
        ));
    }

    #[test]
    fn pac_forging_rarely_succeeds() {
        let (successes, outcome) = pac_forging(512);
        // 65 live chunks over a 16-bit PAC space: expect ~0.5 hits in
        // 512 tries; allow generous slack but demand near-total
        // failure.
        assert!(successes <= 5, "forging succeeded {successes}/512 times");
        assert!(outcome.is_detected());
    }

    #[test]
    fn ahc_forging_caught_by_authentication() {
        assert!(matches!(
            ahc_forging().detected,
            Some(MemorySafetyError::AuthenticationFailure { .. })
        ));
    }

    #[test]
    fn intra_object_limitation_is_honest() {
        assert!(!intra_object_overflow().is_detected());
    }

    #[test]
    fn rop_hijack_caught_by_return_address_signing() {
        let o = rop_hijack();
        assert!(
            o.baseline_effect.contains("0x409999"),
            "{}",
            o.baseline_effect
        );
        assert!(matches!(
            o.detected,
            Some(MemorySafetyError::AuthenticationFailure { .. })
        ));
    }

    #[test]
    fn legitimate_return_authenticates() {
        // The dual of the attack: an untouched signed return address
        // passes authentication.
        let p = AosProcess::new();
        let layout = p.layout();
        let (sp, ra) = (0x3F00_0000_2000u64, 0x0040_5678u64);
        let signed = layout.compose(ra, p.signer().pac_for(ra, sp), 0);
        assert_eq!(
            layout.pac(signed),
            p.signer().pac_for(layout.address(signed), sp)
        );
    }

    #[test]
    fn gallery_covers_all_classes() {
        let all = all_scenarios();
        assert_eq!(all.len(), 10);
        let detected = all.iter().filter(|o| o.is_detected()).count();
        assert_eq!(detected, 9, "all but the documented limitation");
    }
}
